"""Majorization-average theorems and multivariate norm inequalities.

Measures here are finite and discrete, so the averaged statements reduce to
exact weighted sums.  The multivariate inequality is verified by truncated
Gauss-Legendre quadrature of the density

    beta0(t) = pi / (2 (cosh(pi t) + 1)) = pi / (4 cosh(pi t / 2)^2),

whose antiderivative tanh(pi t / 2) / 2 gives closed-form tail masses, so
every quadrature result carries an explicit truncation bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, DomainError
from .majorization import (
    MajorizationResult,
    SortedVec,
    log_majorizes,
    majorizes,
    weak_log_majorizes,
    weak_majorizes,
)
from .norms import ky_fan_from_eigenvalues, ky_fan_norm
from .sampling import random_unitary
from .tensors import (
    HermitianTensor,
    Tensor,
    _apply_scalar_function,
    _scalar_function_values,
    as_hermitian,
    hermitian_eig,
    tensor_exp,
)

MODES = ("weak", "strong", "weak_log", "log")

# f per mode for constructed-premise trials: convex nondecreasing (weak), convex
# (strong), f(e^x) convex nondecreasing on positive spectra (log modes)
TRIAL_FUNCTIONS = {
    "weak": (np.exp, lambda x: np.maximum(x + 1.0, 0.0)),
    "strong": (np.exp, lambda x: x**2, lambda x: np.maximum(x + 1.0, 0.0)),
    "weak_log": (np.exp, lambda x: x**2),
    "log": (np.exp, lambda x: x**2),
}


# ---------------------------------------------------------------------------
# Densities and quadrature
# ---------------------------------------------------------------------------

def beta0_density(t):
    """Interpolation density pi / (2 (cosh(pi t) + 1)), written cosh-squared stable."""
    t = np.asarray(t, dtype=np.float64)
    out = math.pi / (4.0 * np.cosh(math.pi * t / 2.0) ** 2)
    return float(out) if out.ndim == 0 else out


def beta_density(theta: float, t):
    """Family member beta_theta(t) = sin(pi theta) / (2 theta (cosh(pi t) + cos(pi theta)))."""
    if not 0.0 < theta <= 1.0:
        raise ArgumentError(f"theta must be in (0, 1], got {theta}")
    t = np.asarray(t, dtype=np.float64)
    out = math.sin(math.pi * theta) / (2.0 * theta * (np.cosh(math.pi * t) + math.cos(math.pi * theta)))
    return float(out) if out.ndim == 0 else out


def beta0_tail_mass(truncation: float) -> float:
    """Total beta0 mass outside [-T, T]: 1 - tanh(pi T / 2)."""
    return 1.0 - math.tanh(math.pi * truncation / 2.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre rule on [-truncation, truncation].

    The refinement error estimate also evaluates ``max(16, node_count // 2)`` nodes.
    """

    truncation: float = 6.0
    node_count: int = 256

    def __post_init__(self):
        if self.truncation <= 0:
            raise ArgumentError(f"truncation must be positive, got {self.truncation}")
        if self.node_count < 16:
            raise ArgumentError(f"node_count must be >= 16, got {self.node_count}")

    def nodes_weights(self, node_count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        n = self.node_count if node_count is None else node_count
        x, w = _legendre_rule(n)
        return x * self.truncation, w * self.truncation


@functools.lru_cache(maxsize=16)
def _legendre_rule(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw Gauss-Legendre nodes and weights on [-1, 1], read-only and shared by every caller.

    The rule depends only on the node count, so one computation per count serves
    every spec and every tuple.
    """
    x, w = np.polynomial.legendre.leggauss(node_count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite-support probability measure: atoms paired with positive weights."""

    atoms: tuple
    weights: tuple[float, ...]

    def __init__(self, atoms: Sequence, weights: Sequence[float]):
        atoms = tuple(atoms)
        w = tuple(float(x) for x in weights)
        if len(atoms) != len(w) or not atoms:
            raise ArgumentError("atoms and weights must be equal-length and nonempty")
        if any(x <= 0 for x in w):
            raise ArgumentError(f"weights must be positive, got {w}")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ArgumentError(f"weights must sum to 1 within 1e-12, got {sum(w)}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.atoms)

    def items(self):
        return zip(self.atoms, self.weights)


# ---------------------------------------------------------------------------
# Discrete-measure majorization average theorems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AverageMajorizationReport:
    premise: MajorizationResult
    conclusion_lhs: float
    conclusion_rhs: float
    conclusion_holds: bool
    violated: bool  # premise true but conclusion false

    @property
    def premise_holds(self) -> bool:
        return self.premise.holds


def verify_discrete_average_majorization(
    c: HermitianTensor,
    measure: DiscreteMeasure,
    f: Callable,
    k: int,
    mode: str,
    conclusion_form: str | None = None,
) -> AverageMajorizationReport:
    """Check one majorization-average statement on a finite measure.

    ``mode`` selects the premise: plain averages compared by weak ("weak") or
    full ("strong") majorization, or geometric averages compared by weak-log /
    log majorization.  The conclusion compares ``||f(C)||_(k)`` against the
    weighted arithmetic mean of ``||f(D)||_(k)`` ("linear" form) or its
    weighted geometric mean ("log" form); by default log premises use the log
    form and the others the linear form.  A report with ``violated=True``
    means the premise held but the conclusion failed, which falsifies the
    theorem on that instance.
    """
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    if conclusion_form is None:
        conclusion_form = "log" if mode in ("weak_log", "log") else "linear"
    if conclusion_form not in ("linear", "log"):
        raise ArgumentError(f"conclusion_form must be 'linear' or 'log', got {conclusion_form!r}")

    c = as_hermitian(c)
    atoms = [as_hermitian(d) for d in measure.atoms]
    if any(d.shape != c.shape for d in atoms):
        raise ArgumentError("all tensors in the measure must match the shape of C")
    # one spectrum of C and one batched over the atoms serve premise and conclusion
    lam_c = np.linalg.eigvalsh(c.matrix)[::-1]
    lam_d = np.linalg.eigvalsh(np.stack([d.matrix for d in atoms]))[:, ::-1]
    w = np.asarray(measure.weights)

    if mode in ("weak", "strong"):
        avg = np.sum(w[:, None] * lam_d, axis=0)
        pred = weak_majorizes if mode == "weak" else majorizes
        premise = pred(SortedVec(avg), SortedVec(lam_c))
    else:
        if np.any(lam_d <= 0.0):
            raise DomainError("log-average premise needs positive spectra")
        if np.any(lam_c <= 0.0):
            raise DomainError("log modes need a positive spectrum for C")
        geo = np.exp(np.sum(w[:, None] * np.log(lam_d), axis=0))
        pred = weak_log_majorizes if mode == "weak_log" else log_majorizes
        premise = pred(SortedVec(geo), SortedVec(lam_c))

    lhs = float(ky_fan_from_eigenvalues(_apply_scalar_function(f, lam_c), k))
    norms = ky_fan_from_eigenvalues(_apply_scalar_function(f, lam_d), k)
    if conclusion_form == "linear":
        rhs = float(np.sum(w * norms))
    else:
        with np.errstate(divide="ignore"):
            rhs = float(np.exp(np.sum(w * np.log(norms))))
    tol = 1e-9 * (1.0 + abs(lhs) + abs(rhs))
    conclusion = lhs <= rhs + tol
    return AverageMajorizationReport(
        premise=premise,
        conclusion_lhs=lhs,
        conclusion_rhs=rhs,
        conclusion_holds=conclusion,
        violated=premise.holds and not conclusion,
    )


def _diagonal_in(u: Tensor, lam: np.ndarray) -> HermitianTensor:
    return HermitianTensor(u.shape, (u.matrix * lam) @ u.matrix.conj().T)


def commuting_tuple(rng, u: Tensor, count: int, low: float, high: float):
    """``count`` tensors diagonal in the basis ``u``, spectra uniform on [low, high]: (tensors, spectra)."""
    spectra = [np.sort(rng.uniform(low, high, size=u.shape.unfold_rows))[::-1] for _ in range(count)]
    return [_diagonal_in(u, lam) for lam in spectra], spectra


def constructed_premise_trial(rng, mode: str, u: Tensor, n_atoms: int):
    """``(C, measure, f)`` for ``mode`` with the premise true by construction.

    Draws atoms diagonal in ``u``, Dirichlet weights, a basis for ``C`` (its
    spectrum is the weighted mean of the atom spectra, geometric for the log
    modes) and ``f`` from ``TRIAL_FUNCTIONS[mode]``, in that order.
    """
    positive = mode in ("weak_log", "log")
    atoms, eigs = commuting_tuple(rng, u, n_atoms, 0.3 if positive else -2.0, 3.0)
    w = rng.dirichlet(np.ones(n_atoms))
    if positive:
        target = np.exp(sum(wi * np.log(e) for wi, e in zip(w, eigs)))
    else:
        target = sum(wi * e for wi, e in zip(w, eigs))
    c = _diagonal_in(random_unitary(u.shape, rng), target)
    fs = TRIAL_FUNCTIONS[mode]
    return c, DiscreteMeasure(atoms, w), fs[int(rng.integers(len(fs)))]


# ---------------------------------------------------------------------------
# Multivariate norm inequality (quadrature verification)
# ---------------------------------------------------------------------------

def _positive_spectra(cs: Sequence[HermitianTensor]):
    specs = []
    for c in cs:
        spec = hermitian_eig(as_hermitian(c))
        if np.any(spec.eigenvalues <= 0.0):
            raise DomainError("multivariate norm inequality needs positive tensors")
        specs.append(spec)
    return specs


def golden_thompson_lhs(f: Callable, cs: Sequence[HermitianTensor], k: int) -> float:
    """``|| f(exp(sum_i log C_i)) ||_(k)`` from one spectrum of ``sum_i log C_i``."""
    if not cs:
        raise ArgumentError("need at least one tensor")
    total = sum(
        (spec.basis * np.log(spec.eigenvalues)) @ spec.basis.conj().T
        for spec in _positive_spectra(cs)
    )
    mu = np.linalg.eigvalsh(total)
    return float(ky_fan_from_eigenvalues(_apply_scalar_function(f, np.exp(mu)), k))


def _power_product_singular_values(specs, ts: np.ndarray) -> np.ndarray:
    """Singular values of ``prod_i C_i^(1 + i t)`` for every node t: (T, D) descending."""
    dim = specs[0].basis.shape[0]
    prod = np.broadcast_to(np.eye(dim, dtype=np.complex128), (ts.size, dim, dim)).copy()
    z = 1.0 + 1j * ts
    for spec in specs:
        powered = np.exp(np.multiply.outer(z, np.log(spec.eigenvalues)))  # (T, D)
        u = spec.basis
        mats = np.einsum("ij,tj,kj->tik", u, powered, u.conj())
        prod = prod @ mats
    gram = np.conj(np.transpose(prod, (0, 2, 1))) @ prod
    gram = (gram + np.conj(np.transpose(gram, (0, 2, 1)))) / 2.0
    eig = np.linalg.eigvalsh(gram)  # ascending
    return np.sqrt(np.clip(eig[:, ::-1], 0.0, None))


def _f_range(f: Callable, lo: float, hi: float, samples: int = 512) -> tuple[float, float]:
    """Sampled range of ``|f|`` on [lo, hi], the values the Ky Fan integrands sum."""
    xs = np.geomspace(max(lo, 1e-300), max(hi, 1e-300), samples)
    vals = _scalar_function_values(f, xs)
    vals = np.abs(vals[np.isfinite(vals)])
    if vals.size == 0:
        raise DomainError("scalar function produced no finite values on the spectral interval")
    return float(vals.min()), float(vals.max())


@dataclass(frozen=True)
class QuadratureValue:
    """Quadrature result with explicit truncation and refinement error terms.

    ``truncation_bound`` bounds the contribution of the beta0 mass outside
    [-T, T]; ``quadrature_error`` is the full-rule against half-rule
    difference.  ``error_bound`` combines the two; the true improper integral
    differs from ``value`` by at most that margin (up to the usual smoothness
    caveats of the refinement estimate).
    """

    value: float
    error_bound: float
    truncation_bound: float
    quadrature_error: float


class PowerProductSpectrum:
    """Node singular values of ``prod_i C_i^(1+it)`` for one positive tuple and one rule.

    The singular values on the full rule and on the half rule (the refinement
    estimate's ``max(16, node_count // 2)`` nodes) depend only on ``(cs, quad)``,
    so one object serves every ``(f, k)`` of both inequality forms.
    ``interval`` is ``[prod lambda_min(C_i), prod lambda_max(C_i)]``, which
    holds every singular value and is where ``|f|`` is sampled for the
    truncation bound.
    """

    def __init__(self, cs: Sequence[HermitianTensor], quad: QuadratureSpec):
        if not cs:
            raise ArgumentError("need at least one tensor")
        self.quad = quad
        self.spectra = _positive_spectra(cs)
        self.interval = (
            float(np.prod([s.eigenvalues[-1] for s in self.spectra])),
            float(np.prod([s.eigenvalues[0] for s in self.spectra])),
        )
        self._rules = []
        for node_count in (quad.node_count, max(16, quad.node_count // 2)):
            t, w = quad.nodes_weights(node_count)
            sv = _power_product_singular_values(self.spectra, t)
            self._rules.append((sv, beta0_density(t), w))

    def _integral(self, f: Callable, k: int, form: Callable) -> tuple[float, float]:
        """``int form(|| f(|prod C_i^(1+it)|) ||_(k)) beta0(t) dt`` on [-T, T] and its refinement error."""
        sums = []
        for sv, density, w in self._rules:
            norms = ky_fan_from_eigenvalues(_apply_scalar_function(f, sv), k)
            sums.append(float(np.sum(form(norms) * density * w)))
        full, half = sums
        return full, abs(full - half) + 1e-12 * (1.0 + abs(full))

    def log_form(self, f: Callable, k: int) -> QuadratureValue:
        """``exp( int log || f(|prod C_i^(1+it)|) ||_(k) beta0(t) dt )`` on [-T, T]."""
        f_lo, f_hi = _f_range(f, *self.interval)
        integral, quad_err = self._integral(f, k, np.log)
        with np.errstate(divide="ignore"):
            m_log = max(abs(np.log(k * f_lo)) if f_lo > 0 else np.inf, abs(np.log(k * f_hi)))
        trunc_log = m_log * beta0_tail_mass(self.quad.truncation)
        value = math.exp(integral)
        finite = math.isfinite(trunc_log)
        return QuadratureValue(
            value=value,
            error_bound=value * math.expm1(min(trunc_log + quad_err, 700.0)) if finite else math.inf,
            truncation_bound=value * math.expm1(min(trunc_log, 700.0)) if finite else math.inf,
            quadrature_error=quad_err,
        )

    def linear_form(self, g: Callable, k: int) -> QuadratureValue:
        """``int || g(|prod C_i^(1+it)|) ||_(k) beta0(t) dt`` on [-T, T]."""
        _, g_hi = _f_range(g, *self.interval)
        integral, quad_err = self._integral(g, k, lambda norms: norms)
        trunc = k * g_hi * beta0_tail_mass(self.quad.truncation)
        return QuadratureValue(
            value=integral, error_bound=trunc + quad_err, truncation_bound=trunc, quadrature_error=quad_err
        )


def golden_thompson_rhs_log(
    f: Callable, cs: Sequence[HermitianTensor], k: int, quad: QuadratureSpec
) -> QuadratureValue:
    """``exp( int log || f(|prod C_i^(1+it)|) ||_(k) beta0(t) dt )`` on [-T, T]."""
    return PowerProductSpectrum(cs, quad).log_form(f, k)


def golden_thompson_rhs_linear(
    g: Callable, cs: Sequence[HermitianTensor], k: int, quad: QuadratureSpec
) -> QuadratureValue:
    """``int || g(|prod C_i^(1+it)|) ||_(k) beta0(t) dt`` on [-T, T]."""
    return PowerProductSpectrum(cs, quad).linear_form(g, k)


def multivariate_violations(
    cs: Sequence[HermitianTensor], k: int, fs: Sequence[Callable], quad: QuadratureSpec
) -> tuple[int, int]:
    """Log- and linear-form violations over ``fs``, on one power-product spectrum of ``cs``.

    A form holds if ``lhs <= value + error_bound + 1e-8 (1 + |lhs|)``; a NaN fails.
    """
    spectrum = PowerProductSpectrum(cs, quad)
    log_bad = lin_bad = 0
    for f in fs:
        lhs = golden_thompson_lhs(f, cs, k)
        slack = 1e-8 * (1.0 + abs(lhs))
        rlog, rlin = spectrum.log_form(f, k), spectrum.linear_form(f, k)
        log_bad += int(not lhs <= rlog.value + rlog.error_bound + slack)
        lin_bad += int(not lhs <= rlin.value + rlin.error_bound + slack)
    return log_bad, lin_bad


def commuting_equality_excess(
    cs: Sequence[HermitianTensor], k: int, fs: Sequence[Callable], quad: QuadratureSpec
) -> float:
    """Worst ``|lhs - rhs_log| - (error_bound + 1e-7 (1 + |lhs|))`` over ``fs`` (NaN propagates).

    A commuting tuple attains equality, so a positive excess is a failure.
    """
    spectrum = PowerProductSpectrum(cs, quad)
    excess = -math.inf
    for f in fs:
        lhs = golden_thompson_lhs(f, cs, k)
        rlog = spectrum.log_form(f, k)
        excess = np.maximum(excess, abs(lhs - rlog.value) - (rlog.error_bound + 1e-7 * (1.0 + abs(lhs))))
    return float(excess)


# ---------------------------------------------------------------------------
# Lie-Trotter product formula
# ---------------------------------------------------------------------------

def lie_trotter_error(ls: Sequence[HermitianTensor], n: int) -> float:
    """Spectral norm of ``(prod exp(L_k / n))^n - exp(sum L_k)``."""
    if int(n) < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    n = int(n)
    if not ls:
        raise ArgumentError("need at least one tensor")
    shape = ls[0].shape
    step = np.eye(shape.unfold_rows, dtype=np.complex128)
    total = None
    for l in ls:
        h = as_hermitian(l)
        step = step @ tensor_exp(h * (1.0 / n)).matrix
        total = h if total is None else total + h
    diff = np.linalg.matrix_power(step, n) - tensor_exp(total).matrix
    return ky_fan_norm(Tensor(shape, diff), 1)


def lie_trotter_proof_bound(l1: HermitianTensor, l2: HermitianTensor, n: int) -> float:
    """Two-term error bound ``2 exp(2||L1|| + 2||L2||) / n``."""
    a = ky_fan_norm(l1, 1)
    b = ky_fan_norm(l2, 1)
    return 2.0 * math.exp(2.0 * a + 2.0 * b) / int(n)


def lie_trotter_audit(l1: HermitianTensor, l2: HermitianTensor, ns: Sequence[int]) -> tuple[float, bool]:
    """Log-log slope of the two-term Lie-Trotter error over ``ns``, and whether
    every error is within ``lie_trotter_proof_bound`` (a NaN error is not)."""
    errs = np.array([lie_trotter_error([l1, l2], int(n)) for n in ns])
    bounds = np.array([lie_trotter_proof_bound(l1, l2, int(n)) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(np.maximum(errs, 1e-300)), 1)[0])
    return slope, bool(np.all(errs <= bounds))
