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
from .majorization import first_failures, log_tol
from .norms import ky_fan_from_eigenvalues, ky_fan_norm
from .sampling import diagonal_in
from .tensors import (
    HermitianTensor,
    Tensor,
    _apply_scalar_function,
    _scalar_function_values,
    as_hermitian,
    hermitian_part,
    tensor_exp,
)

MODES = ("weak", "strong", "weak_log", "log")
LOG_MODES = ("weak_log", "log")
# exclusive cap on a rule's node count: leggauss builds a node_count^2 float64 matrix, 128 MiB at 2^12
NODE_LIMIT = 2**12

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
    """Interpolation density pi / (2 (cosh(pi t) + 1)), written cosh-squared stable.

    Past |t| of about 226 the cosh squared overflows to inf and the density is exactly 0.
    """
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
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
    """Gauss-Legendre rule on [-truncation, truncation], with 16 <= node_count < ``NODE_LIMIT``.

    The refinement error estimate also evaluates ``max(16, node_count // 2)`` nodes.
    """

    truncation: float = 6.0
    node_count: int = 256

    def __post_init__(self):
        if self.truncation <= 0:
            raise ArgumentError(f"truncation must be positive, got {self.truncation}")
        if not 16 <= self.node_count < NODE_LIMIT:
            raise ArgumentError(f"node_count must be in [16, {NODE_LIMIT}), got {self.node_count}")

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


def beta0_mass_error(quad: QuadratureSpec) -> float:
    """``|sum beta0(t) w - tanh(pi T / 2)|`` on ``quad``'s interval, over ``max(node_count, 256)`` nodes.

    The 1e-8 tolerance the callers apply is calibrated at 256 nodes, so fewer are never used.
    """
    t, w = quad.nodes_weights(max(quad.node_count, 256))
    return abs(float(np.sum(beta0_density(t) * w)) - math.tanh(math.pi * quad.truncation / 2.0))


# ---------------------------------------------------------------------------
# Discrete-measure majorization average theorems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AverageMajorizationReport:
    """Per-trial results of ``verify_discrete_average_majorization``, one entry per trial.

    ``premise_failure`` is the first failing prefix length of the premise
    (0 where it holds); ``violated`` marks a true premise with a false
    conclusion, which falsifies the theorem on that trial.
    """

    premise_failure: np.ndarray
    conclusion_lhs: np.ndarray
    conclusion_rhs: np.ndarray
    conclusion_holds: np.ndarray
    violated: np.ndarray

    @property
    def premise_holds(self) -> np.ndarray:
        return self.premise_failure == 0


def _per_trial_array(value, b: int, label: str) -> np.ndarray:
    """``value`` as an array: one value, or a sequence of one per trial (``ArgumentError`` naming ``label`` else)."""
    out = np.asarray(value)
    if out.ndim > 1 or (out.ndim == 1 and len(out) != b):
        raise ArgumentError(f"need one {label} per trial, {b} of them, got "
                            f"{len(out) if out.ndim == 1 else f'shape {out.shape}'}")
    return out


def _per_trial(value, b: int, allowed: Sequence[str], label: str) -> np.ndarray:
    out = np.broadcast_to(_per_trial_array(value, b, label), (b,))
    unknown = set(out.tolist()) - set(allowed)
    if unknown:
        raise ArgumentError(f"{label} must be one of {tuple(allowed)}, got {sorted(unknown)}")
    return out


def _means(w: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted arithmetic and geometric means over axis 1, skipping entries of weight 0."""
    present = w > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        arith = np.sum(np.where(present, w * vals, 0.0), axis=1)
        geo = np.exp(np.sum(np.where(present, w * np.log(vals), 0.0), axis=1))
    return arith, geo


def _apply_per_trial(f, vals: np.ndarray, trials: int, owner=None, apply=_apply_scalar_function) -> np.ndarray:
    """``apply(f, vals)``; with one f per trial, row ``i`` takes that of trial ``owner[i]`` (default ``i``)."""
    if callable(f):
        return apply(f, vals)
    if len(f) != trials:
        raise ArgumentError(f"need one f per trial, {trials} of them, got {len(f)}")
    funcs = list({id(g): g for g in f}.values())
    slot = {id(g): i for i, g in enumerate(funcs)}
    which = np.array([slot[id(g)] for g in f])[slice(None) if owner is None else owner]
    out = np.empty(vals.shape)
    for i, g in enumerate(funcs):
        rows = which == i
        out[rows] = apply(g, vals[rows])
    return out


def verify_discrete_average_majorization(
    c: np.ndarray,
    atoms: np.ndarray,
    weights: np.ndarray,
    f,
    k,
    mode,
    conclusion_form=None,
) -> AverageMajorizationReport:
    """Check majorization-average statements on finite measures, one per trial.

    Trial ``b`` pairs the Hermitian ``C = c[b]`` (``c`` is ``(B, d, d)``)
    with the measure putting weight ``weights[b, i]`` on ``atoms[b, i]``
    (``(B, A)`` and ``(B, A, d, d)``); each trial's weights are nonnegative
    and sum to 1, and a zero weight drops its atom, so measures with fewer
    atoms are padded.  ``f`` is one callable or a sequence of one per trial;
    ``k``, ``mode`` and ``conclusion_form`` are one value or one per trial.

    ``mode`` selects the premise: plain averages compared by weak ("weak") or
    full ("strong") majorization, or geometric averages compared by weak-log /
    log majorization.  The conclusion compares ``||f(C)||_(k)`` against the
    weighted arithmetic mean of ``||f(D)||_(k)`` ("linear" form) or its
    weighted geometric mean ("log" form); by default log premises use the log
    form and the others the linear form.
    """
    c, atoms = hermitian_part(c), hermitian_part(atoms)
    w = np.asarray(weights, dtype=np.float64)
    if c.ndim != 3 or atoms.ndim != 4 or atoms.shape[0] != c.shape[0] or atoms.shape[2:] != c.shape[1:]:
        raise ArgumentError(f"need C (B, d, d) and atoms (B, A, d, d), got {c.shape} and {atoms.shape}")
    if w.shape != atoms.shape[:2]:
        raise ArgumentError(f"weights must be {atoms.shape[:2]}, got {w.shape}")
    if np.any(w < 0) or np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-12):
        raise ArgumentError("each trial's weights must be nonnegative and sum to 1 within 1e-12")
    b = c.shape[0]
    modes = _per_trial(mode, b, MODES, "mode")
    logm = np.isin(modes, LOG_MODES)
    forms = np.where(logm, "log", "linear") if conclusion_form is None else conclusion_form
    forms = _per_trial(forms, b, ("linear", "log"), "conclusion_form")
    present = w > 0
    # one batched spectrum of every C and one of every atom serve premise and conclusion
    lam_c = np.linalg.eigvalsh(c)[:, ::-1]
    lam_d = np.linalg.eigvalsh(atoms)[..., ::-1]
    if np.any((lam_d <= 0.0) & (present & logm[:, None])[..., None]):
        raise DomainError("log-average premise needs positive spectra")
    if np.any((lam_c <= 0.0) & logm[:, None]):
        raise DomainError("log modes need a positive spectrum for C")

    avg, geo = _means(w[..., None], lam_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        lx, ly = np.log(lam_c), np.log(geo)
        x = np.where(logm[:, None], lx, lam_c)
        y = np.where(logm[:, None], ly, avg)
        tol = np.where(
            logm,
            log_tol(lx, ly),
            1e-9 * (1.0 + np.maximum(np.max(np.abs(lam_c), axis=1), np.max(np.abs(avg), axis=1))),
        )
    failure = first_failures(x, y, tol, np.isin(modes, ("strong", "log")))

    k = _per_trial_array(k, b, "k")
    lhs = ky_fan_from_eigenvalues(_apply_per_trial(f, lam_c, b), k)
    # f of the present atoms only: a padding atom's spectrum may lie outside f's domain
    fd = np.zeros_like(lam_d)
    fd[present] = _apply_per_trial(f, lam_d[present], b, np.nonzero(present)[0])
    norms = ky_fan_from_eigenvalues(fd, k[..., None])
    linear, geometric = _means(w, norms)
    rhs = np.where(forms == "log", geometric, linear)
    conclusion = lhs <= rhs + 1e-9 * (1.0 + np.abs(lhs) + np.abs(rhs))
    return AverageMajorizationReport(
        premise_failure=failure,
        conclusion_lhs=lhs,
        conclusion_rhs=rhs,
        conclusion_holds=conclusion,
        violated=(failure == 0) & ~conclusion,
    )


def commuting_spectra(rng, count: int, dim: int, low: float, high: float) -> np.ndarray:
    """``count`` descending spectra uniform on [low, high], row by row from one draw: ``(count, dim)``.

    ``sampling.diagonal_in(u, spectra)`` turns them into a commuting tuple.
    """
    return np.sort(rng.uniform(low, high, size=(count, dim)))[:, ::-1]


def constructed_premise_trial(atom_bases, spectra, weights, c_bases, mode):
    """Stacked ``(C, atoms)`` with every trial's premise true by construction.

    Trial ``b`` has atoms diagonal in ``atom_bases[b]`` with spectra
    ``spectra[b]`` (``(B, A, d)``, padded atoms of weight 0 ignored) and
    ``C`` diagonal in ``c_bases[b]`` with the weighted mean of the atom
    spectra (geometric for the log modes; ``mode`` is one or one per trial).
    """
    w = np.asarray(weights, dtype=np.float64)[..., None]
    logm = np.isin(np.broadcast_to(np.asarray(mode), (w.shape[0],)), LOG_MODES)[:, None]
    arith, geo = _means(w, spectra)
    target = np.where(logm, geo, arith)
    return diagonal_in(c_bases, target), diagonal_in(atom_bases[:, None], spectra)


# ---------------------------------------------------------------------------
# Multivariate norm inequality (quadrature verification)
# ---------------------------------------------------------------------------

# complex entries per node-matrix temporary: tuples are processed in blocks of
# at most this many node matrices' entries, so a stack of any size keeps a
# bounded working set
_NODE_BLOCK = 2**12


def _f_range(f, lo: np.ndarray, hi: np.ndarray, samples: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Sampled range of ``|f|`` (one or one per interval) on each [lo, hi], the values the Ky Fan integrands sum."""
    xs = np.geomspace(np.maximum(lo, 1e-300), np.maximum(hi, 1e-300), samples, axis=-1)
    vals = np.abs(_apply_per_trial(f, xs, len(xs), apply=_scalar_function_values))
    finite = np.isfinite(vals)
    if not finite.any(axis=-1).all():
        raise DomainError("scalar function produced no finite values on the spectral interval")
    return np.min(np.where(finite, vals, np.inf), axis=-1), np.max(np.where(finite, vals, -np.inf), axis=-1)


@dataclass(frozen=True)
class QuadratureValue:
    """Quadrature results, one per tuple, with explicit truncation and refinement error terms.

    ``truncation_bound`` bounds the contribution of the beta0 mass outside
    [-T, T]; ``quadrature_error`` is the full-rule against half-rule
    difference.  ``error_bound`` combines the two; the true improper integral
    differs from ``value`` by at most that margin (up to the usual smoothness
    caveats of the refinement estimate).
    """

    value: np.ndarray
    error_bound: np.ndarray
    truncation_bound: np.ndarray
    quadrature_error: np.ndarray


class PowerProductSpectrum:
    """Node singular values of ``prod_i C_i^(1+it)`` for a stack of positive tuples and one rule.

    ``cs`` is ``(B, m, d, d)``: ``B`` tuples of ``m`` positive Hermitian
    matrices, validated as a whole.  One ``eigh`` per matrix gives the
    spectra that the left side (``lhs``) and every node power read.  The
    singular values on the full rule and on the half rule (the refinement
    estimate's ``max(16, node_count // 2)`` nodes) depend only on
    ``(cs, quad)``, so one object serves every ``(f, k)`` of both
    inequality forms, each one value or one per tuple (``f`` a callable or
    a sequence); without ``quad`` only ``lhs`` is available.
    ``interval`` is ``[prod lambda_min(C_i), prod lambda_max(C_i)]`` per
    tuple, which holds every singular value and is where ``|f|`` is sampled
    for the truncation bound.

    With ``C_i = U_i Λ_i U_i^H`` and the links ``W_i = U_i^H U_(i+1)``,
    ``prod_i C_i^(1+it) = U_1 Λ_1^(it) [Λ_1 W_1 Λ_2^(1+it) W_2 ⋯ W_(m-1) Λ_m] Λ_m^(it) U_m^H``.
    The outer factors are unitary, so the singular values are those of the
    bracketed chain, in which only the middle factors ``Λ_2 … Λ_(m-1)``
    carry t (for m = 1 the chain is ``Λ_1``): a tuple with m <= 2 has one
    spectrum for every node, computed once with a node axis of 1 for both rules.
    """

    def __init__(self, cs: np.ndarray, quad: QuadratureSpec | None = None):
        cs = np.asarray(cs, dtype=np.complex128)
        if cs.ndim != 4 or cs.shape[1] == 0:
            raise ArgumentError(f"need a (B, m, d, d) stack of nonempty tuples, got shape {cs.shape}")
        cs = hermitian_part(cs)
        vals, vecs = np.linalg.eigh(cs)
        if np.any(vals <= 0.0):
            raise DomainError("multivariate norm inequality needs positive tensors")
        self.quad = quad
        self.eigenvalues = np.ascontiguousarray(vals[..., ::-1])
        self.bases = np.ascontiguousarray(vecs[..., ::-1])
        self._logs = np.log(self.eigenvalues)
        self.interval = (np.prod(self.eigenvalues[..., -1], axis=1), np.prod(self.eigenvalues[..., 0], axis=1))
        self._rules, sv = [], None
        for node_count in () if quad is None else (quad.node_count, max(16, quad.node_count // 2)):
            t, w = quad.nodes_weights(node_count)
            if sv is None or cs.shape[1] > 2:  # a chain with no middle factor serves every node of both rules
                sv = self._node_singular_values(t)
            self._rules.append((sv, beta0_density(t), w))

    def _node_singular_values(self, ts: np.ndarray) -> np.ndarray:
        """Singular values of ``prod_i C_i^(1 + i t)`` for every tuple and node t: (B, T, d) descending,
        or (B, 1, d) for m <= 2, whose one spectrum holds at every node.

        They are those of the chain ``Λ_1 W_1 Λ_2^(1+it) W_2 ⋯ W_(m-1) Λ_m`` (see the class).  It
        starts as ``Λ_1`` with shape (b, 1, d, d), and each later factor is one matmul by its link
        and one column scaling.  Only a middle factor's scaling has a node axis, so for m <= 2 the
        chain stays (b, 1, d, d), and a block holds as many tuples as its node axis allows.
        """
        b, m, dim = self.eigenvalues.shape
        z = 1.0 + 1j * ts[:, None]
        step = max(1, _NODE_BLOCK // ((ts.size if m > 2 else 1) * dim * dim))
        out = []
        for lo in range(0, b, step):
            vals, logs, bases = (a[lo: lo + step] for a in (self.eigenvalues, self._logs, self.bases))
            links = np.conj(bases[:, :-1].swapaxes(-1, -2)) @ bases[:, 1:]  # (b, m - 1, d, d)
            chain = vals[:, :1, :, None] * np.eye(dim)
            for i in range(1, m):
                # Λ_1^(it) and Λ_m^(it) are unitary outer factors, so the ends scale by Λ alone
                scale = np.exp(z * logs[:, i, None, :]) if i < m - 1 else vals[:, i, None, :]
                chain = (chain @ links[:, i - 1, None]) * scale[:, :, None, :]
            gram = np.conj(chain.swapaxes(-1, -2)) @ chain
            gram = (gram + np.conj(gram.swapaxes(-1, -2))) / 2.0
            eig = np.linalg.eigvalsh(gram)  # ascending
            sv = np.sqrt(np.clip(eig[..., ::-1], 0.0, None))
            out.append(sv)
        return np.concatenate(out)

    def lhs(self, f, k) -> np.ndarray:
        """``|| f(exp(sum_i log C_i)) ||_(k)`` per tuple, from one spectrum of ``sum_i log C_i``."""
        total = np.sum((self.bases * self._logs[..., None, :]) @ np.conj(self.bases).swapaxes(-1, -2), axis=1)
        mu = np.linalg.eigvalsh(total)
        return ky_fan_from_eigenvalues(_apply_per_trial(f, np.exp(mu), len(mu)), _per_trial_array(k, len(mu), "k"))

    def forms(self, f, k) -> tuple[QuadratureValue, QuadratureValue]:
        """The log form ``exp( int log || f(|prod C_i^(1+it)|) ||_(k) beta0(t) dt )`` and the linear form
        ``int || f(|prod C_i^(1+it)|) ||_(k) beta0(t) dt`` on [-T, T], per tuple, from one pass over the rules."""
        if self.quad is None:
            raise ArgumentError("the quadrature forms need a QuadratureSpec")
        k = _per_trial_array(k, len(self.eigenvalues), "k")
        integrals = []
        for sv, density, w in self._rules:  # a node-free (B, 1) norm meets the nodes only in the weighted sum
            norms = ky_fan_from_eigenvalues(_apply_per_trial(f, sv, len(sv)), k[..., None])
            with np.errstate(divide="ignore"):
                integrals.append(np.sum(np.stack([np.log(norms), norms]) * density * w, axis=-1))
        full, half = integrals  # each (2, B): the log form's integral, then the linear form's
        (log_int, integral), (log_err, quad_err) = full, np.abs(full - half) + 1e-12 * (1.0 + np.abs(full))
        f_lo, f_hi = _f_range(f, *self.interval)
        tail = beta0_tail_mass(self.quad.truncation)
        trunc = k * f_hi * tail
        linear = QuadratureValue(value=integral, error_bound=trunc + quad_err, truncation_bound=trunc,
                                 quadrature_error=quad_err)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            low = np.where(f_lo > 0, np.abs(np.log(k * f_lo)), np.inf)
            trunc_log = np.maximum(low, np.abs(np.log(k * f_hi))) * tail
            value = np.exp(log_int)
            finite = np.isfinite(trunc_log)
            log = QuadratureValue(
                value=value,
                error_bound=np.where(finite, value * np.expm1(np.minimum(trunc_log + log_err, 700.0)), np.inf),
                truncation_bound=np.where(finite, value * np.expm1(np.minimum(trunc_log, 700.0)), np.inf),
                quadrature_error=log_err,
            )
        return log, linear


def golden_thompson_lhs(f: Callable, cs: np.ndarray, k) -> np.ndarray:
    """``|| f(exp(sum_i log C_i)) ||_(k)`` for each tuple of the ``(B, m, d, d)`` stack ``cs``."""
    return PowerProductSpectrum(cs).lhs(f, k)


def golden_thompson_rhs_log(f: Callable, cs: np.ndarray, k, quad: QuadratureSpec) -> QuadratureValue:
    """``exp( int log || f(|prod C_i^(1+it)|) ||_(k) beta0(t) dt )`` on [-T, T], per tuple."""
    return PowerProductSpectrum(cs, quad).forms(f, k)[0]


def golden_thompson_rhs_linear(g: Callable, cs: np.ndarray, k, quad: QuadratureSpec) -> QuadratureValue:
    """``int || g(|prod C_i^(1+it)|) ||_(k) beta0(t) dt`` on [-T, T], per tuple."""
    return PowerProductSpectrum(cs, quad).forms(g, k)[1]


def multivariate_violations(cs: np.ndarray, k, f, quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Log- and linear-form violations of each tuple of ``cs``: two (B,) bool arrays.

    ``f`` and ``k`` are one value or one per tuple, read on one power-product
    spectrum.  A form holds if ``lhs <= value + error_bound + 1e-8 (1 + |lhs|)``; a NaN fails.
    """
    spectrum = PowerProductSpectrum(cs, quad)
    lhs = spectrum.lhs(f, k)
    slack = 1e-8 * (1.0 + np.abs(lhs))
    rlog, rlin = spectrum.forms(f, k)
    return ~(lhs <= rlog.value + rlog.error_bound + slack), ~(lhs <= rlin.value + rlin.error_bound + slack)


def commuting_equality_excess(cs: np.ndarray, k, f, quad: QuadratureSpec) -> np.ndarray:
    """Per tuple, ``|lhs - rhs_log| - (error_bound + 1e-7 (1 + |lhs|))`` (NaN propagates): (B,).

    ``f`` and ``k`` are one value or one per tuple.  A commuting tuple
    attains equality, so a positive excess is a failure.
    """
    spectrum = PowerProductSpectrum(cs, quad)
    lhs = spectrum.lhs(f, k)
    rlog = spectrum.forms(f, k)[0]
    return np.abs(lhs - rlog.value) - (rlog.error_bound + 1e-7 * (1.0 + np.abs(lhs)))


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
