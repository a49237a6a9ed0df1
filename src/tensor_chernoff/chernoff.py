"""Expander-walk tail machinery: contraction bounds, exact transfer-operator
expectations, the main tail bound with its minimization over t, and Monte
Carlo tail estimates.

The transfer operator ``F (A kron I)`` acts on ``n`` blocks of ``d x d``
matrices, one per vertex, and is never formed.  One application is a gather
over the graph's edge slots (the slot mean) followed by the forward vertex map
``X_u <- E_u X_u E_u^H``, ``E_u = exp(t g(u) (a + i b) / 2)``; its adjoint map
is ``Y_u <- E_u^H Y_u E_u``.  With row-major vec, ``M_u = E_u kron conj(E_u)``
satisfies ``M vec X = vec(E X E^H)``.  Conjugating the second factor makes the
vec-trace identity exact for complex Hermitian ``g`` (for real symmetric ``g``
it reduces to the usual ``E_v kron exp(t g (a - i b) / 2)`` form), and it
changes none of the norm bounds since ``||conj(g)|| = ||g||``.

All of these maps (the vertex maps, their adjoints, the slot mean and the
projection ``P'`` off the vertex-constant stacks) take Hermitian stacks to
Hermitian stacks, so the operator runs on real ``(n, d^2)`` coordinates in a
Frobenius-orthonormal Hermitian basis (``_pack``): the diagonal, then ``sqrt 2``
times the real and the imaginary parts of the lower entries.  Complex stacks
are the complexification of that real space and the operator is complex
linear, so in the per-vertex unitary basis ``Q`` of those coordinates its
matrix is real: every operator norm, and the top eigenvalue of ``P' T^H P' T
P'``, is the same on the real coordinates, which carry a complex stack's
information in half its reals.

Up to ``d = 4`` the vertex maps are one real ``(n, d^2, d^2)`` stack ``R_u =
Q^H M_u Q``, applied as a batched matvec (``R_u^T`` for the adjoint).  The
``E_u = V_u L_u V_u^H`` come from one batched ``eigh`` of the vertex stack,
computed once per (immutable) assignment, so ``R_u = O_u D_u O_u^T``: the frames
``O_u = Q^H (V_u kron conj(V_u)) Q`` are built once per assignment from the
eigenvectors' Kronecker stack, and ``D_u`` is the block-diagonal map ``X -> L_u X
L_u^H``.  A Kronecker stack that does not keep Hermitian stacks Hermitian has a
complex ``Q^H M Q`` and raises ``NumericalError`` there (``_coordinate_stack``).
Above ``d = 4``, ``R`` has ``n d^4`` entries and the maps keep the two factored
products with ``E`` and ``E^H`` on the unpacked stack, packed again.

The exact expectation powers the operator against the coordinates of ``X_v = I / sqrt(n)``.

The Gaussian domination constant of ``beta0`` is closed-form: its ratio to ``N(0, sigma^2)`` peaks
at ``tau = 0`` or at the window's end (proof at ``_domination_ratio``); a grid audits the winner.

The contraction certificate computes the operator norms of the four parts
of ``T`` on the split into vertex-constant stacks (the parallel part) and
their complement.  Parts 1-3 have rank at most ``d^2``: each comes from a real
``d^2 x d^2`` Gram matrix of ``R`` (its slot mean runs over vertex chunks).
Part 4 is the top Ritz value of one Lanczos run on ``P' T^T P' T P'`` from a
real probe, each step one forward and one adjoint application; up to ``d = 4``
its vertex maps reuse the certificate's ``R``.

Monte Carlo tail estimates draw walk ``i`` from the Philox words at
counters ``(i, b, 0, 0)`` under key ``(seed, DOMAIN_WALK)``, so estimates are
reproducible for a fixed ``(seed, num_walks)`` no matter how the walks are
chunked.  ``tail_table`` holds the one rule, shared by the runner and the
acceptance gate, that compares them with the bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DomainError,
    NumericalError,
    PreconditionError,
    ShapeError,
)
from .graphs import RegularGraph, _slot_mean, load_edge_list, sample_walks_array, save_edge_list
from .inequalities import beta0_density
from .io import load_tensor, read_json_object, save_tensor
from .norms import LANCZOS_STEPS, ky_fan_from_eigenvalues, lanczos_top
from .reporting import TailRow
from .rng import DOMAIN_PROBE, DOMAIN_TENSORS, stream
from .tensors import Tensor, TensorShape, as_hermitian, hermitian_part

DEFAULT_TAIL_CHUNK = 8192


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

class VertexTensorAssignment:
    """One Hermitian tensor of ``shape`` per vertex, held as a read-only ``(n, d, d)`` stack.

    The stack is validated once by ``HermitianTensor``'s rule (``tensors.hermitian_part``) and
    decomposed by one batched ``eigh``, which gives the radius and serves every transfer operator.
    """

    __slots__ = ("graph", "shape", "radius", "_stack", "_eigh", "_frames")

    def __init__(self, graph: RegularGraph, shape: TensorShape, stack: np.ndarray):
        shape.require_square("VertexTensorAssignment")
        want = (graph.n, shape.unfold_rows, shape.unfold_rows)
        if np.shape(stack) != want:
            raise ArgumentError(f"vertex stack must have shape {want}, got {np.shape(stack)}")
        stack = hermitian_part(stack)
        vals, vecs = np.linalg.eigh(stack)
        for arr in (stack, vals, vecs):
            arr.setflags(write=False)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "radius", float(np.max(np.abs(vals))))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_eigh", (vals, vecs))
        object.__setattr__(self, "_frames", None)

    def __setattr__(self, name, value):
        raise AttributeError("VertexTensorAssignment is immutable")

    @property
    def dim(self) -> int:
        return self.shape.unfold_rows

    def stack(self) -> np.ndarray:
        """Read-only ``(n, d, d)`` stack of the vertex unfoldings."""
        return self._stack

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenvalues ``(n, d)`` and eigenvectors ``(n, d, d)`` of the stack."""
        return self._eigh

    def frames(self) -> np.ndarray:
        """Read-only real ``(n, d^2, d^2)`` stack of ``O_u = Q^H (V_u kron conj(V_u)) Q``, built on first use.

        ``O_u`` is the eigenbasis congruence ``X -> V_u X V_u^H`` in Hermitian coordinates (``_coordinate_stack`` of
        the eigenvectors' ``_kronecker_stack``): orthogonal, and shared by the transfer operator at every ``(t, a, b)``.
        """
        if self._frames is None:
            o = _coordinate_stack(_kronecker_stack(self._eigh[1]))
            o.setflags(write=False)
            object.__setattr__(self, "_frames", o)
        return self._frames


def random_assignment(
    graph: RegularGraph, shape: TensorShape, radius: float, seed: int
) -> VertexTensorAssignment:
    """Random Hermitian vertex tensors, each with spectral norm exactly ``radius``.

    One ``standard_normal((2, n, d, d))`` draw from ``stream(seed, DOMAIN_TENSORS)`` holds every
    vertex's real parts, then every imaginary part (``rng.TENSOR_STREAM``).  The Hermitian part,
    the top eigenvalue and the rescale run once on the stack; an all-zero vertex keeps scale 1.
    """
    shape.require_square("random_assignment")
    d = shape.unfold_rows
    re, im = stream(seed, DOMAIN_TENSORS).standard_normal((2, graph.n, d, d))
    x = (re + 1j * im) / np.sqrt(2.0)
    h = (x + x.conj().swapaxes(1, 2)) / 2.0
    top = np.max(np.abs(np.linalg.eigvalsh(h)), axis=1)
    h *= np.divide(radius, top, out=np.ones(graph.n), where=top != 0.0)[:, None, None]
    return VertexTensorAssignment(graph, shape, h)


@dataclass(frozen=True)
class PolynomialSpec:
    """Map ``x -> (a_0 + a_1 x + ... + a_n x^n)^s`` with nonnegative coefficients."""

    coefficients: tuple[float, ...]
    power: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ArgumentError("polynomial needs at least one coefficient")
        if any(c < 0 for c in coeffs):
            raise ArgumentError(f"coefficients must be nonnegative, got {coeffs}")
        if self.power < 1:
            raise ArgumentError(f"power must be >= 1, got {self.power}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "power", float(self.power))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def identity(cls) -> "PolynomialSpec":
        return cls((0.0, 1.0), 1.0)

    @property
    def is_identity(self) -> bool:
        return self.coefficients == (0.0, 1.0) and self.power == 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        base = self.coefficients[-1] + x * 0  # numpy's polyval step for step, without importing numpy.polynomial
        for c in self.coefficients[-2::-1]:
            base = c + base * x
        if self.power % 1.0 and np.any(base < 0):
            raise DomainError("non-integer power of a negative polynomial value")
        return base ** self.power


@dataclass(frozen=True)
class DominationFit:
    """Constants with ``beta0(tau) <= C exp(-tau^2 / 2 sigma^2) / (sigma sqrt(2 pi))``
    on ``[-window, window]``."""

    c: float
    sigma: float
    window: float
    verified: bool


@dataclass(frozen=True)
class ChernoffParams:
    """The instance every tail-bound formula reads; the thresholds are arguments of the formulas.

    ``lam_bar`` is one minus the spectral expansion.  Bipartite graphs reach
    ``lam_bar = 0`` under the absolute-value expansion definition; the bound
    formulas remain well defined there, so 0 is allowed.
    """

    kappa: int
    k: int
    lam_bar: float
    dim: int
    radius: float

    def __post_init__(self):
        if self.kappa < 1:
            raise ArgumentError(f"kappa must be >= 1, got {self.kappa}")
        if not 1 <= self.k <= self.dim:
            raise ArgumentError(f"k must be in [1, {self.dim}], got {self.k}")
        if not 0.0 <= self.lam_bar <= 1.0:
            raise ArgumentError(f"lam_bar must be in [0, 1], got {self.lam_bar}")
        if self.radius <= 0:
            raise ArgumentError(f"radius must be positive, got {self.radius}")


# ---------------------------------------------------------------------------
# Contraction machinery (transfer operator on (n, d^2) Hermitian coordinates)
# ---------------------------------------------------------------------------

def gamma_bounds(t: float, r: float, a: float, b: float, lam: float) -> tuple[float, float, float, float]:
    """Contraction factors of the transfer operator on the parallel/orthogonal split."""
    e = math.exp(t * r * math.hypot(a, b))
    return e, lam * (e - 1.0), e - 1.0, lam * e


def _vertex_exponentials(assignment: VertexTensorAssignment, t: float, a: float, b: float) -> np.ndarray:
    """(n, d, d) stack of ``E_v = exp(t g(v) (a + i b) / 2)``, from the assignment's shared ``eigh``."""
    vals, vecs = assignment.eigh()
    return (vecs * np.exp(t * (a + 1j * b) / 2.0 * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)


def _kronecker_stack(es: np.ndarray) -> np.ndarray:
    """``(n, d^2, d^2)`` stack of ``M_u = E_u kron conj(E_u)``, so ``M_u vec X = vec(E_u X E_u^H)``."""
    n, d = es.shape[:2]
    return (es[:, :, None, :, None] * es.conj()[:, None, :, None, :]).reshape(n, d * d, d * d)


def _pack(x: np.ndarray) -> np.ndarray:
    """Hermitian coordinates ``(n, d^2)`` of an ``(n, d, d)`` Hermitian stack: the diagonal, then ``sqrt 2`` times the
    real and the imaginary parts of the lower entries (``_lower_triangle_reals``, scaled)."""
    table = _lower_triangle_reals(x)
    table[:, x.shape[-1]:] *= math.sqrt(2.0)
    return table


def _unpack(c: np.ndarray) -> np.ndarray:
    """The ``(n, d, d)`` Hermitian stack of coordinates ``(n, d^2)``, the inverse of ``_pack``."""
    n, d = c.shape[0], math.isqrt(c.shape[1])
    i, j = np.tril_indices(d, -1)
    x = np.zeros((n, d, d), dtype=np.complex128)
    x[:, np.arange(d), np.arange(d)] = c[:, :d]
    lower = (c[:, d:d + i.size] + 1j * c[:, d + i.size:]) * math.sqrt(0.5)
    x[:, i, j], x[:, j, i] = lower, lower.conj()
    return x


_COORDINATE_BLOCK_BYTES = 1 << 18  # largest complex block of _coordinate_stack's products


def _coordinate_stack(m: np.ndarray) -> np.ndarray:
    """The real ``(n, d^2, d^2)`` stack ``R_u = Q^H M_u Q`` of maps ``M_u`` on row-major vecs, in Hermitian coordinates.

    The columns of the unitary ``Q`` are the row-major vecs of the coordinates' basis matrices (``_unpack`` of the
    unit vectors).  ``M_u`` maps Hermitian matrices to Hermitian matrices exactly when ``Q^H M_u Q`` is real, so
    this raises ``NumericalError`` where its imaginary part exceeds 1e-9 of its largest real entry (NaN passes on).
    The products run one block of at most ``_COORDINATE_BLOCK_BYTES`` at a time, so none is as large as ``M``.
    """
    n, d2 = m.shape[:2]
    q = _unpack(np.eye(d2)).reshape(d2, d2).T
    block = max(1, _COORDINATE_BLOCK_BYTES // m[0].nbytes)
    r, residue = np.empty((n, d2, d2)), 0.0
    for lo in range(0, n, block):
        y = q.conj().T @ m[lo:lo + block] @ q
        r[lo:lo + block] = y.real
        residue = np.maximum(residue, np.max(np.abs(y.imag)))
    if residue > 1e-9 * np.max(np.abs(r)):
        raise NumericalError(f"vertex map does not preserve Hermitian stacks: its coordinate stack has imaginary "
                             f"part {residue:.3e}")
    return r


def _vertex_coordinates(assignment: VertexTensorAssignment, t: float, a: float, b: float) -> np.ndarray:
    """The real ``(n, d^2, d^2)`` stack ``R_u = Q^H (E_u kron conj(E_u)) Q`` of the forward vertex maps in Hermitian
    coordinates.

    ``E_u = V_u L_u V_u^H`` with ``L_u = diag(lambda)``, ``lambda_k = exp(t mu_k (a + i b) / 2)``, so ``R_u = O_u D_u
    O_u^T`` with the assignment's frames ``O_u`` and ``D_u`` the coordinates of ``X -> L X L^H``: ``|lambda_k|^2``
    on each diagonal coordinate and, on the real and imaginary coordinates of each lower entry ``(k, l)``, the
    rotation-scaling by ``z = lambda_k conj(lambda_l)``.  ``R`` is two batched products, the second written over
    ``D``.
    """
    vals, _ = assignment.eigh()
    o = assignment.frames()
    n, d = vals.shape
    lam = np.exp(t * (a + 1j * b) / 2.0 * vals)
    i, j = np.tril_indices(d, -1)
    z = lam[:, i] * lam[:, j].conj()
    re = d + np.arange(i.size)  # the real coordinates of the lower entries, then the imaginary ones
    im = re + i.size
    rot = np.zeros((n, d * d, d * d))
    rot[:, np.arange(d), np.arange(d)] = np.exp(t * a * vals)  # |lambda_k|^2
    rot[:, re, re] = rot[:, im, im] = z.real
    rot[:, re, im], rot[:, im, re] = -z.imag, z.imag
    return np.matmul(o @ rot, o.swapaxes(1, 2), out=rot)


_KRONECKER_MAX_DIM = 4  # largest d whose vertex maps use the (n, d^2, d^2) coordinate stack R


def _vertex_maps(
    assignment: VertexTensorAssignment, t: float, a: float, b: float, r: np.ndarray | None = None
) -> tuple[Callable, Callable]:
    """The forward map ``X_u <- E_u X_u E_u^H`` and its adjoint ``Y_u <- E_u^H Y_u E_u`` on ``(n, d^2)`` Hermitian
    coordinates (``_pack``), both from one array.

    Both maps take Hermitian stacks to Hermitian stacks, and the coordinates are orthonormal for the real inner
    product ``Re tr(X^H Y)``, so the adjoint is the transpose.  Up to ``_KRONECKER_MAX_DIM`` that array is the
    coordinate stack ``R`` (``_vertex_coordinates`` unless given): ``R_u c`` forward and ``R_u^T c`` as the adjoint.
    Above it ``R`` has too many entries to beat the two factored products with ``E``, which run on the unpacked
    stack and are packed again.
    """
    if assignment.dim > _KRONECKER_MAX_DIM:
        es = _vertex_exponentials(assignment, t, a, b)
        esh = np.ascontiguousarray(es.conj().swapaxes(1, 2))
        return (lambda c: _pack(es @ _unpack(c) @ esh)), (lambda c: _pack(esh @ _unpack(c) @ es))
    r = _vertex_coordinates(assignment, t, a, b) if r is None else r
    return (lambda c: (r @ c[:, :, None])[:, :, 0]), (lambda c: (c[:, None, :] @ r)[:, 0, :])


def _transfer_apply(forward: Callable, slots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``F (A kron I)`` on ``(n, d^2)`` Hermitian coordinates: the slot mean, then the forward vertex map."""
    return forward(_slot_mean(slots, x))


CONTRACTION_SLACK = 1e-9  # how far a part's norm may exceed its gamma
CERTIFICATE = "gram-lanczos/3"  # how the contraction norms are computed; stamped in reports
_GRAM_CHUNKS = 8  # vertex chunks of the orth->par Gram's slot mean


def _gram_norm(gram: np.ndarray) -> float:
    """Square root of the top eigenvalue of a symmetric PSD Gram matrix; NaN unless it is finite."""
    if not np.isfinite(gram).all():
        return math.nan
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


@dataclass(frozen=True)
class ContractionReport:
    """Operator norm of each part of the contraction lemma, against its gamma; part 4's Lanczos
    run took ``steps`` steps and ends at Ritz residual ``residual``."""

    gammas: tuple[float, float, float, float]
    norms: tuple[float, float, float, float]
    residual: float
    steps: int

    @property
    def worst_excess(self) -> float:
        """Largest ``norm - gamma`` over the four parts; NaN if any norm is NaN."""
        return float(np.max(np.subtract(self.norms, self.gammas)))

    @property
    def holds(self) -> bool:
        return self.worst_excess <= CONTRACTION_SLACK


def contraction_certificate(
    assignment: VertexTensorAssignment, t: float, a: float, b: float, lam: float, seed: int = 0
) -> ContractionReport:
    """Operator norms of ``T = F (A kron I)``'s parts 1 par->par, 2 orth->par, 3 par->orth, 4 orth->orth.

    ``lam`` is the spectral expansion of ``assignment.graph``, which callers already hold.  ``T`` runs on the
    real ``(n, d^2)`` Hermitian coordinates (``_vertex_maps``): ``T`` is complex linear and maps Hermitian stacks to
    Hermitian stacks, so it is the complexification of its restriction there, whose matrix in the orthonormal
    coordinates is the real ``T`` in the unitary basis ``Q`` per vertex.  A unitary change of basis keeps every
    part's norm, ``P'`` (the projection off the vertex-constant stacks) commutes with it, and a real matrix has
    the same norm on real and complex vectors, so each norm equals that of the complex operator.  With ``R_u =
    Q^H M_u Q`` and ``Z = (A / degree kron I)(R - Rbar)``, parts 1-3 are the roots of the top eigenvalues of
    ``Rbar^T Rbar``, ``sum_v Z_v Z_v^T / n`` and ``sum_u (R_u - Rbar)^T (R_u - Rbar) / n``.  Part 4 is Lanczos on
    ``P' T^T P' T P'`` from a real ``(seed, DOMAIN_PROBE)`` start, exact once the steps reach ``(n - 1) d^2``.
    """
    gammas = gamma_bounds(t, assignment.radius, a, b, lam)
    slots = assignment.graph.edge_slots()
    n, d2 = assignment.graph.n, assignment.dim ** 2
    r = _vertex_coordinates(assignment, t, a, b)
    r_bar = r.mean(axis=0)
    orth_par, par_orth = np.zeros((2, d2, d2))
    for rows in np.array_split(np.arange(n), min(_GRAM_CHUNKS, n)):  # no empty chunk when n < 8
        dev = r[rows]  # a copy: R keeps its entries for the vertex maps
        dev -= r_bar
        z = _slot_mean(slots[rows], r)
        z -= r_bar
        dev, z = dev.reshape(-1, d2), z.transpose(1, 0, 2).reshape(d2, -1)
        par_orth += dev.T @ dev
        orth_par += z @ z.T
    forward, adjoint = _vertex_maps(assignment, t, a, b, r)

    def normal(x):  # P' T^T P' T on P''s range; a vertex sum divided by n is numpy's mean
        y = _transfer_apply(forward, slots, x)
        y -= np.add.reduce(y, 0) / n
        y = _slot_mean(slots, adjoint(y))
        y -= np.add.reduce(y, 0) / n
        return y

    start = stream(seed, DOMAIN_PROBE).standard_normal((n, d2))
    start -= start.mean(axis=0)
    value, residual, steps = lanczos_top(normal, start, min(LANCZOS_STEPS, (n - 1) * d2))
    norms = (_gram_norm(r_bar.T @ r_bar), _gram_norm(orth_par / n), _gram_norm(par_orth / n), math.sqrt(value))
    return ContractionReport(gammas=gammas, norms=norms, residual=residual, steps=steps)


def transfer_expectation(
    assignment: VertexTensorAssignment, t: float, a: float, b: float, kappa: int
) -> float:
    """Exact ``E[Tr(prod exp(t g(v_i)(a+ib)/2) prod exp(t g(v_i)(a-ib)/2))]`` under the stationary walk, via
    ``kappa`` applications of the transfer operator to the Hermitian coordinates of ``X_v = I / sqrt(n)``."""
    if kappa < 1:
        raise ArgumentError(f"kappa must be >= 1, got {kappa}")
    forward, _ = _vertex_maps(assignment, t, a, b)
    slots = assignment.graph.edge_slots()
    n, d = assignment.graph.n, assignment.dim
    x0 = np.zeros((n, d * d))
    x0[:, :d] = 1.0 / math.sqrt(n)
    w = x0
    for _ in range(kappa):
        w = _transfer_apply(forward, slots, w)
    return float(np.vdot(x0, w))


def _exp_or_inf(x: float) -> float:
    """``math.exp(x)``, or ``inf`` where it overflows: a bound that large is vacuous, not an error."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def expectation_bound(
    params: ChernoffParams, t: float, a: float, b: float, lam: float
) -> float:
    """Displayed expectation bound (``inf`` past the float range).  Raises ``PreconditionError`` unless the
    lemma's hypotheses ``s < 1`` and ``lam (2 e^s - 1) <= 1`` hold at ``s = t r sqrt(a^2+b^2)``."""
    s = t * params.radius * math.hypot(a, b)
    if not s < 1.0:
        raise PreconditionError(f"need t * r * sqrt(a^2+b^2) < 1, got {s}")
    growth = lam * (2.0 * math.exp(s) - 1.0)
    if not growth <= 1.0:
        raise PreconditionError(f"need lam (2 exp(t r sqrt(a^2+b^2)) - 1) <= 1, got {growth}")
    return params.dim * _exp_or_inf(params.kappa * (2.0 * s + 8.0 / (1.0 - lam) + 16.0 * s / (1.0 - lam)))


def expectation_sandwich(
    assignment: VertexTensorAssignment, kappa: int, lam: float, points: Sequence[tuple[float, float, float]]
) -> tuple[int, float]:
    """Exact transfer expectation against ``expectation_bound`` at each ``(t, a, b)`` the
    lemma admits: the count of those and the worst ``exact - bound`` (-inf if none; NaN propagates)."""
    params = ChernoffParams(kappa=kappa, k=1, lam_bar=1.0 - lam, dim=assignment.dim, radius=assignment.radius)
    gaps = []
    for t, a, b in points:
        try:
            bound = expectation_bound(params, t, a, b, lam)
        except PreconditionError:  # outside the lemma's hypotheses
            continue
        gaps.append(transfer_expectation(assignment, t, a, b, kappa) - bound)
    return len(gaps), float(np.max(gaps, initial=-math.inf))


# ---------------------------------------------------------------------------
# Gaussian domination of beta0
# ---------------------------------------------------------------------------

def _domination_ratio(tau, sigma):
    """``r(tau) = beta0(tau) sigma sqrt(2 pi) exp(tau^2 / 2 sigma^2)``, broadcast over ``tau`` and ``sigma``.

    ``beta0 <= C N(0, sigma^2)`` on ``[-W, W]`` iff ``C >= r`` there.  With ``beta0 = pi / (4 cosh^2(pi tau / 2))``,
    ``d/dtau log r = g(tau) = tau / sigma^2 - pi tanh(pi tau / 2)``: ``g(0) = 0`` and ``g' = 1 / sigma^2 - (pi^2 / 2)
    sech^2(pi tau / 2)`` increases on ``tau >= 0``, so g is convex there and r falls then rises on ``[0, W]`` (or only
    rises, when ``sigma^2 <= 2 / pi^2``).  As r is even, ``sup_[-W, W] r = max(r(0), r(W))`` for every sigma.
    Past ``tau`` of about 226 beta0 underflows to 0 and the Gaussian factor may overflow.  Where the direct product
    is not finite and positive, r is ``exp(log(pi/4) - 2 log cosh(pi tau/2) + log(sigma sqrt(2pi)) + tau^2/2sigma^2)``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = beta0_density(tau) * sigma * math.sqrt(2.0 * math.pi) * np.exp(tau**2 / (2.0 * sigma**2))
        x = math.pi * tau / 2.0  # log(pi / 4) - 2 log cosh x = log(pi) - 2 log(e^x + e^-x), stable at any x
        log_r = np.log(math.pi * sigma * math.sqrt(2.0 * math.pi)) - 2.0 * np.logaddexp(x, -x) + tau**2 / (2 * sigma**2)
        return np.where(np.isfinite(r) & (r > 0.0), r, np.exp(log_r))


def fit_gaussian_domination(window: float, sigma_grid: Sequence[float]) -> DominationFit:
    """Smallest C over the sigma grid dominating beta0 on ``[-window, window]``.

    Each sigma's C is ``max(r(0), r(window))``; the first smallest finite C wins, audited on 10,000 points.
    """
    if window <= 0:
        raise ArgumentError(f"window must be positive, got {window}")
    if bad := [sigma for sigma in sigma_grid if sigma <= 0]:
        raise ArgumentError(f"sigma values must be positive, got {bad[0]}")
    sigmas = np.asarray(sigma_grid, dtype=np.float64)
    cs = _domination_ratio(np.array([[0.0], [window]]), sigmas).max(axis=0)
    if np.all(cs == math.inf):  # r(window) overflows even in log space: no C at any sigma
        raise ArgumentError(f"no sigma in sigma_grid {list(sigma_grid)} gives a finite domination constant on window "
                            f"{window:g}; use larger sigmas or a narrower window")
    i = int(np.argmin(cs))
    best_c, best_sigma = float(cs[i]) * (1.0 + 1e-9), float(sigmas[i])  # cushion: strict at the argmax
    taus = np.linspace(-window, window, 10000)
    # log C in the exponent: a huge C times an underflowed Gaussian factor would read 0
    gauss = np.exp(math.log(best_c) - taus**2 / (2.0 * best_sigma**2)) / (best_sigma * math.sqrt(2.0 * math.pi))
    with np.errstate(over="ignore"):
        verified = bool(np.all(beta0_density(taus) <= gauss))
    return DominationFit(c=best_c, sigma=best_sigma, window=float(window), verified=verified)


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundResult:
    """Evaluated tail bound with its minimizer; ``vacuous`` marks values above 1 (no information)."""

    value: float
    t_opt: float
    vacuous: bool


def _theorem_objective(params: ChernoffParams, poly: PolynomialSpec, fit: DominationFit, thetas: np.ndarray):
    """The bound of ``params`` at each threshold of ``thetas`` as a function of ``t``, which
    broadcasts against ``thetas`` on its last axis, and the vertex ``(theta - a_l) / (2 b_l)`` of
    each present term's quadratic exponent, one per threshold."""
    n_deg = poly.degree
    s = poly.power
    kb = params.lam_bar
    pref = fit.c * (params.k + math.sqrt((params.dim - params.k) / params.k))
    coeff = (n_deg + 1) ** (s - 1.0)
    a_l = [2.0 * (params.kappa + 8.0 * kb) * l * s * params.radius for l in range(n_deg + 1)]
    b_l = [2.0 * (fit.sigma * (params.kappa + 8.0 * kb) * l * s * params.radius) ** 2 for l in range(n_deg + 1)]
    base = 8.0 * params.kappa * kb

    terms = [l for l in range(1, n_deg + 1) if poly.coefficients[l] != 0.0]
    slopes = [a_l[l] - thetas for l in terms]
    constant, neg_thetas = poly.coefficients[0] * params.k, -thetas

    def objective(t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            # e^{-theta t} is folded into every exponent so huge theta cannot
            # produce 0 * inf
            total = np.zeros_like(t)
            for l, slope in zip(terms, slopes):
                total = total + poly.coefficients[l] * np.exp(base + slope * t + b_l[l] * t**2)
            return coeff * (constant * np.exp(neg_thetas * t) + pref * total)

    return objective, [(thetas - a_l[l]) / (2.0 * b_l[l]) for l in terms]


def _golden_section(fn: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minimization of ``fn`` on each lane's ``[a, b]``, every lane in lockstep.

    ``fn`` maps one ``t`` per lane to one value per lane, and each step evaluates it once.  A lane
    stops when its bracket is down to 1e-8 relative width and is frozen from then on, so it ends
    with the bracket it would reach alone.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    state = np.array([a, b, c, d, fn(c), fn(d)])  # (a, b, c, d, fc, fd), one column per lane
    live = (b - a) > 1e-8 * np.maximum(a, 1e-12)
    while live.any():
        a, b, c, d, fc, fd = state
        keep_left = fc <= fd  # the minimum lies in [a, d], else in [c, b]
        t = np.where(keep_left, d - phi * (d - a), c + phi * (b - c))  # the new c of [a, d], the new d of [c, b]
        ft = fn(t)
        state = np.where(live, np.where(keep_left, [a, d, t, c, ft, fc], [c, b, d, t, fd, ft]), state)
        live &= (state[1] - state[0]) > 1e-8 * np.maximum(state[0], 1e-12)
    return state[0], state[1]


def theorem_bound(params: ChernoffParams, thetas: Sequence[float], poly: PolynomialSpec,
                  fit: DominationFit) -> list[BoundResult]:
    """Minimize the displayed tail-bound expression over ``t > 0`` at each threshold of ``thetas``.

    Each threshold takes its own coarse log-spaced grid (one column of one 2-D grid), then
    golden-section refinement to 1e-8 relative, every threshold in lockstep, so each result is
    the one its threshold gets alone.
    """
    if bad := [theta for theta in thetas if theta <= 0]:
        raise ArgumentError(f"theta must be positive, got {bad[0]}")
    if not fit.verified:
        raise ArgumentError("domination fit must be verified")
    thetas = np.array(thetas, dtype=np.float64)
    objective, vertices = _theorem_objective(params, poly, fit, thetas)
    hi = np.maximum.reduce([np.ones_like(thetas)] + [np.where(v > 0, 4.0 * v, 1.0) for v in vertices])

    grid = np.geomspace(1e-8, hi, 200)  # (200, thresholds)
    i = np.argmin(objective(grid), axis=0)
    lanes = np.arange(thetas.size)
    left = grid[np.maximum(i - 1, 0), lanes]
    right = grid[np.minimum(i + 1, grid.shape[0] - 1), lanes]

    a_t, b_t = _golden_section(objective, left, right)
    t_opt = (a_t + b_t) / 2.0
    values = objective(t_opt)
    return [BoundResult(value=float(v), t_opt=float(t), vacuous=bool(v > 1.0)) for v, t in zip(values, t_opt)]


def corollary_bound(params: ChernoffParams, theta: float, fit: DominationFit) -> BoundResult:
    """Closed-form bound for the identity map at threshold ``theta``, at the exact quadratic vertex.

    Substitutes ``t = (theta - 2 (kappa + 8 lam_bar) r) / (4 sigma^2 r^2
    (kappa + 8 lam_bar)^2)`` into the one-term objective, keeping the
    ``kappa + 8 lam_bar`` factors the substitution produces, so this agrees
    with ``theorem_bound`` for the identity polynomial.
    """
    if theta <= 0:
        raise ArgumentError(f"theta must be positive, got {theta}")
    if not fit.verified:
        raise ArgumentError("domination fit must be verified")
    kb = params.kappa + 8.0 * params.lam_bar
    r = params.radius
    sigma = fit.sigma
    t_opt = (theta - 2.0 * kb * r) / (4.0 * sigma**2 * r**2 * kb**2)
    if t_opt <= 0:
        raise PreconditionError(
            f"closed-form t = {t_opt:.3e} is not positive: theta below the vacuous threshold"
        )
    exponent = (
        8.0 * params.kappa * params.lam_bar
        - theta**2 / (8.0 * sigma**2 * r**2 * kb**2)
        + theta / (2.0 * sigma**2 * r * kb)
        - 1.0 / (2.0 * sigma**2)
    )
    value = fit.c * (params.k + math.sqrt((params.dim - params.k) / params.k)) * _exp_or_inf(exponent)
    return BoundResult(value=value, t_opt=float(t_opt), vacuous=value > 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo tail estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    theta: float
    p_hat: float
    stderr: float
    assumption3_violations: int


def assumption3_margins(poly: PolynomialSpec, eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """Per-row minimum of ``f(exp(t mu)) - exp(t f(mu))`` over the spectrum.

    Both sides are spectral functions of the same tensor, so they commute and
    positive semidefiniteness of the difference reduces exactly to these
    scalar margins.
    """
    with np.errstate(over="ignore"):
        lhs = poly(np.exp(t * eigenvalues))
        rhs = np.exp(t * poly(eigenvalues))
        return np.min(lhs - rhs, axis=-1)


def _lower_triangle_reals(stack: np.ndarray) -> np.ndarray:
    """``(n, d^2)`` float64 table of a ``(n, d, d)`` Hermitian stack's lower triangle.

    Each row holds the real diagonal, then the real parts of the entries below it, then their
    imaginary parts, in ``np.tril_indices(d, -1)`` order: every real that ``eigvalsh`` and the 2x2
    closed form read, and no other.
    """
    i, j = np.tril_indices(stack.shape[-1], -1)
    lower = stack[:, i, j]
    return np.concatenate([np.diagonal(stack, axis1=1, axis2=2).real, lower.real, lower.imag], axis=1)


def _walk_sums(table: np.ndarray, walks: np.ndarray) -> np.ndarray:
    """The ``(count, d^2)`` summed ``_lower_triangle_reals`` rows along ``(count, kappa)`` walks.

    Each step adds one ``np.take`` of table rows, in step order, so no ``(count, kappa, d^2)``
    gather is held.  Each sum has the bits of the same entry of the sum of the vertex matrices.
    """
    steps = walks.T
    total = np.take(table, steps[0], axis=0)
    for row in steps[1:]:
        total += np.take(table, row, axis=0)
    return total


def _walk_sum_eigvalsh(sums: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrices of ``(count, d^2)`` lower-triangle reals.

    A 2x2 sum takes the closed form ``mid -/+ hypot((a - c) / 2, |b|)`` straight from the reals,
    with ``|b|`` as ``np.abs`` of the complex lower entry, whose bits ``hypot`` of its parts does
    not always give; ``hypot`` neither overflows nor underflows on large or small entries.  Any
    other ``d`` goes to LAPACK's ``eigvalsh``, which reads only the real diagonal and the lower
    triangle: the reals are written there in a zero complex stack and the rest is left as is.
    """
    if sums.shape[1] == 4:
        a, c = sums[:, 0], sums[:, 1]
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), np.abs(sums[:, 2:].view(np.complex128)[:, 0]))
        return np.stack([mid - rad, mid + rad], axis=-1)
    count, d = len(sums), math.isqrt(sums.shape[1])
    i, j = np.tril_indices(d, -1)
    lower = 2 * (d * i + j)  # float64 offsets of the lower entries' real parts in a flat (d, d) complex matrix
    parts = np.zeros((count, 2 * d * d))
    parts[:, np.concatenate([2 * (d + 1) * np.arange(d), lower, lower + 1])] = sums
    return np.linalg.eigvalsh(parts.view(np.complex128).reshape(count, d, d))


def empirical_tail_sweep(assignment: VertexTensorAssignment, poly: PolynomialSpec, k: int, thetas: Sequence[float],
                         num_walks: int, kappa: int, seed: int, t_check: float | Sequence[float] | None = None,
                         chunk_size: int = DEFAULT_TAIL_CHUNK) -> list[TailEstimate]:
    """Monte Carlo tail probabilities for a grid of thresholds in one pass.

    ``t_check`` is the exponent at which each row's assumption-3 margin is
    audited: a scalar applies to every threshold, a sequence pairs with
    ``thetas`` (NaN skips the audit for that row).  The identity map is never
    audited, since its margins ``f(exp(t mu)) - exp(t f(mu))`` are exactly 0 or
    NaN.  Counter-addressed walks make the result identical for any
    ``chunk_size``; chunks are reduced in index order.  Each walk step gathers
    the ``d^2`` lower-triangle reals of its vertices (``_lower_triangle_reals``)
    and adds them to the chunk's summed reals (``_walk_sums``).  Their spectra
    come from ``_walk_sum_eigvalsh``: closed form for 2x2 sums, read from the
    reals with no complex stack, and LAPACK's ``eigvalsh`` on a stack holding
    only the reals it reads for any other dimension.  Each chunk counts its hits
    from its sorted norms, one ``searchsorted`` over the whole threshold grid.
    """
    if num_walks < 1:
        raise ArgumentError(f"num_walks must be >= 1, got {num_walks}")
    if not 1 <= k <= assignment.dim:
        raise ArgumentError(f"k must be in [1, {assignment.dim}], got {k}")
    thetas = np.asarray(list(thetas), dtype=np.float64)
    t_checks = np.broadcast_to(np.nan if t_check is None else np.asarray(t_check, dtype=np.float64), thetas.shape)
    audits = [] if poly.is_identity else [(i, float(t)) for i, t in enumerate(t_checks) if not np.isnan(t)]
    table = _lower_triangle_reals(assignment.stack())
    hits, violations = np.zeros((2, thetas.size), dtype=np.int64)
    for start in range(0, num_walks, chunk_size):
        count = min(chunk_size, num_walks - start)
        walks = sample_walks_array(assignment.graph, kappa, count, seed, start_index=start)
        mu = _walk_sum_eigvalsh(_walk_sums(table, walks))
        fmu = poly(mu)
        norms = np.sort(ky_fan_from_eigenvalues(fmu, k))
        norms = norms[:count - np.count_nonzero(np.isnan(norms))]  # NaNs sort last; a NaN norm is a miss
        hits += norms.size - np.searchsorted(norms, thetas)  # norms >= theta: all but those below it
        if audits:
            scale = 1e-9 * (1.0 + np.max(np.abs(fmu), axis=1))
            for i, t in audits:
                violations[i] += np.count_nonzero(assumption3_margins(poly, mu, t) < -scale)
    p_hat = hits / num_walks
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / num_walks)
    rows = zip(thetas, p_hat, stderr, violations)
    return [TailEstimate(float(th), float(p), float(se), int(v)) for th, p, se, v in rows]


@dataclass(frozen=True)
class TailTable:
    """One threshold sweep's report rows (``reporting.TailRow``) and the two folds its acceptance checks read.

    The corollary fold runs over the rows in the closed form's regime (identity map only).  The
    tail fold compares ``p_hat`` with ``bound + 3 stderr`` on each row whose theorem bound is not
    vacuous and whose walks show no assumption-3 violation; ``excluded`` holds the thresholds of
    nonvacuous rows left out for violations.  Worst values fold with ``np.max``, so a NaN fails.
    """

    rows: list[TailRow]
    corollary_rows: int
    corollary_rel_err: float  # worst |theorem - corollary| / corollary, 0 if no row
    compared: int
    excluded: tuple[float, ...]
    excess: float  # worst p_hat - (bound + 3 stderr), -inf if no row


def tail_table(assignment: VertexTensorAssignment, poly: PolynomialSpec, k: int, thetas: Sequence[float],
               num_walks: int, kappa: int, seed: int, lam_bar: float, fit: DominationFit) -> TailTable:
    """The theorem bound, the corollary and the Monte Carlo tail at each threshold, folded.

    One ``empirical_tail_sweep`` serves every row, auditing assumption 3 at each row's ``t_opt``.
    """
    params = ChernoffParams(kappa=kappa, k=k, lam_bar=lam_bar, dim=assignment.dim, radius=assignment.radius)
    bounds, rels = theorem_bound(params, thetas, poly, fit), []
    for theta, res in zip(thetas, bounds) if poly.is_identity else ():
        try:
            cor = corollary_bound(params, theta, fit)
        except PreconditionError:  # theta below the closed form's regime
            continue
        rels.append(abs(res.value - cor.value) / max(cor.value, 1e-300))
    estimates = empirical_tail_sweep(assignment, poly, k, thetas, num_walks, kappa, seed,
                                     t_check=[res.t_opt for res in bounds])
    table = [TailRow(theta=est.theta, p_hat=est.p_hat, stderr=est.stderr, bound=res.value, vacuous=res.vacuous,
                     assumption3_violations=est.assumption3_violations) for est, res in zip(estimates, bounds)]
    live = [row for row in table if not row.vacuous]
    gaps = [row.p_hat - (row.bound + 3.0 * row.stderr) for row in live if not row.assumption3_violations]
    return TailTable(rows=table, corollary_rows=len(rels), corollary_rel_err=float(np.max(rels, initial=0.0)),
                     compared=len(gaps), excluded=tuple(row.theta for row in live if row.assumption3_violations),
                     excess=float(np.max(gaps, initial=-math.inf)))


# ---------------------------------------------------------------------------
# Assignment serialization (manifest + tensor files)
# ---------------------------------------------------------------------------

ASSIGNMENT_FORMAT = "assignment/1"


def save_assignment(assignment: VertexTensorAssignment, directory: str | Path) -> Path:
    """Write the graph, one tensor file per vertex, and the manifest; returns
    the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_edge_list(assignment.graph, directory / "graph.txt")
    vertices = {}
    for v, matrix in enumerate(assignment.stack()):
        name = f"vertex_{v:04d}.json"
        save_tensor(Tensor(assignment.shape, matrix), directory / name)
        vertices[str(v)] = name
    manifest = {"format": ASSIGNMENT_FORMAT, "graph": "graph.txt", "vertices": vertices}
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_assignment(manifest_path: str | Path, graph: RegularGraph | None = None) -> VertexTensorAssignment:
    """Load an assignment from its manifest; the graph comes from the manifest's
    edge-list entry unless one is supplied.  Every ``vertices`` key must be a vertex of the graph."""
    manifest_path = Path(manifest_path)
    manifest = read_json_object(manifest_path, "manifest")
    if manifest.get("format") != ASSIGNMENT_FORMAT:
        raise ArgumentError(f"unsupported manifest format: {manifest.get('format')!r}")
    base = manifest_path.parent
    if graph is None:
        if "graph" not in manifest:
            raise ArgumentError("manifest has no graph entry and no graph was supplied")
        if not isinstance(manifest["graph"], str):
            raise ArgumentError(f"manifest {manifest_path} graph entry must be a file name")
        graph = load_edge_list(base / manifest["graph"])
    if "vertices" not in manifest:
        raise ArgumentError(f"manifest {manifest_path} has no 'vertices' entry")
    entries = manifest["vertices"]
    if not isinstance(entries, dict):
        raise ArgumentError(f"manifest {manifest_path} 'vertices' must be a JSON object")
    vertices = {str(v) for v in range(graph.n)}
    if extra := [key for key in entries if key not in vertices]:
        raise ArgumentError(f"manifest {manifest_path} 'vertices' key {extra[0]!r} is not a vertex of the "
                            f"{graph.n}-vertex graph")
    shape, matrices = None, []
    for v in range(graph.n):
        key = str(v)
        if key not in entries:
            raise ArgumentError(f"manifest {manifest_path} has no tensor for vertex {v}")
        if not isinstance(entries[key], str):
            raise ArgumentError(f"manifest {manifest_path} entry for vertex {v} must be a file name")
        path = base / entries[key]
        try:
            tensor = as_hermitian(load_tensor(path))
        except (ArgumentError, ShapeError) as exc:
            raise type(exc)(f"tensor for vertex {v} in {path}: {exc}") from exc
        shape = shape or tensor.shape
        if tensor.shape != shape:
            dims = [list(x.row_dims) for x in (tensor.shape, shape)]
            raise ArgumentError(f"tensor for vertex {v} in {path}: dims {dims[0]} differ from vertex 0's {dims[1]}")
        matrices.append(tensor.matrix)
    return VertexTensorAssignment(graph, shape, np.stack(matrices))
