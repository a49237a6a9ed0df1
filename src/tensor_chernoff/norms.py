"""Unitarily invariant tensor norms via singular values.

Singular values of a square tensor are those of its matrix unfolding, from
one LAPACK SVD.  The Ky Fan k-norm sums the k largest, the Schatten p-norm is
the l_p norm of the whole vector, and the k-trace is the elementary symmetric
polynomial e_k of a positive spectrum.  A Hermitian ``f(X)`` has singular
values ``|f(l_i)|``, so ``ky_fan_from_eigenvalues`` takes ``||f(X)||_(k)``
straight from ``f`` of the spectrum.  ``gauge_rho`` is the Ky Fan gauge
function on sorted nonnegative vectors, so
``ky_fan_norm(X, k) == gauge_rho(singular_values(X), k)``.  ``lanczos_top``
estimates the spectral radius of a Hermitian operator given only its action.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import ArgumentError, DomainError
from .tensors import HermitianTensor, Tensor, hermitian_eig


def singular_values(x: Tensor) -> np.ndarray:
    """Descending singular values of the unfolding."""
    x.shape.require_square("singular_values")
    return np.linalg.svd(x.matrix, compute_uv=False)


def ky_fan_from_eigenvalues(values: np.ndarray, k) -> np.ndarray:
    """Sum of the ``k`` largest ``|v|`` along the last axis, batched over the rest.

    On singular values, or on the eigenvalues of a normal tensor (a Hermitian
    ``f(X)`` included), this is the Ky Fan k-norm.  ``k`` is one integer, or
    an integer array broadcasting against ``values.shape[:-1]`` (one ``k``
    per row).  Both take the same masked sum over the whole sorted row, so a
    scalar ``k`` and a row of equal ``k`` agree bit for bit.  From 8 columns up
    that sum can differ in the last bits from a sum of the first ``k`` alone,
    because numpy's pairwise summation unrolls by 8.

    When every ``k`` is 1 that sum is ``top + 0 + ... + 0``, which is ``top``
    bit for bit (an ``|v|`` is never -0), so it is a running ``np.maximum``
    over the columns, with no sort; a NaN wins there as it wins the sort.
    ``np.max(axis=-1)`` would reduce a short last axis row by row.
    """
    dim = values.shape[-1]
    k = np.asarray(k)
    if k.size and not (1 <= k.min() and k.max() <= dim):
        raise ArgumentError(f"every k must be in [1, {dim}], got {k.min()}..{k.max()}")
    if k.size and k.max() == 1:
        top = np.empty(np.broadcast_shapes(values.shape[:-1], k.shape))
        np.abs(values[..., 0], out=top)
        for i in range(1, dim):
            np.maximum(top, np.abs(values[..., i]), out=top)
        return top
    top = np.sort(np.abs(values), axis=-1)[..., ::-1]
    return np.sum(np.where(np.arange(dim) < k[..., None], top, 0.0), axis=-1)


def ky_fan_norm(x: Tensor, k: int) -> float:
    """Sum of the ``k`` largest singular values; ``k = 1`` is the spectral norm."""
    x.shape.require_square("ky_fan_norm")
    return float(ky_fan_from_eigenvalues(singular_values(x), k))


def spectral_norm(x: Tensor) -> float:
    return ky_fan_norm(x, 1)


def schatten_norm(x: Tensor, p: float) -> float:
    """``(Tr |X|^p)^(1/p)``; ``p = 1`` is the trace norm."""
    if p < 1:
        raise ArgumentError(f"p must be >= 1, got {p}")
    sv = singular_values(x)
    top = float(sv[0]) if sv.size else 0.0
    if top == 0.0:
        return 0.0
    # factor out the largest value to avoid overflow at large p
    return top * float(np.sum((sv / top) ** p)) ** (1.0 / p)


def k_trace(h: HermitianTensor, k: int) -> float:
    """Elementary symmetric polynomial e_k of a positive spectrum.

    Defined on eigenvalue products, so a nonpositive spectrum raises
    ``DomainError`` rather than silently taking absolute values.
    """
    spec = hermitian_eig(h)
    vals = spec.eigenvalues
    if np.any(vals <= 0.0):
        raise DomainError(f"k_trace requires a positive spectrum, min eigenvalue {vals.min():.3e}")
    if not 1 <= k <= vals.size:
        raise ArgumentError(f"k must be in [1, {vals.size}], got {k}")
    # DP over e_j: slice RHS is evaluated before assignment, so each step
    # extends the polynomial prod (1 + v x) by one root
    e = np.zeros(k + 1)
    e[0] = 1.0
    for v in vals:
        e[1: k + 1] = e[1: k + 1] + v * e[0:k]
    return float(e[k])


def gauge_rho(v: np.ndarray, k):
    """Ky Fan gauge: sum of the first k entries of a sorted nonnegative vector.

    ``v`` may be a stack ``(..., r)`` of such vectors with one ``k`` or a
    ``k`` per vector; a single vector gives a float.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ArgumentError("gauge_rho expects nonempty vectors")
    if np.any(arr < 0):
        raise ArgumentError("gauge_rho requires nonnegative entries")
    if np.any(arr[..., :-1] < arr[..., 1:]):
        raise ArgumentError("gauge_rho requires a descending sort")
    out = ky_fan_from_eigenvalues(arr, k)
    return float(out) if out.ndim == 0 else out


def holder_gauge_violations(vecs: np.ndarray, alphas: np.ndarray, k) -> np.ndarray:
    """Per trial, whether ``rho(prod_i v_i^a_i) <= prod_i rho(v_i)^a_i + 1e-9 (1 + rhs)`` fails.

    ``vecs`` is ``(B, n, r)`` of sorted nonnegative vectors, ``alphas``
    ``(B, n)`` nonnegative weights summing to 1 per trial, ``k`` one integer
    or one per trial.  A vector with weight 0 is a factor 1 on both sides,
    so tuples of fewer vectors may be padded with any sorted nonnegative
    vector of weight 0.  A NaN fails.
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if vecs.ndim != 3 or alphas.shape != vecs.shape[:2]:
        raise ArgumentError(f"need vecs (B, n, r) and alphas (B, n), got {vecs.shape} and {alphas.shape}")
    if np.any(alphas < 0) or np.any(np.abs(alphas.sum(axis=1) - 1.0) > 1e-12):
        raise ArgumentError("each trial's alphas must be nonnegative and sum to 1")
    k = np.asarray(k)
    lhs = gauge_rho(np.prod(vecs ** alphas[..., None], axis=1), k)
    rhs = np.prod(gauge_rho(vecs, k[..., None]) ** alphas, axis=1)
    return ~(lhs <= rhs + 1e-9 * (1.0 + rhs))


LANCZOS_STEPS = 32  # the contraction certificate's Krylov dimension cap
DENSE_TRIDIAGONAL = 256  # largest T_k whose top value LAPACK's O(k^3) eigvalsh finds; past it, O(k) per bisection step


def _pivots(diag: list, squares: list, pivmin: float) -> list:
    """LDL^T pivots of the symmetric tridiagonal with diagonal ``diag`` and squared off-diagonal ``squares`` (led by
    a 0), each kept ``pivmin`` from 0 as in LAPACK's dlaebz: as many are negative as eigenvalues are."""
    out, p = [], 1.0
    for s, b2 in zip(diag, squares):
        p = s - b2 / p
        p = p if abs(p) >= pivmin else -pivmin
        out.append(p)
    return out


def _tridiagonal_top(alphas: list, betas: list) -> tuple[float, float]:
    """Largest-``|value|`` eigenvalue of the symmetric tridiagonal with diagonal ``alphas`` and off-diagonal
    ``betas`` (the lower end on a tie) and the last entry of its unit eigenvector.

    The value is found by LAPACK's eigvalsh up to ``DENSE_TRIDIAGONAL``, past it by bisection on pivot signs for
    each end of the spectrum (as LAPACK's dstebz).  A twisted factorization of ``T - value`` (as LAPACK's dlar1v)
    then gives the eigenvector: 1 at the index ``r`` where the top-down and bottom-up pivots agree best, following
    each one's bidiagonal factor outward.  It solves ``(T - value) z = twist_r e_r``, so the Rayleigh quotient
    ``value + twist_r / |z|^2`` refines the value: eigvalsh alone was up to 23 ulps off on Lanczos tridiagonals
    where the refined value was within one.
    """
    k = len(alphas)
    a, b = np.array(alphas), np.array(betas)
    squares = [0.0] + (b * b).tolist()
    pivmin = sys.float_info.min * max(1.0, max(squares))
    if k <= DENSE_TRIDIAGONAL:
        vals = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1), UPLO="U")  # ascending: argmax takes the lower on a tie
        value = float(vals[np.argmax(np.abs(vals))])
    else:
        bound = 2.0 * float(np.max(np.abs(a) + np.abs(np.append(b, 0.0)) + np.abs(np.insert(b, 0, 0.0)))) + pivmin
        ends = []
        for below in (0, k - 1):  # no eigenvalue lies below the bottom end, k - 1 below the top one
            lo, hi = -bound, bound  # twice Gershgorin's radius, halved to 2^-54 of it
            for _ in range(56):
                mid = 0.5 * (lo + hi)
                negative = np.count_nonzero(np.less(_pivots((a - mid).tolist(), squares, pivmin), 0.0))
                lo, hi = (mid, hi) if negative <= below else (lo, mid)
            ends.append(0.5 * (lo + hi))
        value = max(ends, key=abs)
    shifted = (a - value).tolist()
    down = np.array(_pivots(shifted, squares, pivmin))
    up = np.array(_pivots(shifted[::-1], squares[:1] + squares[:0:-1], pivmin))[::-1]
    r = int(np.argmin(np.abs(down + up - (a - value))))
    z = np.ones(k)
    z[:r] = np.cumprod((-b[:r] / down[:r])[::-1])[::-1]
    z[r + 1:] = np.cumprod(-b[r:] / up[r + 1:])
    squared = float(np.dot(z, z))
    # twist_r from the unclamped pivots on either side of r: a pivot kept pivmin from 0 would add up to 2 pivmin
    twist = shifted[r] - (squares[r] / down[r - 1] if r else 0.0) - (squares[r + 1] / up[r + 1] if r < k - 1 else 0.0)
    return float(value + twist / squared), float(z[-1]) / math.sqrt(squared)


def lanczos_top(apply: Callable, start: np.ndarray, steps: int, tol: float = 0.0) -> tuple[float, float, int]:
    """Largest ``|Ritz value|`` of a Hermitian ``H`` after at most ``steps >= 1`` Lanczos steps from ``start``.

    ``apply(q)`` returns ``H q`` as a new array.  Also returns the Ritz pair's residual ``|beta_k s_k|`` (an
    eigenvalue lies that close to the value) and the steps taken: fewer once the Krylov space is invariant (a new
    direction below ``1e-12 ||H q||``), where the value is exact, or, with ``tol > 0``, at the first check whose
    residual is at most ``tol``.  The checks come 32 steps apart up to 64 steps, then each after half as many steps
    again as taken (96, 144, 216, ...), so together they cost a few times the last one and overshoot by at most
    half.  NaN if a recurrence coefficient is not finite, since LAPACK may return finite eigenvalues of a NaN matrix.
    """
    q = start / math.sqrt(np.vdot(start, start).real)  # on real input the BLAS dot of np.linalg.norm
    q_prev, alphas, betas, check = np.zeros_like(q), [], [0.0], 32
    for k in range(1, steps + 1):
        w = apply(q)
        scale = math.sqrt(np.vdot(w, w).real)
        alphas.append(float(np.vdot(q, w).real))
        w -= alphas[-1] * q + betas[-1] * q_prev
        betas.append(math.sqrt(np.vdot(w, w).real))
        if not math.isfinite(alphas[-1] + betas[-1]):
            return math.nan, math.nan, k
        last = k == steps or betas[-1] <= 1e-12 * scale
        if last or (tol > 0 and k == check):
            check += max(32, k // 2)
            value, end = _tridiagonal_top(alphas, betas[1:-1])  # of the tridiagonal T_k
            residual = betas[-1] * abs(end)
            if last or residual <= tol:
                return abs(value), residual, k
        w /= betas[-1]  # apply's array, the next q
        q_prev, q = q, w
