"""Unitarily invariant tensor norms via singular values.

Singular values are the eigenvalues of ``|X| = sqrt(X^H X)``; the Ky Fan
k-norm sums the k largest, the Schatten p-norm is the l_p norm of the whole
vector, and the k-trace is the elementary symmetric polynomial e_k of a
positive spectrum.  ``gauge_rho`` is the Ky Fan gauge function on sorted
nonnegative vectors, so ``ky_fan_norm(X, k) == gauge_rho(singular_values(X), k)``.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DomainError
from .tensors import HermitianTensor, Tensor, abs_tensor, hermitian_eig


def singular_values(x: Tensor) -> np.ndarray:
    """Descending singular values of the unfolding, via the spectrum of ``|X|``."""
    x.shape.require_square("singular_values")
    return hermitian_eig(abs_tensor(x)).eigenvalues


def ky_fan_norm(x: Tensor, k: int) -> float:
    """Sum of the ``k`` largest singular values; ``k = 1`` is the spectral norm."""
    x.shape.require_square("ky_fan_norm")
    dim = x.shape.unfold_rows
    if not 1 <= k <= dim:
        raise ArgumentError(f"k must be in [1, {dim}], got {k}")
    return float(np.sum(singular_values(x)[:k]))


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


def gauge_rho(v: np.ndarray, k: int) -> float:
    """Ky Fan gauge: sum of the first k entries of a sorted nonnegative vector."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ArgumentError("gauge_rho expects a 1-d vector")
    if np.any(arr < 0):
        raise ArgumentError("gauge_rho requires nonnegative entries")
    if np.any(arr[:-1] < arr[1:]):
        raise ArgumentError("gauge_rho requires a descending sort")
    if not 1 <= k <= arr.size:
        raise ArgumentError(f"k must be in [1, {arr.size}], got {k}")
    return float(np.sum(arr[:k]))
