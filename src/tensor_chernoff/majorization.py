"""Vector majorization predicates and the Ky Fan sum-inequality verifier.

Predicates compare descending-sorted vectors by partial sums (or partial
products, via sums of logs).  Each returns a :class:`MajorizationResult`
carrying the verdict plus the first failing prefix length, which makes
violations debuggable; the result is truthy iff the relation holds.

The tolerance is ``1e-9 * (1 + max_abs_entry)``, a relative-absolute hybrid
chosen because partial sums accumulate round-off (``1e-9 * (1 + max|log x| +
max|log y|)`` for the log predicates); ``weak_majorizes`` also takes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DomainError, ShapeError
from .norms import ky_fan_from_eigenvalues
from .tensors import Tensor


@dataclass(frozen=True)
class SortedVec:
    """Real vector sorted descending; ``positive`` marks an all-positive spectrum."""

    entries: tuple[float, ...]
    positive: bool

    def __init__(self, entries: Sequence[float]):
        vals = tuple(float(v) for v in entries)
        if not vals:
            raise ArgumentError("SortedVec needs at least one entry")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ArgumentError(f"entries must be sorted descending, got {vals}")
        object.__setattr__(self, "entries", vals)
        object.__setattr__(self, "positive", all(v > 0 for v in vals))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.entries)


@dataclass(frozen=True)
class MajorizationResult:
    holds: bool
    first_failure: int | None  # smallest prefix length k at which the relation fails

    def __bool__(self) -> bool:
        return self.holds


def default_tol(*vecs: SortedVec) -> float:
    top = max(max(abs(v) for v in vec.entries) for vec in vecs)
    return 1e-9 * (1.0 + top)


def _coerce(v) -> SortedVec:
    return v if isinstance(v, SortedVec) else SortedVec(v)


def _prefix_compare(x: np.ndarray, y: np.ndarray, tol: float) -> MajorizationResult:
    cx, cy = np.cumsum(x), np.cumsum(y)
    bad = np.nonzero(cx > cy + tol)[0]
    if bad.size:
        return MajorizationResult(False, int(bad[0]) + 1)
    return MajorizationResult(True, None)


def weak_majorizes(y, x, tol: float | None = None) -> MajorizationResult:
    """True iff every prefix sum of ``x`` is at most the prefix sum of ``y``."""
    y, x = _coerce(y), _coerce(x)
    if len(x) != len(y):
        raise ArgumentError(f"length mismatch: {len(x)} vs {len(y)}")
    if tol is None:
        tol = default_tol(x, y)
    return _prefix_compare(x.array, y.array, tol)


def majorizes(y, x) -> MajorizationResult:
    """Weak majorization plus equality of the total sums."""
    y, x = _coerce(y), _coerce(x)
    weak = weak_majorizes(y, x)
    if weak and abs(float(np.sum(x.array) - np.sum(y.array))) > default_tol(x, y):
        return MajorizationResult(False, len(x))
    return weak


def _logs(y, x) -> tuple[np.ndarray, np.ndarray, float]:
    """``log x``, ``log y`` and the log-space tolerance, for equal-length positive vectors."""
    y, x = _coerce(y), _coerce(x)
    if len(x) != len(y):
        raise ArgumentError(f"length mismatch: {len(x)} vs {len(y)}")
    for v, name in ((x, "x"), (y, "y")):
        if not v.positive:
            raise DomainError(f"log majorization needs positive entries in {name}, got {v.entries}")
    lx, ly = np.log(x.array), np.log(y.array)
    return lx, ly, 1e-9 * (1.0 + float(np.max(np.abs(lx)) + np.max(np.abs(ly))))


def weak_log_majorizes(y, x) -> MajorizationResult:
    """Prefix products of ``x`` at most those of ``y``, compared as sums of logs."""
    return _prefix_compare(*_logs(y, x))


def log_majorizes(y, x) -> MajorizationResult:
    """Weak log majorization plus equality of the total products."""
    lx, ly, tol = _logs(y, x)
    weak = _prefix_compare(lx, ly, tol)
    if weak and abs(float(np.sum(lx) - np.sum(ly))) > tol:
        return MajorizationResult(False, len(lx))
    return weak


@dataclass(frozen=True)
class SumInequalityReport:
    """Both sides of the Ky Fan sum inequality and whether it held."""

    lhs: float
    rhs: float
    holds: bool


def check_kyfan_sum_inequality(tensors: Sequence[Tensor], s: float, k: int) -> SumInequalityReport:
    """Verify ``|| |sum C_i|^s ||_(k) <= m^(s-1) sum || |C_i|^s ||_(k)``."""
    if not tensors:
        raise ArgumentError("need at least one tensor")
    if s < 1:
        raise ArgumentError(f"s must be >= 1, got {s}")
    shape = tensors[0].shape
    shape.require_square("check_kyfan_sum_inequality")
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError("all tensors must share one shape")
    m = len(tensors)
    stack = np.stack([t.matrix for t in tensors])
    # || |X|^s ||_(k) is the sum of the k largest sv^s: one batched SVD per side
    sv = np.linalg.svd(stack, compute_uv=False)
    total_sv = np.linalg.svd(stack.sum(axis=0), compute_uv=False)
    lhs = float(ky_fan_from_eigenvalues(total_sv**s, k))
    rhs = m ** (s - 1.0) * float(np.sum(ky_fan_from_eigenvalues(sv**s, k)))
    tol = 1e-9 * (1.0 + abs(lhs) + abs(rhs))
    return SumInequalityReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)
