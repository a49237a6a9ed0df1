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


def _pair(y, x) -> tuple[SortedVec, SortedVec]:
    y, x = (v if isinstance(v, SortedVec) else SortedVec(v) for v in (y, x))
    if len(x) != len(y):
        raise ArgumentError(f"length mismatch: {len(x)} vs {len(y)}")
    return y, x


def first_failures(x: np.ndarray, y: np.ndarray, tol, total) -> np.ndarray:
    """Smallest failing prefix length per row of the stacks ``x``, ``y`` (``(..., n)``), 0 where none.

    A prefix fails where ``cumsum(x) > cumsum(y) + tol``; where ``total``
    is true the full sums must also agree within ``tol`` (failure at ``n``).
    ``tol`` and ``total`` broadcast against ``x.shape[:-1]``.
    """
    tol = np.asarray(tol)
    bad = np.cumsum(x, axis=-1) > np.cumsum(y, axis=-1) + tol[..., None]
    n = x.shape[-1]
    unequal = np.asarray(total) & (np.abs(np.sum(x, axis=-1) - np.sum(y, axis=-1)) > tol)
    return np.where(bad.any(axis=-1), bad.argmax(axis=-1) + 1, np.where(unequal, n, 0))


def _result(failure) -> MajorizationResult:
    return MajorizationResult(True, None) if failure == 0 else MajorizationResult(False, int(failure))


def weak_majorizes(y, x, tol: float | None = None) -> MajorizationResult:
    """True iff every prefix sum of ``x`` is at most the prefix sum of ``y``."""
    y, x = _pair(y, x)
    return _result(first_failures(x.array, y.array, default_tol(x, y) if tol is None else tol, False))


def majorizes(y, x) -> MajorizationResult:
    """Weak majorization plus equality of the total sums."""
    y, x = _pair(y, x)
    return _result(first_failures(x.array, y.array, default_tol(x, y), True))


def _logs(y, x) -> tuple[np.ndarray, np.ndarray, float]:
    """``log x``, ``log y`` and the log-space tolerance, for equal-length positive vectors."""
    y, x = _pair(y, x)
    for v, name in ((x, "x"), (y, "y")):
        if not v.positive:
            raise DomainError(f"log majorization needs positive entries in {name}, got {v.entries}")
    lx, ly = np.log(x.array), np.log(y.array)
    return lx, ly, log_tol(lx, ly)


def log_tol(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """``1e-9 (1 + max|log x| + max|log y|)`` per row of log-spectrum stacks."""
    return 1e-9 * (1.0 + (np.max(np.abs(lx), axis=-1) + np.max(np.abs(ly), axis=-1)))


def weak_log_majorizes(y, x) -> MajorizationResult:
    """Prefix products of ``x`` at most those of ``y``, compared as sums of logs."""
    return _result(first_failures(*_logs(y, x), False))


def log_majorizes(y, x) -> MajorizationResult:
    """Weak log majorization plus equality of the total products."""
    return _result(first_failures(*_logs(y, x), True))


@dataclass(frozen=True)
class SumInequalityReport:
    """Both sides of the Ky Fan sum inequality and whether it held, one entry per trial."""

    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray


def check_kyfan_sum_inequality(stacks: np.ndarray, s, k, counts=None) -> SumInequalityReport:
    """Verify ``|| |sum C_i|^s ||_(k) <= m^(s-1) sum || |C_i|^s ||_(k)`` for each trial.

    ``stacks`` is ``(B, M, d, d)``: trial ``b`` sums its first ``counts[b]``
    matrices (all ``M`` by default) and ignores the rest.  ``s`` and ``k``
    are one value or one per trial.  A NaN side fails.
    """
    stacks = np.asarray(stacks, dtype=np.complex128)
    if stacks.ndim != 4 or stacks.shape[-1] != stacks.shape[-2]:
        raise ShapeError(f"need a (B, M, d, d) stack of square matrices, got {stacks.shape}")
    b, m_max = stacks.shape[:2]
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), (b,))
    if np.any(s < 1):
        raise ArgumentError(f"s must be >= 1, got {s.min()}")
    m = np.broadcast_to(np.asarray(m_max if counts is None else counts), (b,))
    if np.any(m < 1) or np.any(m > m_max):
        raise ArgumentError(f"counts must be in [1, {m_max}]")
    present = np.arange(m_max) < m[:, None]
    # || |X|^s ||_(k) is the sum of the k largest sv^s: one batched SVD per side
    sv = np.linalg.svd(stacks, compute_uv=False)
    total_sv = np.linalg.svd(np.where(present[..., None, None], stacks, 0.0).sum(axis=1), compute_uv=False)
    k = np.asarray(k)
    lhs = ky_fan_from_eigenvalues(total_sv ** s[:, None], k)
    each = ky_fan_from_eigenvalues(sv ** s[:, None, None], k[..., None])
    rhs = m ** (s - 1.0) * np.sum(np.where(present, each, 0.0), axis=1)
    tol = 1e-9 * (1.0 + np.abs(lhs) + np.abs(rhs))
    return SumInequalityReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)
