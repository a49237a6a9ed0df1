"""Majorization as one batched prefix test, and the Ky Fan sum-inequality verifier.

``first_failures`` decides every majorization premise on stacks of
descending-sorted vectors: weak majorization compares partial sums, strong
majorization also needs equal totals, and weak and strong log majorization
are the same test on the logs of positive vectors (partial products as sums
of logs).  It returns the first failing prefix length of each row, which
makes violations debuggable.  Tolerances are relative-absolute because
partial sums accumulate round-off: ``1e-9 (1 + max|entry|)`` on spectra,
and ``log_tol`` on their logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .norms import ky_fan_from_eigenvalues


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


def log_tol(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """``1e-9 (1 + max|log x| + max|log y|)`` per row of log-spectrum stacks."""
    return 1e-9 * (1.0 + (np.max(np.abs(lx), axis=-1) + np.max(np.abs(ly), axis=-1)))


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
