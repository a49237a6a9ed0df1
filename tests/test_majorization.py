"""``first_failures``, the one majorization rule, against partial-sum loops; the Ky Fan sum inequality."""

import numpy as np
import pytest

from tensor_chernoff import TensorShape, hermitian_eig
from tensor_chernoff.errors import ArgumentError, ShapeError
from tensor_chernoff.majorization import check_kyfan_sum_inequality, first_failures, log_tol
from tensor_chernoff.sampling import random_hermitian, random_tensor

from oracles import log_majorizes_oracle, majorizes_oracle

RNG = np.random.default_rng(20240813)


def _failure(y, x, total, tol=None) -> int:
    """``first_failures`` of ``x`` under ``y`` (0 if it holds), at ``1e-9 (1 + max|entry|)`` unless ``tol`` is given."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    tol = 1e-9 * (1.0 + max(np.max(np.abs(x)), np.max(np.abs(y)))) if tol is None else tol
    return int(first_failures(x, y, tol, total))


def _log_failure(y, x, total) -> int:
    """``first_failures`` on the logs of positive ``x`` and ``y``, at ``log_tol``."""
    lx, ly = np.log(x), np.log(y)
    return int(first_failures(lx, ly, log_tol(lx, ly), total))


def test_weak_majorization_examples():
    assert _failure([2.0, 0.0], [1.0, 1.0], False) == 0
    assert _failure([1.0, 1.0], [1.0, 1.0], False) == 0
    assert _failure([2.0, 1.0], [3.0, 0.0], False) == 1
    assert _failure([3.0, 0.0, 0.0], [2.0, 2.0, 0.0], False) == 2
    assert _failure([2.0, 1.0], [1.0, 1.0], False) == 0  # unequal totals: weak majorization holds


def test_majorization_total_sum():
    assert _failure([2.0, 0.0], [1.0, 1.0], True) == 0
    assert _failure([2.0, 1.0], [1.0, 1.0], True) == 2  # totals 3 vs 2: every prefix holds, the total fails
    assert _failure([3.0, 0.0, 0.0], [2.0, 2.0, -1.0], True) == 2  # a failing prefix comes before the total
    assert _failure([2.0, 1.0], [1.0, 2.0 + 1e-10], True) == 0  # totals equal within the tolerance
    # a stack of rows, each with its own tolerance and its own rule
    x = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.0], [1.0, 1.0 + 1e-6]])
    y = np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
    tol = np.array([1e-9, 1e-9, 1e-9, 1e-5])
    assert first_failures(x, y, tol, np.array([False, True, True, True])).tolist() == [0, 2, 1, 0]
    assert first_failures(x, y, 1e-9, True).tolist() == [2, 2, 1, 2]


def test_log_variants_frozen_examples():
    # x=(2,2), y=(4,1): prefix products (2,4) vs (4,4); totals equal
    assert _log_failure([4.0, 1.0], [2.0, 2.0], False) == 0
    assert _log_failure([4.0, 1.0], [2.0, 2.0], True) == 0
    # x=(1,1,1), y=(3,1,1/3): prefix products (1,1,1) vs (3,3,1); totals equal
    assert _log_failure([3.0, 1.0, 1 / 3], [1.0, 1.0, 1.0], False) == 0
    assert _log_failure([3.0, 1.0, 1 / 3], [1.0, 1.0, 1.0], True) == 0
    # all four rules hold on x = y
    x = [2.5, 1.5, 0.5]
    assert [_failure(x, x, total) for total in (False, True)] == [0, 0]
    assert [_log_failure(x, x, total) for total in (False, True)] == [0, 0]
    # strict prefix failure
    assert _log_failure([2.0, 1.0], [3.0, 0.5], False) == 1
    # x=(2,2), y=(4,2): prefix products (2,4) vs (4,8); total products 4 vs 8
    assert _log_failure([4.0, 2.0], [2.0, 2.0], False) == 0
    assert _log_failure([4.0, 2.0], [2.0, 2.0], True) == 2


def _random_pairs(positive: bool):
    """Descending pairs ``(y, x)``, positive ones if ``positive``: half drawn at random, half with ``x`` a
    T-transform of ``y`` (two entries moved toward their mean, in log space if ``positive``), so that strong
    majorization, or strong log majorization, holds up to round-off."""
    lo, hi = (0.1, 3.0) if positive else (-2.0, 2.0)
    for i in range(400):
        r = int(RNG.integers(2, 6))
        y = np.sort(RNG.uniform(lo, hi, size=r))[::-1]
        if i % 2:
            x = np.sort(RNG.uniform(lo, hi, size=r))[::-1]
        else:
            v = np.log(y) if positive else y.copy()
            a, b = sorted(RNG.choice(r, size=2, replace=False))
            shift = RNG.uniform(0.0, 0.5) * (v[a] - v[b])
            v[a], v[b] = v[a] - shift, v[b] + shift
            x = np.sort(np.exp(v) if positive else v)[::-1]
        yield y, x


def test_random_against_oracle():
    # the four rules, weak and strong on the entries and on their logs, against the partial-sum loops
    rules = {False: (lambda y, x, total: _failure(y, x, total, tol=1e-12),
                     lambda y, x, total: majorizes_oracle(y, x, 1e-12, total)),
             True: (_log_failure, log_majorizes_oracle)}
    for log, (rule, oracle) in rules.items():
        for total in (False, True):
            seen = set()
            for y, x in _random_pairs(positive=log):
                want, want_k = oracle(y, x, total)
                assert rule(y, x, total) == (0 if want else want_k)
                seen.add("holds" if want else "prefix" if not oracle(y, x, False)[0] else "total")
            assert seen == ({"holds", "prefix", "total"} if total else {"holds", "prefix"})


def test_implication_chain_on_positive_vectors():
    # log majorization implies weak log implies weak majorization
    hit = 0
    for _ in range(500):
        r = int(RNG.integers(2, 6))
        y = np.sort(RNG.uniform(0.1, 3.0, size=r))[::-1]
        # build x log-majorized by y: average the logs with a doubly stochastic map
        logs = np.log(y)
        w = RNG.uniform(0.0, 1.0)
        mixed = logs.copy()
        i, j = sorted(RNG.choice(r, size=2, replace=False))
        delta = w * (logs[i] - logs[j]) / 2.0
        mixed[i] -= delta
        mixed[j] += delta
        x = np.sort(np.exp(mixed))[::-1]
        if _log_failure(y, x, True) == 0:
            hit += 1
            assert _log_failure(y, x, False) == 0
            assert _failure(y, x, False) == 0
    assert hit > 400  # construction should almost always satisfy the premise


def test_ky_fan_eigenvalue_majorization():
    # lambda(X + Y) is majorized by sorted lambda(X) + lambda(Y), totals equal (the traces): one stacked call
    s = TensorShape.square((2, 2))
    pairs = [(random_hermitian(s, RNG), random_hermitian(s, RNG)) for _ in range(100)]
    lsum = np.array([hermitian_eig(x + y).eigenvalues for x, y in pairs])
    lxy = np.array([hermitian_eig(x).eigenvalues + hermitian_eig(y).eigenvalues for x, y in pairs])
    tol = 1e-9 * (1.0 + np.maximum(np.max(np.abs(lsum), axis=1), np.max(np.abs(lxy), axis=1)))
    assert not first_failures(lsum, lxy, tol, True).any()


def _stack(*ts) -> np.ndarray:
    """One batch of tensors as a (1, m, d, d) stack."""
    return np.stack([t.matrix for t in ts])[None]


def test_sum_inequality_trivial_cases():
    s = TensorShape.square((2,))
    c = random_tensor(s, RNG)
    rep = check_kyfan_sum_inequality(_stack(c), s=2.0, k=1)
    assert rep.holds[0] and rep.lhs[0] == pytest.approx(rep.rhs[0])

    rep = check_kyfan_sum_inequality(_stack(c, -1.0 * c), s=1.0, k=2)
    assert rep.holds[0] and rep.lhs[0] == pytest.approx(0.0, abs=1e-9)

    # counts drop a trial's trailing matrices: [c, -c] with count 1 is [c]
    rep = check_kyfan_sum_inequality(_stack(c, -1.0 * c), s=2.0, k=1, counts=[1])
    assert rep.lhs[0] == check_kyfan_sum_inequality(_stack(c), s=2.0, k=1).lhs[0]

    with pytest.raises(ShapeError):
        check_kyfan_sum_inequality(np.zeros((1, 2, 2, 3)), 1.0, 1)
    with pytest.raises(ArgumentError):
        check_kyfan_sum_inequality(_stack(c), s=0.5, k=1)
    with pytest.raises(ArgumentError):
        check_kyfan_sum_inequality(_stack(c), s=1.0, k=1, counts=[2])


def test_sum_inequality_random_sweep():
    # 10^4 randomized batches: m <= 4 summands, s in {1, 2, 3}, dims up to 3x3,
    # drawn one at a time and checked in one stack per (dim, m)
    batches = {}
    for _ in range(10000):
        dim = int(RNG.integers(2, 4))
        s_shape = TensorShape.square((dim,))
        m = int(RNG.integers(1, 5))
        tensors = [random_tensor(s_shape, RNG) for _ in range(m)]
        s_pow = float(RNG.choice([1.0, 2.0, 3.0]))
        k = int(RNG.integers(1, dim + 1))
        batches.setdefault((dim, m), []).append((np.stack([t.matrix for t in tensors]), s_pow, k))
    violations = 0
    for batch in batches.values():
        stacks, s_pows, ks = zip(*batch)
        rep = check_kyfan_sum_inequality(np.array(stacks), np.array(s_pows), np.array(ks))
        violations += int(np.count_nonzero(~rep.holds))
    assert violations == 0
