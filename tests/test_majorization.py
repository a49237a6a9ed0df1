"""Majorization predicates against partial-sum/product enumeration."""

import numpy as np
import pytest

from tensor_chernoff import TensorShape, hermitian_eig
from tensor_chernoff.errors import ArgumentError, DomainError, ShapeError
from tensor_chernoff.majorization import (
    SortedVec,
    check_kyfan_sum_inequality,
    log_majorizes,
    majorizes,
    weak_log_majorizes,
    weak_majorizes,
)
from tensor_chernoff.sampling import random_hermitian, random_tensor

from oracles import weak_majorizes_oracle

RNG = np.random.default_rng(20240813)


def test_sorted_vec_construction():
    v = SortedVec([3.0, 2.0, 2.0])
    assert v.positive
    assert not SortedVec([1.0, 0.0]).positive
    with pytest.raises(ArgumentError):
        SortedVec([1.0, 2.0])
    with pytest.raises(ArgumentError):
        SortedVec([])


def test_weak_majorization_examples():
    assert weak_majorizes([2.0, 0.0], [1.0, 1.0])
    assert weak_majorizes([1.0, 1.0], [1.0, 1.0])
    res = weak_majorizes([2.0, 1.0], [3.0, 0.0])
    assert not res and res.first_failure == 1
    with pytest.raises(ArgumentError):
        weak_majorizes([1.0], [1.0, 0.0])


def test_majorization_total_sum():
    assert majorizes([2.0, 0.0], [1.0, 1.0])
    res = majorizes([2.0, 1.0], [1.0, 1.0])  # totals 3 vs 2
    assert not res and res.first_failure == 2


def test_log_variants_frozen_examples():
    # x=(2,2), y=(4,1): prefix products (2,4) vs (4,4); totals equal
    assert weak_log_majorizes([4.0, 1.0], [2.0, 2.0])
    assert log_majorizes([4.0, 1.0], [2.0, 2.0])
    # x=(1,1,1), y=(3,1,1/3): prefix products (1,1,1) vs (3,3,1); totals equal
    assert weak_log_majorizes([3.0, 1.0, 1 / 3], [1.0, 1.0, 1.0])
    assert log_majorizes([3.0, 1.0, 1 / 3], [1.0, 1.0, 1.0])
    # all four predicates true on x = y
    x = [2.5, 1.5, 0.5]
    assert weak_majorizes(x, x) and majorizes(x, x)
    xp = [2.5, 1.5, 0.5]
    assert weak_log_majorizes(xp, xp) and log_majorizes(xp, xp)
    # strict prefix failure
    res = weak_log_majorizes([2.0, 1.0], [3.0, 0.5])
    assert not res and res.first_failure == 1
    with pytest.raises(DomainError):
        weak_log_majorizes([1.0, 0.0], [1.0, 1.0])


def test_random_against_oracle():
    for _ in range(200):
        r = RNG.integers(2, 6)
        x = np.sort(RNG.uniform(-2, 2, size=r))[::-1]
        y = np.sort(RNG.uniform(-2, 2, size=r))[::-1]
        tol = 1e-12
        got = weak_majorizes(y, x, tol)
        want, want_k = weak_majorizes_oracle(y, x, tol)
        assert bool(got) == want
        if not want:
            assert got.first_failure == want_k


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
        if log_majorizes(y, x):
            hit += 1
            assert weak_log_majorizes(y, x)
            assert weak_majorizes(y, x)
    assert hit > 400  # construction should almost always satisfy the premise


def test_ky_fan_eigenvalue_majorization():
    # lambda(X + Y) is weakly majorized by sorted lambda(X) + lambda(Y)
    s = TensorShape.square((2, 2))
    for _ in range(100):
        x, y = random_hermitian(s, RNG), random_hermitian(s, RNG)
        lx = hermitian_eig(x).eigenvalues
        ly = hermitian_eig(y).eigenvalues
        lsum = hermitian_eig(x + y).eigenvalues
        assert weak_majorizes(lx + ly, lsum)


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
