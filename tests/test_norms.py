"""Norm definitions against SVD and subset-enumeration oracles."""

import math

import numpy as np
import pytest

from tensor_chernoff import HermitianTensor, Tensor, TensorShape, make_identity, norms
from tensor_chernoff.errors import ArgumentError, DomainError
from tensor_chernoff.norms import (
    gauge_rho,
    k_trace,
    ky_fan_from_eigenvalues,
    ky_fan_norm,
    lanczos_top,
    schatten_norm,
    singular_values,
    spectral_norm,
)
from tensor_chernoff.sampling import random_tensor, random_unitary

from oracles import elementary_symmetric, masked_sorted_ky_fan

RNG = np.random.default_rng(20240812)
S22 = TensorShape.square((2, 2))


def test_singular_values_examples():
    ident = make_identity(S22)
    assert np.allclose(singular_values(ident), 1.0)
    assert np.allclose(singular_values(-1.0 * ident), 1.0)
    x = random_tensor(S22, RNG)
    sv = np.linalg.svd(x.matrix, compute_uv=False)  # SVD oracle
    assert np.allclose(singular_values(x), sv, atol=1e-9)
    assert singular_values(x).size == 4
    # rank-1 non-Hermitian: true zeros stay at round-off of the top value, never negative
    u = np.array([1.0, 2.0j, -1.0, 0.5])
    v = np.array([0.3, -1.0j, 2.0, 1.0 + 1.0j])
    sv1 = singular_values(Tensor(S22, np.outer(u, v.conj())))
    assert np.all(sv1 >= 0.0)
    assert sv1[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
    assert np.all(sv1[1:] <= 1e-12 * sv1[0])


def test_ky_fan_examples():
    ident = make_identity(S22)
    assert ky_fan_norm(ident, 3) == pytest.approx(3.0)
    d = HermitianTensor(TensorShape.square((3,)), np.diag([5.0, -7.0, 1.0]))
    assert ky_fan_norm(d, 1) == pytest.approx(7.0)
    assert spectral_norm(d) == pytest.approx(7.0)
    with pytest.raises(ArgumentError):
        ky_fan_norm(ident, 0)
    with pytest.raises(ArgumentError):
        ky_fan_norm(ident, 5)


def test_ky_fan_scalar_and_per_row_k_agree_bit_for_bit():
    # numpy's pairwise sum unrolls by 8, so two summation orders would part in the last bits from 8 columns up
    rng = np.random.default_rng(64)
    for dim in range(2, 65):
        values = rng.standard_normal((5, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(5, dim))
        for k in range(1, dim + 1):
            scalar = ky_fan_from_eigenvalues(values, k)
            assert np.array_equal(scalar, ky_fan_from_eigenvalues(values, np.full(5, k))), (dim, k)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_spectral_ky_fan_equals_the_masked_sorted_sum_bit_for_bit():
    # every k = 1 takes a running maximum with no sort; the widths run past numpy's 8-way pairwise unroll
    rng = np.random.default_rng(31)
    specials = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300])
    for dim in range(1, 12):
        values = rng.standard_normal((60, dim)) * 10.0 ** rng.integers(-300, 301, size=(60, dim))
        picked = rng.random((60, dim)) < 0.3
        values[picked] = rng.choice(specials, size=picked.sum())
        values[-specials.size:] = specials[:, None]  # rows of one special value each
        for k in (1, np.ones(60, dtype=int), np.ones((3, 1), dtype=int)):
            got, want = ky_fan_from_eigenvalues(values, k), masked_sorted_ky_fan(values, k)
            assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want)), (dim, np.shape(k))
            assert got.flags.writeable and not np.shares_memory(got, values)
        for row in values[[0, 7, -9, -1]]:  # one vector gives a 0-d result
            got = ky_fan_from_eigenvalues(row, 1)
            assert np.ndim(got) == 0 and _bits(got) == _bits(masked_sorted_ky_fan(row, 1)), (dim, row)


def test_ky_fan_triangle_inequality():
    for _ in range(100):
        x, y = random_tensor(S22, RNG), random_tensor(S22, RNG)
        for k in (1, 2, 4):
            assert ky_fan_norm(x + y, k) <= ky_fan_norm(x, k) + ky_fan_norm(y, k) + 1e-9


def test_ky_fan_monotone_in_k_and_unitary_invariance():
    x = random_tensor(S22, RNG)
    vals = [ky_fan_norm(x, k) for k in range(1, 5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(singular_values(x)[0])

    u = random_unitary(S22, RNG)
    for k in (1, 2, 3):
        assert abs(ky_fan_norm(u @ x, k) - ky_fan_norm(x, k)) <= 1e-9
        assert abs(ky_fan_norm(x @ u, k) - ky_fan_norm(x, k)) <= 1e-9


def test_schatten_examples():
    ident = make_identity(S22)
    assert schatten_norm(ident, 1) == pytest.approx(4.0)
    x = random_tensor(S22, RNG)
    # large p approaches the spectral norm
    assert schatten_norm(x, 64) == pytest.approx(spectral_norm(x), rel=0.02)
    sv = singular_values(x)
    assert schatten_norm(x, 2.5) == pytest.approx(float(np.sum(sv**2.5)) ** (1 / 2.5))
    with pytest.raises(ArgumentError):
        schatten_norm(x, 0.5)


def test_k_trace_examples():
    d = HermitianTensor(TensorShape.square((3,)), np.diag([3.0, 2.0, 1.0]))
    assert k_trace(d, 2) == pytest.approx(11.0)  # 3*2 + 3*1 + 2*1, frozen from enumeration
    assert k_trace(d, 1) == pytest.approx(6.0)
    assert k_trace(d, 3) == pytest.approx(6.0)

    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 2.0, size=6)
    h = HermitianTensor(TensorShape.square((6,)), np.diag(vals))
    for k in (1, 2, 3, 6):
        assert k_trace(h, k) == pytest.approx(elementary_symmetric(sorted(vals, reverse=True), k))

    with pytest.raises(DomainError):
        k_trace(HermitianTensor(TensorShape.square((2,)), np.diag([1.0, -0.5])), 1)
    with pytest.raises(ArgumentError):
        k_trace(d, 4)


def test_gauge_rho():
    assert gauge_rho(np.array([3.0, 2.0, 1.0]), 2) == pytest.approx(5.0)
    assert gauge_rho(np.zeros(4), 3) == 0.0
    with pytest.raises(ArgumentError):
        gauge_rho(np.array([1.0, 2.0]), 1)  # unsorted
    with pytest.raises(ArgumentError):
        gauge_rho(np.array([1.0, -2.0]), 1)  # negative
    x = random_tensor(S22, RNG)
    assert ky_fan_norm(x, 2) == pytest.approx(gauge_rho(singular_values(x), 2))


def test_gauge_consistency_with_abs():
    from tensor_chernoff import abs_tensor

    x = random_tensor(S22, RNG)
    for k in (1, 2, 3):
        assert ky_fan_norm(x, k) == pytest.approx(ky_fan_norm(abs_tensor(x), k), abs=1e-9)


def test_holder_gauge_inequality():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = rng.integers(2, 5)
        r = rng.integers(2, 7)
        vecs = [np.sort(rng.uniform(0.0, 4.0, size=r))[::-1] for _ in range(n)]
        alphas = rng.dirichlet(np.ones(n))
        prod = np.ones(r)
        for v, a in zip(vecs, alphas):
            prod = prod * v**a
        for k in (1, int(r) // 2 + 1, int(r)):
            lhs = gauge_rho(prod, k)
            rhs = float(np.prod([gauge_rho(v, k) ** a for v, a in zip(vecs, alphas)]))
            assert lhs <= rhs + 1e-9 * (1 + rhs)


def test_lanczos_top_matches_the_spectral_radius():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = (z + z.conj().T) / 2.0
    value, residual, steps = lanczos_top(lambda x: h @ x, rng.standard_normal(12) + 0j, 12)
    assert value == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(h))), rel=1e-12)
    assert steps == 12 and residual <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 32, 96, 255, 256])
def test_tridiagonal_top_by_eigvalsh_matches_eigh(k):
    # up to norms.DENSE_TRIDIAGONAL the value comes from eigvalsh (refined by the twisted vector's Rayleigh
    # quotient) and the vector end from the twisted factorization; both against eigh, across scales, on spectra
    # symmetric about 0 (a zero diagonal) and with split blocks
    assert k <= norms.DENSE_TRIDIAGONAL
    rng = np.random.default_rng(k)
    for scale, split, diagonal in ((1.0, False, True), (1e-3, True, True), (10.0, False, True), (1.0, True, False),
                                   (1.0, False, False)):
        alphas = scale * rng.uniform(-1.0, 1.0, k) * diagonal
        betas = scale * rng.uniform(0.0, 1.0, k - 1)
        if split:
            betas[:: 7] = 0.0
        matrix = np.diag(alphas) + np.diag(betas, 1)
        value, end = norms._tridiagonal_top(alphas.tolist(), betas.tolist())
        vals, vecs = np.linalg.eigh(matrix, UPLO="U")
        picked = 0 if value < 0 else k - 1  # the end of the spectrum it took
        assert abs(value - vals[picked]) <= 1e-14 * np.max(np.abs(vals)), (scale, split, diagonal)
        assert abs(value) >= (1.0 - 1e-14) * np.max(np.abs(vals)), (scale, split, diagonal)
        ends = np.linalg.eigvalsh(matrix, UPLO="U")[[0, -1]]
        if ends[0] == -ends[1]:  # a tie in the values it chose from: the lower end, as argmax(abs) over eigh's
            assert value <= 0.0, (scale, split, diagonal)
        if np.count_nonzero(np.abs(vals - vals[picked]) <= 1e-9 * scale) == 1:  # else the vector is not unique
            assert abs(abs(end) - abs(vecs[-1, picked])) <= 1e-12, (scale, split, diagonal)


@pytest.mark.parametrize("k", [2, 3, 32, 255, 256])
def test_tridiagonal_top_takes_the_lower_end_on_a_tie(k):
    # a zero diagonal over 2 x 2 blocks [[0, 1], [1, 0]]: eigenvalues exactly -1 and 1 (and 0 for odd k), so
    # |lambda_min| = |lambda_max| and argmax(abs) over the ascending values took -1
    betas = [1.0 - i % 2 for i in range(k - 1)]
    assert np.linalg.eigvalsh(np.diag(betas, 1), UPLO="U")[[0, -1]].tolist() == [-1.0, 1.0]
    value, end = norms._tridiagonal_top([0.0] * k, betas)
    assert value == -1.0 and abs(end) <= math.sqrt(0.5) + 1e-15


@pytest.mark.parametrize("k", [1, 2, 3, 40, 257, 900])
def test_tridiagonal_top_by_bisection_matches_eigh(k, monkeypatch):
    # past norms.DENSE_TRIDIAGONAL the top pair comes from bisection and a twisted factorization; here every
    # size takes that path, on spectra symmetric about 0 (a zero diagonal), with split blocks and across scales
    rng = np.random.default_rng(k)
    monkeypatch.setattr(norms, "DENSE_TRIDIAGONAL", 0)
    for scale, split, diagonal in ((1.0, False, True), (1e-3, True, True), (10.0, False, True), (1.0, True, False)):
        alphas = scale * rng.uniform(-1.0, 1.0, k) * diagonal
        betas = rng.uniform(0.0, 1.0, k - 1)
        if split:
            betas[:: 7] = 0.0
        value, end = norms._tridiagonal_top(alphas.tolist(), betas.tolist())
        vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1), UPLO="U")
        top = int(np.argmax(np.abs(vals)))
        assert abs(value) == pytest.approx(abs(vals[top]), rel=1e-14, abs=1e-300), (scale, split)
        if np.count_nonzero(np.abs(np.abs(vals) - abs(vals[top])) <= 1e-9) == 1:  # else the pair is not unique
            assert abs(abs(end) - abs(vecs[-1, top])) <= 1e-12, (scale, split)


def test_lanczos_top_stops_on_an_invariant_space_and_returns_nan_for_nan():
    value, residual, steps = lanczos_top(lambda x: 3.0 * x, np.ones(5), 5)
    assert value == pytest.approx(3.0, rel=1e-15) and residual <= 1e-14 and steps == 1
    assert lanczos_top(lambda x: np.zeros_like(x), np.ones(5), 5)[:2] == (0.0, 0.0)
    # LAPACK's eigvalsh([[nan, 0], [0, 1]]) need not be NaN; the recurrence must catch it
    nan_first = np.diag([np.nan, 1.0, 2.0])
    value, residual, _ = lanczos_top(lambda x: nan_first @ x, np.ones(3), 3)
    assert math.isnan(value) and math.isnan(residual)
