"""Tensor algebra against unfolding-independent oracles."""

import math

import numpy as np
import pytest

from tensor_chernoff import (
    ArgumentError,
    DomainError,
    HermitianTensor,
    ShapeError,
    Tensor,
    TensorShape,
    abs_tensor,
    col_tensor,
    complex_power,
    conj_transpose,
    einstein_product,
    frobenius_norm,
    hermitian_det,
    hermitian_eig,
    inner_product,
    kronecker,
    make_identity,
    make_zero,
    spectral_map,
    tensor_exp,
    tensor_log,
    trace,
)
from tensor_chernoff.sampling import (
    random_hermitian,
    random_positive,
    random_tensor,
    random_unitary,
)

from oracles import einsum_einstein, naive_einstein, reconstruct

RNG = np.random.default_rng(20240811)


def test_shape_invariants():
    s = TensorShape((2, 3), (4,))
    assert s.unfold_rows == 6 and s.unfold_cols == 4
    assert not s.is_square
    assert TensorShape.square((2, 3)).is_square
    with pytest.raises(ShapeError):
        TensorShape((2, 0), (1,))
    with pytest.raises(ShapeError):
        TensorShape((), (2,))


def test_entry_count_and_roundtrip():
    s = TensorShape((2, 3), (3, 2))
    with pytest.raises(ShapeError):
        Tensor.from_entries(s, np.zeros(35))
    x = random_tensor(s, RNG)
    again = Tensor.from_entries(s, x.entries.ravel())
    assert again == x  # exact fold/unfold round trip


def test_identity_unfoldings():
    assert np.array_equal(make_identity(TensorShape.square((2,))).matrix, np.eye(2))
    assert np.array_equal(make_identity(TensorShape.square((2, 3))).matrix, np.eye(6))
    with pytest.raises(ShapeError):
        make_identity(TensorShape((2,), (3,)))


def test_identity_law():
    s = TensorShape((2, 3), (2, 2))
    x = random_tensor(s, RNG)
    i = make_identity(TensorShape.square((2, 3)))
    assert np.allclose((i @ x).matrix, x.matrix)


def test_einstein_matches_matrix_product_order1():
    x = random_tensor(TensorShape((3,), (4,)), RNG)
    y = random_tensor(TensorShape((4,), (2,)), RNG)
    naive = naive_einstein(x.entries, y.entries, 1)
    assert np.allclose((x @ y).entries, naive, atol=1e-12)
    assert np.allclose((x @ y).matrix, x.matrix @ y.matrix)


def test_einstein_matches_naive_loop_2x3():
    x = random_tensor(TensorShape((2, 3), (3, 2)), RNG)
    y = random_tensor(TensorShape((3, 2), (2, 2)), RNG)
    naive = naive_einstein(x.entries, y.entries, 2)
    got = (x @ y).entries
    assert np.max(np.abs(got - naive)) <= 1e-12


def test_einstein_shape_mismatch():
    x = random_tensor(TensorShape((2,), (3,)), RNG)
    y = random_tensor(TensorShape((4,), (2,)), RNG)
    with pytest.raises(ShapeError):
        einstein_product(x, y)


def test_conj_transpose_properties():
    s = TensorShape((2, 2), (3,))
    x = random_tensor(s, RNG)
    assert np.allclose(conj_transpose(conj_transpose(x)).matrix, x.matrix)
    assert np.allclose(conj_transpose(x).matrix, x.matrix.conj().T)

    y = random_tensor(TensorShape((3,), (2, 2)), RNG)
    lhs = conj_transpose(x @ y)
    rhs = conj_transpose(y) @ conj_transpose(x)
    assert np.allclose(lhs.matrix, rhs.matrix)

    sym = HermitianTensor(TensorShape.square((3,)), np.array([[1.0, 2, 0], [2, -1, 3], [0, 3, 0.5]]))
    assert conj_transpose(sym) == sym

    d = Tensor(TensorShape.square((2,)), np.diag([1j, -2j]))
    assert np.allclose(conj_transpose(d).matrix, np.diag([-1j, 2j]))


def test_trace_examples():
    assert trace(make_identity(TensorShape.square((2, 3)))) == pytest.approx(6)
    s = TensorShape.square((2, 2))
    x, y = random_tensor(s, RNG), random_tensor(s, RNG)
    assert trace(x + y) == pytest.approx(trace(x) + trace(y))
    h = random_hermitian(s, RNG)
    assert abs(trace(h) - np.sum(hermitian_eig(h).eigenvalues)) <= 1e-10
    with pytest.raises(ShapeError):
        trace(random_tensor(TensorShape((2,), (3,)), RNG))


def test_inner_product_and_frobenius():
    s = TensorShape((2, 3), (2,))
    x, y = random_tensor(s, RNG), random_tensor(s, RNG)
    self_ip = inner_product(x, x)
    assert self_ip.imag == pytest.approx(0.0, abs=1e-12)
    assert self_ip.real >= 0
    assert frobenius_norm(x) == pytest.approx(np.sqrt(self_ip.real))
    assert frobenius_norm(make_identity(TensorShape.square((2, 3)))) == pytest.approx(np.sqrt(6))
    assert abs(inner_product(x, y)) <= frobenius_norm(x) * frobenius_norm(y) + 1e-12
    # inner product equals Tr(X^H Y)
    assert inner_product(x, y) == pytest.approx(complex(np.trace(x.matrix.conj().T @ y.matrix)))
    with pytest.raises(ShapeError):
        inner_product(x, random_tensor(TensorShape((2,), (3,)), RNG))


def test_kronecker_identity_and_unfolding():
    ia, ib = make_identity(TensorShape.square((2,))), make_identity(TensorShape.square((3,)))
    assert kronecker(ia, ib) == make_identity(TensorShape.square((6,)))
    x = random_tensor(TensorShape.square((2,)), RNG)
    y = random_tensor(TensorShape.square((3,)), RNG)
    assert np.allclose(kronecker(x, y).matrix, np.kron(x.matrix, y.matrix))


def test_kronecker_eigenvalues_are_products():
    s = TensorShape.square((2,))
    x, y = random_hermitian(s, RNG), random_hermitian(TensorShape.square((3,)), RNG)
    kron_eigs = np.sort(hermitian_eig(kronecker(x, y)).eigenvalues)
    prod_eigs = np.sort(np.outer(hermitian_eig(x).eigenvalues, hermitian_eig(y).eigenvalues).ravel())
    assert np.allclose(kron_eigs, prod_eigs, atol=1e-10)


def test_kron_trace_relation():
    # <col(I), (C kron B) col(I)> = Tr(C B^T), evaluated both ways
    s = TensorShape.square((2, 2))
    c, b = random_tensor(s, RNG), random_tensor(s, RNG)
    ci = col_tensor(make_identity(s))
    lhs = inner_product(ci, kronecker(c, b) @ ci)
    rhs = complex(np.trace(c.matrix @ b.matrix.T))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_hermitian_eig_examples():
    ident = make_identity(TensorShape.square((2, 3)))
    spec = hermitian_eig(ident)
    assert np.allclose(spec.eigenvalues, 1.0)
    assert spec.herm_rank == 6

    diag = HermitianTensor(TensorShape.square((3,)), np.diag([3.0, 1.0, -2.0]))
    assert np.allclose(hermitian_eig(diag).eigenvalues, [3.0, 1.0, -2.0])

    h = random_hermitian(TensorShape.square((2, 2)), RNG)
    spec = hermitian_eig(h)
    assert abs(np.sum(spec.eigenvalues) - trace(h).real) <= 1e-10
    # orthonormal eigentensors and exact reconstruction
    for i, u in enumerate(spec.eigentensors):
        assert inner_product(u, u).real == pytest.approx(1.0, abs=1e-10)
        for v in spec.eigentensors[i + 1:]:
            assert abs(inner_product(u, v)) <= 1e-10
    assert frobenius_norm(reconstruct(spec) - h) <= 1e-9 * max(1.0, frobenius_norm(h))


def test_spectrum_rank_detection():
    h = HermitianTensor(TensorShape.square((4,)), np.diag([2.0, 1.0, 1e-14, 0.0]))
    assert hermitian_eig(h).herm_rank == 2


def test_spectral_map_examples():
    s = TensorShape.square((2, 2))
    zero = make_zero(s)
    assert np.allclose(tensor_exp(zero).matrix, np.eye(4))

    h = random_hermitian(s, RNG)
    assert frobenius_norm(tensor_log(tensor_exp(h)) - h) <= 1e-9 * max(1.0, frobenius_norm(h))

    sq = spectral_map(h, lambda x: x**2)
    assert np.allclose(sq.matrix, (h @ h).matrix, atol=1e-10)

    # commutes with its argument
    comm = sq.matrix @ h.matrix - h.matrix @ sq.matrix
    assert np.max(np.abs(comm)) <= 1e-10

    with pytest.raises(DomainError):
        tensor_log(random_hermitian(s, RNG) - 10.0 * make_identity(s))


def test_scalar_only_function_takes_the_per_element_path():
    # math.exp and math.log1p reject arrays, so each eigenvalue goes through f on its own
    h = random_positive(TensorShape.square((2, 2)), RNG)
    for scalar, vectorised in ((math.exp, np.exp), (lambda x: math.log1p(x), np.log1p)):
        np.testing.assert_allclose(spectral_map(h, scalar).matrix, spectral_map(h, vectorised).matrix,
                                   rtol=0, atol=1e-12)
    with pytest.raises(DomainError, match="undefined at eigenvalues"):
        spectral_map(h, lambda x: math.nan)


def test_spectral_mapping_eigenvalues():
    h = random_hermitian(TensorShape.square((3,)), RNG)
    f = np.exp
    mapped = spectral_map(h, f)
    assert np.allclose(
        hermitian_eig(mapped).eigenvalues,
        np.sort(f(hermitian_eig(h).eigenvalues))[::-1],
        atol=1e-10,
    )


def test_abs_tensor():
    s = TensorShape.square((2, 2))
    pos = random_positive(s, RNG)
    assert frobenius_norm(abs_tensor(pos) - pos) <= 1e-9

    ident = make_identity(s)
    assert frobenius_norm(abs_tensor(-1.0 * ident) - ident) <= 1e-12

    x = random_tensor(s, RNG)
    sv = np.linalg.svd(x.matrix, compute_uv=False)
    assert np.allclose(hermitian_eig(abs_tensor(x)).eigenvalues, sv, atol=1e-9)


def test_complex_power():
    s = TensorShape.square((2,))
    c = random_positive(s, RNG)
    assert frobenius_norm(complex_power(c, 0.0) - make_identity(s)) <= 1e-12
    assert frobenius_norm(complex_power(c, 1.0) - c) <= 1e-10

    # C^{it} is unitary: preserves Frobenius norm of any tensor it acts on
    for t in (-1.7, 0.3, 2.5):
        u = complex_power(c, 1j * t)
        x = random_tensor(TensorShape((2,), (3,)), RNG)
        assert frobenius_norm(u @ x) == pytest.approx(frobenius_norm(x), rel=1e-10)

    # C^{1+it} = C * C^{it}
    t = 0.8
    assert np.allclose(complex_power(c, 1 + 1j * t).matrix, (c @ complex_power(c, 1j * t)).matrix, atol=1e-10)

    with pytest.raises(DomainError):
        complex_power(make_identity(s) * -1.0, 0.5 + 0j)
    # delta shift rescues a nonpositive spectrum
    shifted = complex_power(make_zero(s), 1.0, delta=2.0)
    assert np.allclose(shifted.matrix, 2.0 * np.eye(2))
    with pytest.raises(ArgumentError):
        complex_power(c, 1.0, delta=-0.1)


def test_hermitian_det():
    assert hermitian_det(make_identity(TensorShape.square((2, 2)))) == pytest.approx(1.0)
    d = HermitianTensor(TensorShape.square((3,)), np.diag([3.0, 2.0, 1.0]))
    assert hermitian_det(d) == pytest.approx(6.0)


def test_det_of_complex_power_product():
    # det of |prod C_i^{1+it}| equals prod det C_i
    rng = np.random.default_rng(7)
    s = TensorShape.square((3,))
    cs = [random_positive(s, rng) for _ in range(3)]
    for t in (0.0, 0.6, -1.3):
        prod = cs[0].matrix @ np.eye(3)
        prod = np.eye(3, dtype=complex)
        for c in cs:
            prod = prod @ complex_power(c, 1 + 1j * t).matrix
        lhs = hermitian_det(abs_tensor(Tensor(s, prod)))
        rhs = np.prod([hermitian_det(c) for c in cs])
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_hermitian_closure_and_canonical_storage():
    s = TensorShape.square((2, 2))
    a, b = random_hermitian(s, RNG), random_hermitian(s, RNG)
    for result in (a + b, a - b, 2.5 * a, spectral_map(a, np.exp)):
        assert isinstance(result, HermitianTensor)
        dev = np.max(np.abs(result.matrix - result.matrix.conj().T))
        assert dev <= 1e-10

    with pytest.raises(ArgumentError):
        HermitianTensor(s, random_tensor(s, RNG).matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_hermitian_rejects_non_finite_entries(bad):
    s = TensorShape.square((2,))
    mat = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    mat[1, 1] = bad
    with pytest.raises(ArgumentError, match="finite"):
        HermitianTensor(s, mat)
    # finite entries whose Frobenius norm overflows are still accepted
    with np.errstate(over="ignore"):
        assert HermitianTensor(s, np.diag([1e200, -1e200])).matrix[0, 0] == 1e200


def test_unfolding_homomorphism_random_sweep():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.integers(1, 3)
        n = rng.integers(1, 3)
        rows = tuple(rng.integers(1, 4, size=m))
        mids = tuple(rng.integers(1, 4, size=n))
        cols = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
        x = random_tensor(TensorShape(rows, mids), rng)
        y = random_tensor(TensorShape(mids, cols), rng)
        prod = x @ y
        assert np.allclose(prod.matrix, x.matrix @ y.matrix, rtol=1e-12, atol=1e-12)
        assert np.allclose(prod.entries, einsum_einstein(x.entries, y.entries, n), atol=1e-11)


def test_unitary_tensor_roundtrip():
    u = random_unitary(TensorShape.square((2, 2)), RNG)
    assert frobenius_norm(u @ conj_transpose(u) - make_identity(u.shape)) <= 1e-10


def test_addition_requires_identical_shapes():
    x = random_tensor(TensorShape((2, 3), (2,)), RNG)
    y = random_tensor(TensorShape((3, 2), (2,)), RNG)  # same size, different shape
    with pytest.raises(ShapeError):
        x + y
    with pytest.raises(ShapeError):
        x - random_tensor(TensorShape((2,), (2,)), RNG)


def test_immutability():
    x = random_tensor(TensorShape.square((2,)), RNG)
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 5.0
    with pytest.raises(AttributeError):
        x.matrix = np.eye(2)
