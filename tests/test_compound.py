"""Compound power facts against eigenvalue-product enumeration."""

import numpy as np
import pytest

from tensor_chernoff import (
    HermitianTensor,
    TensorShape,
    abs_tensor,
    as_hermitian,
    complex_power,
    conj_transpose,
    make_identity,
    spectral_map,
)
from tensor_chernoff.errors import ArgumentError
from tensor_chernoff.sampling import random_hermitian, random_positive, random_tensor

from oracles import compound, compound_norm_check, subset_products

RNG = np.random.default_rng(20240814)


def test_compound_edge_orders():
    s = TensorShape.square((3,))
    x = random_tensor(s, RNG)
    assert np.allclose(compound(x, 1).entries, x.matrix)
    assert compound(x, 3).dim == 1
    assert compound(x, 3).entries[0, 0] == pytest.approx(np.linalg.det(x.matrix))
    with pytest.raises(ArgumentError):
        compound(x, 0)
    with pytest.raises(ArgumentError):
        compound(x, 4)


def test_compound_of_diagonal():
    d = HermitianTensor(TensorShape.square((3,)), np.diag([3.0, 2.0, 1.0]))
    rep = compound(d, 2)
    eigs = np.sort(np.linalg.eigvalsh(rep.entries))[::-1]
    assert np.allclose(eigs, sorted(subset_products([3.0, 2.0, 1.0], 2), reverse=True))


def test_compound_hermitian_stays_hermitian():
    h = random_hermitian(TensorShape.square((4,)), RNG)
    rep = compound(h, 2)
    assert np.max(np.abs(rep.entries - rep.entries.conj().T)) <= 1e-10


def test_adjoint_fact():
    x = random_tensor(TensorShape.square((4,)), RNG)
    for k in (2, 3):
        lhs = compound(conj_transpose(x), k).entries
        rhs = compound(x, k).entries.conj().T
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_multiplicativity_fact():
    s = TensorShape.square((4,))
    x, y = random_tensor(s, RNG), random_tensor(s, RNG)
    for k in (2, 3):
        lhs = compound(x, k).entries @ compound(y, k).entries
        rhs = compound(x @ y, k).entries
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9


def test_abs_compatibility_fact():
    x = random_tensor(TensorShape.square((4,)), RNG)
    for k in (2, 3):
        lhs = compound(abs_tensor(x), k).entries
        rhs = abs_tensor(compound(x, k).as_tensor()).matrix
        assert np.allclose(lhs, rhs, atol=1e-8)


def test_power_fact_positive():
    c = random_positive(TensorShape.square((4,)), RNG)
    for k in (2, 3):
        for p in (0.5, 2.0, 3.0):
            lhs = compound(spectral_map(c, lambda v: v**p), k).entries
            rhs = spectral_map(as_hermitian(compound(c, k).as_tensor()), lambda v: v**p).matrix
            scale = max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9


def test_complex_power_fact():
    c = random_positive(TensorShape.square((4,)), RNG)
    for k, t in ((2, -1.4), (2, 0.7), (3, 2.0)):
        lhs = compound(complex_power(c, 1j * t), k).entries
        rhs = complex_power(as_hermitian(compound(c, k).as_tensor()), 1j * t).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_norm_check_examples():
    ident = make_identity(TensorShape.square((4,)))
    for k in (1, 2, 4):
        rep = compound_norm_check(ident, k)
        assert rep.holds and rep.lhs == pytest.approx(1.0)

    d = HermitianTensor(TensorShape.square((2,)), np.diag([4.0, 2.0]))
    rep = compound_norm_check(d, 2)
    assert rep.holds and rep.lhs == pytest.approx(8.0)

    h = random_hermitian(TensorShape.square((4,)), RNG)
    for k in (2, 3):
        rep = compound_norm_check(h, k)
        assert rep.holds, rep
        # frozen oracle: product of top-k singular values by enumeration
        sv = np.sort(np.abs(np.linalg.eigvalsh(h.matrix)))[::-1]
        assert rep.rhs == pytest.approx(max(subset_products(sv, k)), rel=1e-9)


def test_dimension_cap():
    big = random_tensor(TensorShape.square((3, 3)), RNG)
    with pytest.raises(ArgumentError):
        compound(big, 2)
