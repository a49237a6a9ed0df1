"""Density, majorization-average, and multivariate-inequality checks."""

import math
import tracemalloc

import numpy as np
import pytest

from tensor_chernoff import (
    HermitianTensor,
    TensorShape,
    abs_tensor,
    make_identity,
    spectral_map,
    tensor_exp,
)
from tensor_chernoff.errors import ArgumentError, DomainError
from tensor_chernoff import inequalities, runner
from tensor_chernoff.inequalities import (
    PowerProductSpectrum,
    QuadratureSpec,
    _legendre_rule,
    beta0_density,
    beta0_mass_error,
    beta0_tail_mass,
    beta_density,
    commuting_spectra,
    golden_thompson_lhs,
    golden_thompson_rhs_linear,
    golden_thompson_rhs_log,
    lie_trotter_error,
    lie_trotter_proof_bound,
    multivariate_violations,
    verify_discrete_average_majorization,
)
from tensor_chernoff.majorization import check_kyfan_sum_inequality
from tensor_chernoff.norms import ky_fan_norm
from tensor_chernoff.sampling import diagonal_in, random_hermitian, random_positive, random_tensor, random_unitary

from oracles import beta0_antiderivative, multivariate_rhs_oracle, warn_if_not_log_exp_convex

RNG = np.random.default_rng(20240815)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def test_beta0_values():
    assert beta0_density(0.0) == pytest.approx(math.pi / 4)
    ts = np.linspace(-4, 4, 101)
    assert np.allclose(beta0_density(ts), beta0_density(-ts))
    assert np.all(beta0_density(ts) >= 0)
    # matches the unsimplified cosh form
    assert np.allclose(beta0_density(ts), math.pi / (2 * (np.cosh(math.pi * ts) + 1)))


def test_beta0_quadrature_mass_vs_antiderivative():
    quad = QuadratureSpec(truncation=6.0, node_count=256)
    t, w = quad.nodes_weights()
    mass = float(np.sum(beta0_density(t) * w))
    expected = beta0_antiderivative(6.0) - beta0_antiderivative(-6.0)
    assert abs(mass - expected) <= 1e-8
    assert beta0_tail_mass(6.0) == pytest.approx(1.0 - expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_beta0_density_past_the_cosh_squared_overflow_is_silent_zero():
    assert beta0_density(300.0) == 0.0
    assert np.all(beta0_density(np.array([-300.0, 300.0])) == 0.0)
    assert math.isfinite(beta0_mass_error(QuadratureSpec(truncation=300.0, node_count=64)))


def test_beta_theta_limit_and_domain():
    ts = np.linspace(-3, 3, 41)
    assert np.max(np.abs(beta_density(1e-4, ts) - beta0_density(ts))) <= 1e-6
    assert np.all(beta_density(0.5, ts) >= 0)
    with pytest.raises(ArgumentError):
        beta_density(0.0, 0.0)
    with pytest.raises(ArgumentError):
        beta_density(1.5, 0.0)


def test_quadrature_spec_validation():
    with pytest.raises(ArgumentError):
        QuadratureSpec(truncation=-1.0)
    with pytest.raises(ArgumentError):
        QuadratureSpec(node_count=8)
    # the cap is checked before any rule is built: it bounds the rule's O(node_count^2) Newton time
    for count in (4096, 10**6):
        with pytest.raises(ArgumentError, match=rf"node_count must be in \[16, 4096\), got {count}"):
            QuadratureSpec(node_count=count)
    assert QuadratureSpec(node_count=4095).node_count == 4095


def _tuple(*ts) -> np.ndarray:
    """One tuple of tensors as a (1, m, d, d) stack."""
    return np.stack([t.matrix for t in ts])[None]


def test_discrete_measure_validation():
    # a measure's weights are nonnegative and sum to 1; a zero weight drops its atom
    c = random_hermitian(S22, RNG).matrix[None]
    atoms = np.stack([c[0], 2.0 * c[0]])[None]
    rep = verify_discrete_average_majorization(c, atoms, [[1.0, 0.0]], np.exp, 1, "weak")
    assert rep.premise_holds[0] and rep.conclusion_lhs[0] == pytest.approx(rep.conclusion_rhs[0], rel=1e-12)
    for bad in ([[0.9, 0.0]], [[1.5, -0.5]], [[0.5, 0.5, 0.0]]):
        with pytest.raises(ArgumentError):
            verify_discrete_average_majorization(c, atoms, bad, np.exp, 1, "weak")
    with pytest.raises(ArgumentError):
        verify_discrete_average_majorization(c, atoms, [[0.5, 0.5]], np.exp, 1, "mean")


# ---------------------------------------------------------------------------
# Discrete majorization averages
# ---------------------------------------------------------------------------

S22 = TensorShape.square((2, 2))


def _commuting_family(rng, dim_shape, n_atoms, positive=False):
    u = random_unitary(dim_shape, rng).matrix
    eigs = commuting_spectra(rng, n_atoms, dim_shape.unfold_rows, 0.3 if positive else -2.0, 3.0)
    return u, diagonal_in(u, eigs), eigs


def test_single_atom_equality():
    c = random_hermitian(S22, RNG)
    rep = verify_discrete_average_majorization(c.matrix[None], _tuple(c), [[1.0]], np.exp, k=2, mode="weak")
    assert rep.premise_holds[0] and rep.conclusion_holds[0] and not rep.violated[0]
    assert rep.conclusion_lhs[0] == pytest.approx(rep.conclusion_rhs[0], rel=1e-10)


def test_constructed_premise_conclusion_holds():
    rng = np.random.default_rng(99)
    u, ds, eigs = _commuting_family(rng, S22, 2)
    w = (0.3, 0.7)
    avg = w[0] * eigs[0] + w[1] * eigs[1]
    c = diagonal_in(u, avg)[None]
    for mode, f in (("weak", np.exp), ("strong", lambda x: x**2)):
        rep = verify_discrete_average_majorization(c, ds[None], [w], f, k=2, mode=mode)
        assert rep.premise_holds[0]
        assert rep.conclusion_holds[0], rep


def test_log_mode_constructed_premise():
    rng = np.random.default_rng(100)
    u, ds, eigs = _commuting_family(rng, S22, 3, positive=True)
    w = (0.2, 0.5, 0.3)
    geo = np.exp(sum(wi * np.log(e) for wi, e in zip(w, eigs)))
    c = diagonal_in(u, geo)[None]
    for mode in ("weak_log", "log"):
        for form in ("log", "linear"):
            rep = verify_discrete_average_majorization(c, ds[None], [w], np.exp, k=3, mode=mode, conclusion_form=form)
            assert rep.premise_holds[0], (mode, form)
            assert rep.conclusion_holds[0], rep


def test_log_mode_rejects_nonpositive():
    c = random_hermitian(S22, RNG) - 10.0 * make_identity(S22)
    with pytest.raises(DomainError):
        verify_discrete_average_majorization(c.matrix[None], _tuple(random_positive(S22, RNG)), [[1.0]],
                                             np.exp, 1, "weak_log")


def test_randomized_no_violations():
    # the runner's draws and stacks: every premise holds and no conclusion fails
    check = runner._discrete_majorization_check(runner._premise_draws(np.random.default_rng(4242), 200))
    assert check.passed and check.lhs == 0.0
    assert check.detail.endswith("premise held in 200"), check.detail


# ---------------------------------------------------------------------------
# Multivariate norm inequality
# ---------------------------------------------------------------------------

def test_single_tensor_rhs_matches_lhs():
    c = random_positive(S22, RNG)
    quad = QuadratureSpec(truncation=6.0, node_count=64)
    for k in (1, 3):
        (lhs,) = golden_thompson_lhs(lambda x: x, _tuple(c), k)
        assert lhs == pytest.approx(ky_fan_norm(c, k), rel=1e-9)
        rhs = golden_thompson_rhs_log(lambda x: x, _tuple(c), k, quad)
        assert lhs <= rhs.value[0] + rhs.error_bound[0] + 1e-9
        assert abs(lhs - rhs.value[0]) <= rhs.error_bound[0] + 1e-7 * lhs
        lin = golden_thompson_rhs_linear(lambda x: x, _tuple(c), k, quad)
        assert lhs <= lin.value[0] + lin.error_bound[0] + 1e-9
    # a signed f: both sides are Ky Fan norms, so they sum |f| and still agree
    for k in (1, 3):
        (lhs,) = golden_thompson_lhs(lambda x: x - 10.0, _tuple(c), k)
        lin = golden_thompson_rhs_linear(lambda x: x - 10.0, _tuple(c), k, quad)
        assert abs(lhs - lin.value[0]) <= lin.error_bound[0] + 1e-7 * lhs


def test_commuting_family_equality():
    rng = np.random.default_rng(55)
    u, cs, eigs = _commuting_family(rng, S22, 3, positive=True)
    quad = QuadratureSpec(truncation=6.0, node_count=128)
    lam_prod = np.prod(eigs, axis=0)
    for f, k in ((lambda x: x, 1), (lambda x: x**2, 2)):
        (lhs,) = golden_thompson_lhs(f, cs[None], k)
        expected = float(np.sum(np.sort(f(lam_prod))[::-1][:k]))
        assert lhs == pytest.approx(expected, rel=1e-8)
        rhs = golden_thompson_rhs_log(f, cs[None], k, quad)
        assert abs(lhs - rhs.value[0]) <= rhs.error_bound[0] + 1e-7 * (1 + abs(lhs))


def test_random_pairs_inequality_holds():
    rng = np.random.default_rng(77)
    quad = QuadratureSpec(truncation=6.0, node_count=128)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        shape = TensorShape.square((dim,))
        cs = [random_positive(shape, rng) for _ in range(int(rng.integers(2, 4)))]
        k = int(rng.integers(1, dim + 1))
        for f in (lambda x: x, lambda x: x**2):
            log_bad, lin_bad = multivariate_violations(_tuple(*cs), k, f, quad)
            assert log_bad.shape == lin_bad.shape == (1,)
            assert not log_bad.any() and not lin_bad.any()


def test_monotone_refinement():
    rng = np.random.default_rng(88)
    cs = [random_positive(S22, rng) for _ in range(2)]
    base = QuadratureSpec(truncation=6.0, node_count=64)
    doubled = QuadratureSpec(truncation=6.0, node_count=128)
    r1 = golden_thompson_rhs_log(lambda x: x, _tuple(*cs), 2, base)
    r2 = golden_thompson_rhs_log(lambda x: x, _tuple(*cs), 2, doubled)
    assert abs(r2.value - r1.value) <= r1.quadrature_error + 1e-10 * (1 + abs(r1.value))


def test_quadrature_matches_node_by_node_oracle():
    rng = np.random.default_rng(4242)
    quad = QuadratureSpec(truncation=6.0, node_count=48)
    fields = ("value", "quadrature_error", "truncation_bound", "error_bound")
    fs = {"x": lambda x: x, "x^2": lambda x: x**2, "exp": np.exp, "x-10": lambda x: x - 10.0}
    for dims in ((2,), (3,), (2, 2)):
        shape = TensorShape.square(dims)
        for count in (2, 3):
            # spectra reaching down to 0.05, so the low end of |f| also sets the log truncation term
            cs = [random_positive(shape, rng, 0.05, 2.0) for _ in range(count)]
            assert not np.allclose(cs[0].matrix @ cs[1].matrix, cs[1].matrix @ cs[0].matrix)
            for k in (1, 2):
                for name, f in fs.items():
                    expected = multivariate_rhs_oracle(f, cs, k, quad.truncation, quad.node_count)
                    got = {"linear": golden_thompson_rhs_linear(f, _tuple(*cs), k, quad)}
                    if name != "x-10":
                        got["log"] = golden_thompson_rhs_log(f, _tuple(*cs), k, quad)
                    for form, result in got.items():
                        for field in fields:
                            want = expected[form][field]
                            assert getattr(result, field)[0] == pytest.approx(want, rel=1e-10, abs=0.0), (
                                dims, count, k, name, form, field,
                            )


def test_shared_spectrum_matches_wrappers_bit_for_bit():
    rng = np.random.default_rng(6060)
    quad = QuadratureSpec(truncation=6.0, node_count=40)
    fields = ("value", "error_bound", "truncation_bound", "quadrature_error")
    fs = {
        "x": lambda x: x,
        "x^2": lambda x: x**2,
        "exp": np.exp,
        "relu": lambda x: np.maximum(x + 1.0, 0.0),
        "x-10": lambda x: x - 10.0,
    }
    for shape in (TensorShape.square((2,)), TensorShape.square((3,)), S22):
        for count in (1, 2, 3):
            cs = [random_positive(shape, rng, 0.05, 2.0) for _ in range(count)]
            spectrum = PowerProductSpectrum(_tuple(*cs), quad)
            for k in (1, 2):
                # one object serves every f and both forms, in any order
                for name, f in reversed(fs.items()):
                    log, linear = spectrum.forms(f, k)
                    pairs = [(linear, golden_thompson_rhs_linear(f, _tuple(*cs), k, quad))]
                    if name != "x-10":
                        pairs.append((log, golden_thompson_rhs_log(f, _tuple(*cs), k, quad)))
                    for got, want in pairs:
                        for field in fields:
                            assert getattr(got, field) == getattr(want, field), (count, k, name, field)


def test_power_product_spectrum_validation():
    quad = QuadratureSpec(truncation=6.0, node_count=32)
    with pytest.raises(ArgumentError):
        PowerProductSpectrum(np.zeros((1, 0, 4, 4)), quad)
    c = random_hermitian(S22, RNG) - 10.0 * make_identity(S22)
    with pytest.raises(DomainError):
        PowerProductSpectrum(_tuple(c), quad)
    with pytest.raises(ArgumentError):  # only the left side is available without a rule
        PowerProductSpectrum(_tuple(random_positive(S22, RNG))).forms(np.exp, 1)


def test_scalar_only_function_matches_the_vectorised_forms():
    # math.exp and math.log1p reject arrays, so each f value comes from the per-element fallback
    quad = QuadratureSpec(truncation=6.0, node_count=32)
    cs = np.concatenate([_tuple(*(random_positive(S22, RNG, 0.05, 2.0) for _ in range(3))) for _ in range(2)])
    spectrum = PowerProductSpectrum(cs, quad)
    for scalar, vectorised in ((math.exp, np.exp), (lambda x: math.log1p(x), np.log1p)):
        for k in (1, 2):
            np.testing.assert_allclose(spectrum.lhs(scalar, k), spectrum.lhs(vectorised, k), rtol=1e-12)
            for got, want in zip(spectrum.forms(scalar, k), spectrum.forms(vectorised, k)):
                np.testing.assert_allclose(got.value, want.value, rtol=1e-12)
                np.testing.assert_allclose(got.error_bound, want.error_bound, rtol=1e-12)
    with pytest.raises(DomainError):
        spectrum.lhs(lambda x: math.nan, 1)


def _explicit_node_singular_values(us, lams, ts):
    """``np.linalg.svd`` of ``prod_i U_i diag(lam_i^(1+it)) U_i^H``, multiplied out at every node t."""
    z = 1.0 + 1j * ts[:, None, None]
    prod = np.eye(us.shape[-1], dtype=np.complex128)
    for u, lam in zip(us, lams):
        prod = prod @ (u * np.exp(z * np.log(lam))) @ u.conj().T
    return np.linalg.svd(prod, compute_uv=False)


def _node_singular_value_errors(seed, per_shape=4):
    """``(m, worst error / top singular value, largest node-to-node change)`` per drawn (m, d) stack.

    Each stack holds ``per_shape`` tuples of m Haar-rotated spectra in ``e^[-1.5, 1.5]``; the
    errors compare both rules of 16, 64 and 256 nodes against the multiplied-out products.
    """
    rng = np.random.default_rng(seed)
    out = []
    for m in range(1, 5):
        for dim in range(1, 7):
            g = rng.standard_normal((per_shape, m, dim, dim, 2)) @ np.array([1.0, 1j])
            us = np.linalg.qr(g)[0]
            lams = np.exp(rng.uniform(-1.5, 1.5, (per_shape, m, dim)))
            cs = (us * lams[..., None, :]) @ np.conj(us.swapaxes(-1, -2))
            err = spread = 0.0
            for node_count in (16, 64, 256):
                quad = QuadratureSpec(truncation=6.0, node_count=node_count)
                spectrum = PowerProductSpectrum(cs, quad)
                for count, (sv, _, _) in zip((node_count, max(16, node_count // 2)), spectrum._rules):
                    t, _ = quad.nodes_weights(count)
                    for b in range(per_shape):
                        want = _explicit_node_singular_values(us[b], lams[b], t)
                        err = max(err, float(np.max(np.abs(sv[b] - want) / want[:, :1])))
                    spread = max(spread, float(np.max(np.abs(sv - sv[:, :1]))))
            out.append((m, err, spread))
    return out


def test_node_singular_values_match_explicit_products():
    rows = _node_singular_value_errors(2718)
    for m, err, spread in rows:
        assert err <= 1e-12, (m, err)
        if m <= 2:  # only the middle factors carry t: every node reads node 0's spectrum exactly
            assert spread == 0.0, (m, spread)
    # ... and with a middle factor they do depend on t, so the comparison above can fail
    assert max(spread for m, _, spread in rows if m == 3) > 1e-6


def test_node_singular_values_at_t_zero_fail_the_explicit_comparison(monkeypatch):
    # negative control: every node at t = 0 drops all the phases; the gate checks miss it
    original = PowerProductSpectrum._node_singular_values
    monkeypatch.setattr(PowerProductSpectrum, "_node_singular_values", lambda self, ts: original(self, 0.0 * ts))
    worst = {}
    for m, err, spread in _node_singular_value_errors(2718, per_shape=2):
        worst[m] = max(worst.get(m, 0.0), err)
    assert worst[1] <= 1e-12 and worst[2] <= 1e-12  # the phases matter only between two links
    assert worst[3] > 1e-3 and worst[4] > 1e-3


@pytest.mark.parametrize("block", [1, 3 * 64 * 9])
def test_node_blocking_does_not_change_a_bit(monkeypatch, block):
    rng = np.random.default_rng(1618)
    quad = QuadratureSpec(truncation=6.0, node_count=64)
    shape = TensorShape.square((3,))
    fs = (lambda x: x**2, np.exp)
    ks = np.array([1, 2, 3, 1, 2, 3, 1])
    stacks = [
        np.stack([_tuple(*(random_positive(shape, rng, 0.05, 2.0) for _ in range(m)))[0] for _ in range(7)])
        for m in (1, 2, 3)
    ]
    wholes = [PowerProductSpectrum(cs, quad) for cs in stacks]  # 7 tuples of 64 nodes fit one block
    monkeypatch.setattr(inequalities, "_NODE_BLOCK", block)
    for m, cs, whole in zip((1, 2, 3), stacks, wholes):
        blocked = PowerProductSpectrum(cs, quad)
        for (sv, _, _), (sv_blocked, _, _) in zip(whole._rules, blocked._rules):
            assert np.array_equal(sv, sv_blocked), m
        for f in fs:
            for got, want in zip(blocked.forms(f, ks), whole.forms(f, ks)):
                for field in ("value", "error_bound", "truncation_bound", "quadrature_error"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), (m, field)


def test_chains_without_a_middle_factor_are_computed_once_for_both_rules(monkeypatch):
    rng = np.random.default_rng(1619)
    quad = QuadratureSpec(truncation=6.0, node_count=64)
    shape = TensorShape.square((3,))
    original = PowerProductSpectrum._node_singular_values
    sizes = []
    monkeypatch.setattr(PowerProductSpectrum, "_node_singular_values",
                        lambda self, ts: sizes.append(ts.size) or original(self, ts))
    for m in (1, 2, 3):
        cs = np.concatenate([_tuple(*(random_positive(shape, rng, 0.05, 2.0) for _ in range(m))) for _ in range(5)])
        sizes.clear()
        (full, _, _), (half, _, _) = PowerProductSpectrum(cs, quad)._rules
        if m <= 2:  # one evaluation with a node axis of 1 serves both rules
            assert sizes == [64] and full is half and full.shape == (5, 1, 3)
        else:
            assert sizes == [64, 32] and full.shape == (5, 64, 3) and half.shape == (5, 32, 3)


def test_legendre_rule_is_cached_and_read_only():
    x, w = _legendre_rule(48)
    assert _legendre_rule(48)[0] is x
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # leggauss's weights carry a relative error near 1e-12 at 48 nodes (the rule's own stay near 3e-14)
    ref_x, ref_w = np.polynomial.legendre.leggauss(48)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=2e-16)
    np.testing.assert_allclose(w, ref_w, rtol=1e-11)

    quad = QuadratureSpec(truncation=4.0, node_count=48)
    t1, w1 = quad.nodes_weights()
    expected = (t1.copy(), w1.copy())
    t1 *= 2.0  # the returned arrays are the caller's own
    t2, w2 = quad.nodes_weights()
    assert np.array_equal(t2, expected[0]) and np.array_equal(w2, expected[1])
    assert np.array_equal(t2, x * 4.0) and np.array_equal(w2, w * 4.0)


@pytest.mark.parametrize("n", [16, 17, 48, 255, 256, 4095])
def test_legendre_rule_is_symmetric_positive_and_exact_on_even_powers(n):
    x, w = _legendre_rule(n)
    assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0) and abs(math.fsum(w) - 2.0) < 1e-14
    if n % 2:
        assert x[n // 2] == 0.0
    # int x^(2j) dx over [-1, 1] is 2 / (2j + 1); n nodes integrate degree 2n - 1 exactly
    moments, power = np.empty(n), np.ones(n)
    for j in range(n):
        moments[j] = w @ power
        power *= x * x
    np.testing.assert_allclose(moments, 2.0 / (2.0 * np.arange(n) + 1.0), rtol=1e-15 * n, atol=0)


def test_legendre_rule_memory_is_linear_in_the_node_count():
    # a companion-matrix eigensolve at 4,095 nodes holds a 128 MiB matrix; the recurrence holds a few node arrays
    tracemalloc.start()
    try:
        _legendre_rule.__wrapped__(4095)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_rejects_nonpositive_tensors():
    c = random_hermitian(S22, RNG) - 10.0 * make_identity(S22)
    with pytest.raises(DomainError):
        golden_thompson_lhs(np.exp, _tuple(c), 1)


def test_convexity_warning_helper():
    assert warn_if_not_log_exp_convex(lambda x: x**2, 0.1, 10.0)
    with pytest.warns(UserWarning):
        ok = warn_if_not_log_exp_convex(lambda x: math.log(1 + x), 0.1, 10.0)
    assert not ok


# ---------------------------------------------------------------------------
# Lie-Trotter
# ---------------------------------------------------------------------------

def test_lie_trotter_commuting_exact():
    d1 = HermitianTensor(TensorShape.square((3,)), np.diag([0.3, -0.2, 1.0]))
    d2 = HermitianTensor(TensorShape.square((3,)), np.diag([0.5, 0.1, -0.4]))
    for n in (1, 2, 8, 64):
        assert lie_trotter_error([d1, d2], n) <= 1e-10


def test_lie_trotter_decay_and_bound():
    rng = np.random.default_rng(11)
    l1 = random_hermitian(S22, rng)
    l2 = random_hermitian(S22, rng)
    e1 = lie_trotter_error([l1, l2], 1)
    e64 = lie_trotter_error([l1, l2], 64)
    assert e1 / e64 >= 32.0
    for n in (1, 2, 4, 16, 64):
        assert lie_trotter_error([l1, l2], n) <= lie_trotter_proof_bound(l1, l2, n)
    with pytest.raises(ArgumentError):
        lie_trotter_error([l1], 0)


# ---------------------------------------------------------------------------
# Ky Fan norms from one spectrum against the composed public maps
# ---------------------------------------------------------------------------

def test_spectral_paths_match_composed_maps():
    rng = np.random.default_rng(4242)

    def close(got, want):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    for shape in (TensorShape.square((2,)), TensorShape.square((3,)), S22):
        dim = shape.unfold_rows
        for draw in (random_hermitian, random_tensor):  # signed spectra, then non-Hermitian
            for s in (1.0, 1.5, 3.0):
                ts = [draw(shape, rng) for _ in range(3)]
                total = ts[0] + ts[1] + ts[2]
                for k in range(1, dim + 1):
                    rep = check_kyfan_sum_inequality(_tuple(*ts), s, k)
                    close(rep.lhs[0], ky_fan_norm(spectral_map(abs_tensor(total), lambda x: x**s), k))
                    close(rep.rhs[0], 3.0 ** (s - 1.0) * sum(
                        ky_fan_norm(spectral_map(abs_tensor(t), lambda x: x**s), k) for t in ts
                    ))

        for f in (lambda x: x - 0.5, lambda x: x**3, np.exp):
            c = random_hermitian(shape, rng)
            ds = (random_hermitian(shape, rng), random_hermitian(shape, rng))
            for k in range(1, dim + 1):
                rep = verify_discrete_average_majorization(c.matrix[None], _tuple(*ds), [(0.25, 0.75)], f, k, "weak")
                close(rep.conclusion_lhs[0], ky_fan_norm(spectral_map(c, f), k))
                close(rep.conclusion_rhs[0], 0.25 * ky_fan_norm(spectral_map(ds[0], f), k)
                      + 0.75 * ky_fan_norm(spectral_map(ds[1], f), k))

        for f in (lambda x: x - 2.0, lambda x: x**2):
            cs = [random_positive(shape, rng) for _ in range(3)]
            log_sum = spectral_map(cs[0], np.log) + spectral_map(cs[1], np.log) + spectral_map(cs[2], np.log)
            for k in range(1, dim + 1):
                close(golden_thompson_lhs(f, _tuple(*cs), k)[0], ky_fan_norm(spectral_map(tensor_exp(log_sum), f), k))
