"""Contraction bounds, transfer-operator expectations, and tail bounds."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from tensor_chernoff import TensorShape, chernoff, norms
from tensor_chernoff.chernoff import (
    ChernoffParams,
    PolynomialSpec,
    VertexTensorAssignment,
    assumption3_margins,
    contraction_certificate,
    corollary_bound,
    empirical_tail_sweep,
    expectation_bound,
    fit_gaussian_domination,
    gamma_bounds,
    load_assignment,
    random_assignment,
    save_assignment,
    tail_table,
    theorem_bound,
    transfer_expectation,
)
from tensor_chernoff.errors import (
    ArgumentError,
    DomainError,
    NumericalError,
    PreconditionError,
)
from tensor_chernoff.graphs import (
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random_regular,
    sample_walks_array,
    spectral_expansion,
)
from tensor_chernoff.inequalities import beta0_density
from tensor_chernoff.rng import stream

from oracles import (
    assembled_walk_sums,
    complex_stack_eigvalsh,
    complex_walk_sums,
    dense_contraction_norms,
    dense_transfer_expectation,
    direct_tail_p_hat,
    hermitian_coordinates,
    hermitian_stack,
    kronecker_exponentials,
    kronecker_gram_norms,
    kronecker_transfer_expectation,
    loop_random_assignment,
    scalar_theorem_bound,
)

S2 = TensorShape.square((2,))
S22 = TensorShape.square((2, 2))
S222 = TensorShape.square((2, 2, 2))


# ---------------------------------------------------------------------------
# gamma bounds
# ---------------------------------------------------------------------------

def test_gamma_bounds_zero_exponent():
    assert gamma_bounds(0.0, 1.0, 1.0, 0.0, 0.5) == (1.0, 0.0, 0.0, 0.5)


def test_gamma_bounds_numeric_example():
    g1, g2, g3, g4 = gamma_bounds(0.1, 1.0, 1.0, 0.0, 0.5)
    e = math.exp(0.1)
    assert g1 == pytest.approx(e)
    assert g2 == pytest.approx(0.5 * (e - 1))
    assert g3 == pytest.approx(e - 1)
    assert g4 == pytest.approx(0.5 * e)


def test_gamma_algebraic_identities():
    for t, r, a, b, lam in ((0.3, 2.0, 1.0, 0.7, 0.4), (0.05, 1.0, 0.0, 1.0, 0.9)):
        g1, g2, g3, g4 = gamma_bounds(t, r, a, b, lam)
        assert g2 == pytest.approx(lam * g3)
        assert g4 == pytest.approx(lam * g1)


# ---------------------------------------------------------------------------
# Polynomial spec
# ---------------------------------------------------------------------------

def test_polynomial_spec():
    p = PolynomialSpec((1.0, 0.0, 2.0), power=2.0)
    assert p.degree == 2
    assert p(1.0) == pytest.approx((1 + 2) ** 2)
    assert np.allclose(p(np.array([0.0, 2.0])), [(1.0) ** 2, (1 + 8) ** 2])
    assert PolynomialSpec.identity().is_identity
    with pytest.raises(ArgumentError):
        PolynomialSpec((1.0, -0.5))
    with pytest.raises(ArgumentError):
        PolynomialSpec((1.0,), power=0.5)
    with pytest.raises(DomainError):
        PolynomialSpec((0.0, 1.0), power=1.5)(np.array([-1.0]))
    assert np.array_equal(PolynomialSpec((0.0, 1.0), power=3.0)(np.array([-2.0])), [-8.0])


@pytest.mark.parametrize("p", range(1, 8))
def test_integer_power_through_the_float_power_path(p):
    # PolynomialSpec raises to a float power also when it is an integer, so the two must agree bit for bit
    x = np.concatenate([np.random.default_rng(p).standard_normal(10**5), [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]])
    with np.errstate(over="ignore"):
        by_int, by_float = x ** int(p), x ** float(p)
    assert np.array_equal(by_int.view(np.uint64), by_float.view(np.uint64))
    spec = PolynomialSpec((0.25, 1.0, 0.0, 0.5), power=float(p))  # negative for x below about -0.244
    base = np.polynomial.polynomial.polyval(x[:-6], spec.coefficients)
    assert np.array_equal(spec(x[:-6]).view(np.uint64), (base ** int(p)).view(np.uint64))


# ---------------------------------------------------------------------------
# Contraction certificate and transfer expectation
# ---------------------------------------------------------------------------

def test_zero_assignment_certificate():
    g = gen_complete(4)
    zeros = np.zeros((g.n, 2, 2))
    with pytest.raises(ArgumentError):
        # radius 0 is rejected by ChernoffParams, but the certificate works
        ChernoffParams(kappa=1, k=1, lam_bar=0.5, dim=2, radius=0.0)
    rep = contraction_certificate(
        VertexTensorAssignment(g, S2, zeros), t=0.7, a=1.0, b=0.3, lam=spectral_expansion(g)[0]
    )
    # F is the identity: parts 2 and 3 are exactly zero, parts 1 and 4 contract
    assert rep.norms[1] <= 1e-9
    assert rep.norms[2] <= 1e-9
    assert rep.holds


@pytest.mark.parametrize("field, value, match", [
    ("kappa", 0, "kappa must be >= 1"),
    ("k", 3, "k must be in \\[1, 2\\]"),
    ("lam_bar", 1.5, "lam_bar must be in \\[0, 1\\]"),
    ("theta", 0.0, "theta must be positive"),
])
def test_chernoff_params_range_errors(field, value, match):
    good = dict(kappa=1, k=1, lam_bar=0.5, dim=2, radius=1.0)
    params = ChernoffParams(**good)
    if field == "theta":
        # the threshold is not a ChernoffParams field: the bounds that take it reject it
        with pytest.raises(ArgumentError, match=match):
            corollary_bound(params, value, FIT)
        with pytest.raises(ArgumentError, match=match):
            theorem_bound(params, [value], PolynomialSpec.identity(), FIT)
        return
    with pytest.raises(ArgumentError, match=match):
        ChernoffParams(**{**good, field: value})


def test_certificate_on_small_graphs():
    rng_seed = 3
    for graph in (gen_complete(4), gen_cycle(4)):
        assignment = random_assignment(graph, S2, radius=1.0, seed=rng_seed)
        rep = contraction_certificate(assignment, t=0.4, a=1.0, b=0.5, lam=spectral_expansion(graph)[0])
        assert rep.holds, rep


def test_stack_apply_matches_dense_operator():
    multigraph = gen_random_regular(16, 5, seed=0)
    adj = multigraph.adjacency
    assert np.trace(adj) > 0 and np.any(adj - np.diag(np.diag(adj)) > 1)
    graphs = (gen_complete(4), gen_cycle(5), gen_hypercube(3), multigraph)
    for gi, graph in enumerate(graphs):
        # d = 8 runs the factored vertex maps; the dense oracle holds (n d^2)^2 entries
        for shape in (S2, S22) + ((S222,) if graph.n * 64 <= 320 else ()):
            assignment = random_assignment(graph, shape, radius=1.0, seed=40 + gi)
            for kappa in (1, 4):
                for b in (0.0, 0.5):
                    exact = transfer_expectation(assignment, 0.3, 1.0, b, kappa)
                    ref = dense_transfer_expectation(assignment, 0.3, 1.0, b, kappa)
                    assert abs(exact - ref) <= 1e-12 * abs(ref), (gi, shape, kappa, b)


@pytest.mark.parametrize("graph, dims", [
    (gen_complete(4), (2,)),
    (gen_cycle(2), (3,)),  # a multigraph: both slots of each vertex hold the other one
    (gen_random_regular(10, 3, seed=4), (1,)),
    (gen_random_regular(16, 6, seed=0), (4,)),
    (gen_hypercube(3), (2, 2)),
    (gen_random_regular(16, 5, seed=0), (2,)),  # self-loops and repeated edges
    (gen_cycle(5), (2, 2, 2)),  # above the Kronecker cutoff: factored vertex maps
], ids=["K4-d2", "C2-d3", "rr10x3-d1", "rr16x6-d4", "Q3-d4", "rr16x5-d2", "C5-d8"])
def test_certificate_norms_match_dense_operator(graph, dims):
    assignment = random_assignment(graph, TensorShape.square(dims), radius=1.0, seed=graph.n + len(dims))
    lam = spectral_expansion(graph)[0]
    for t, a, b in ((0.5, 1.0, 0.5), (0.3, 1.0, 0.0)):
        rep = contraction_certificate(assignment, t, a, b, lam, seed=9)
        ref = dense_contraction_norms(assignment, t, a, b)
        for part, (got, want) in enumerate(zip(rep.norms, ref), start=1):
            assert abs(got - want) <= 1e-9 * want, (part, rep.norms, ref)
        assert all(type(w) is float for w in rep.norms + rep.gammas)
        assert rep.steps <= min(norms.LANCZOS_STEPS, (graph.n - 1) * assignment.dim ** 2)
        if rep.steps == (graph.n - 1) * assignment.dim ** 2:  # the Krylov space is all of P''s range: exact
            assert abs(rep.norms[3] - ref[3]) <= 1e-13 * ref[3], (rep.norms[3], ref[3])


def test_certificate_returns_nan_for_a_nan_operator(monkeypatch):
    graph = gen_complete(4)
    assignment = random_assignment(graph, S2, radius=1.0, seed=1)
    assert assignment.dim <= chernoff._KRONECKER_MAX_DIM  # the vertex maps share the Gram parts' R
    monkeypatch.setattr(chernoff, "_vertex_coordinates", lambda *args: np.full((4, 4, 4), np.nan))
    rep = contraction_certificate(assignment, 0.3, 1.0, 0.5, spectral_expansion(graph)[0])
    assert all(math.isnan(w) for w in rep.norms) and not rep.holds


@pytest.mark.parametrize("shape", [S2, S22, S222], ids=["d2", "d4", "d8"])
def test_vertex_maps_are_an_adjoint_pair(shape):
    graph = gen_random_regular(16, 5, seed=0)
    assignment = random_assignment(graph, shape, radius=1.0, seed=3)
    forward, adjoint = chernoff._vertex_maps(assignment, 0.5, 1.0, 0.5)
    slots = graph.edge_slots()
    x, y = np.random.default_rng(17).standard_normal((2, graph.n, shape.unfold_rows ** 2))
    gap = np.vdot(chernoff._transfer_apply(forward, slots, x), y) - np.vdot(x, chernoff._slot_mean(slots, adjoint(y)))
    assert abs(gap) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)
    es = kronecker_exponentials(assignment, 0.5, 1.0, 0.5)
    ref = hermitian_coordinates(np.stack([e @ xv @ e.conj().T for e, xv in zip(es, hermitian_stack(x))]))
    assert np.max(np.abs(forward(x) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_hermitian_coordinates_are_orthonormal(d):
    rng = np.random.default_rng(d)
    x, y = rng.standard_normal((2, 5, d, d)) + 1j * rng.standard_normal((2, 5, d, d))
    x, y = x + x.conj().swapaxes(1, 2), y + y.conj().swapaxes(1, 2)
    cx, cy = chernoff._pack(x), chernoff._pack(y)
    assert np.array_equal(cx, hermitian_coordinates(x))
    assert np.max(np.abs(chernoff._unpack(cx) - x)) <= 1e-15 * np.max(np.abs(x))
    assert np.vdot(cx, cy) == pytest.approx(np.vdot(x, y).real, rel=1e-13)  # Re tr(X^H Y), summed over the stack
    basis = chernoff._unpack(np.eye(d * d))  # the basis matrices B_a: Frobenius-orthonormal and Hermitian
    assert np.allclose(np.einsum("aij,bij->ab", basis.conj(), basis), np.eye(d * d), rtol=0.0, atol=1e-15)
    assert np.array_equal(basis, basis.conj().swapaxes(1, 2))


@pytest.mark.parametrize("graph", [gen_complete(4), gen_random_regular(16, 6, seed=0)], ids=["K4", "rr16x6"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)], ids=["d4", "d8"])
@pytest.mark.parametrize("b", [0.0, 0.5])
def test_coordinate_layer_matches_the_complex_kronecker_path(graph, dims, b):
    # d = 8 runs the factored vertex maps; every d builds the Gram parts from the coordinate stack
    assignment = random_assignment(graph, TensorShape.square(dims), radius=1.0, seed=graph.n + len(dims))
    rep = contraction_certificate(assignment, 0.5, 1.0, b, spectral_expansion(graph)[0], seed=9)
    ref = kronecker_gram_norms(assignment, 0.5, 1.0, b)
    for part, (got, want) in enumerate(zip(rep.norms[:3], ref), start=1):
        assert abs(got - want) <= 1e-12 * want, (part, rep.norms, ref)
    for kappa in (1, 4):
        exact = transfer_expectation(assignment, 0.3, 1.0, b, kappa)
        want = kronecker_transfer_expectation(assignment, 0.3, 1.0, b, kappa)
        assert abs(want.imag) <= 1e-12 * abs(want.real)
        assert abs(exact - want.real) <= 1e-12 * abs(want.real), (kappa, exact, want)


def _unconjugated_kronecker(es):  # E kron E: X -> E X E^T, which does not keep X Hermitian
    n, d = es.shape[:2]
    return (es[:, :, None, :, None] * es[:, None, :, None, :]).reshape(n, d * d, d * d)


def test_a_map_that_does_not_keep_stacks_hermitian_raises(monkeypatch):
    rng = np.random.default_rng(2)
    es = rng.standard_normal((600, 3, 3)) + 1j * rng.standard_normal((600, 3, 3))  # several product blocks
    x = hermitian_stack(rng.standard_normal((600, 9)))
    want = hermitian_coordinates(es @ x @ es.conj().swapaxes(1, 2))
    got = np.einsum("uab,ub->ua", chernoff._coordinate_stack(chernoff._kronecker_stack(es)), hermitian_coordinates(x))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(NumericalError, match="does not preserve Hermitian stacks"):
        chernoff._coordinate_stack(_unconjugated_kronecker(es))
    graph = gen_complete(4)
    monkeypatch.setattr(chernoff, "_kronecker_stack", _unconjugated_kronecker)
    for shape in (S2, S222):  # the coordinate stack builds the Gram parts at every d
        assignment = random_assignment(graph, shape, radius=1.0, seed=1)
        with pytest.raises(NumericalError, match="does not preserve Hermitian stacks"):
            contraction_certificate(assignment, 0.3, 1.0, 0.5, spectral_expansion(graph)[0])
    with pytest.raises(NumericalError, match="does not preserve Hermitian stacks"):
        transfer_expectation(random_assignment(graph, S22, radius=1.0, seed=1), 0.3, 1.0, 0.0, 2)


class _EvenVerticesZero:
    """A stream whose ``(2, n, d, d)`` draw is zero at every even vertex."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size):
        draws = self.rng.standard_normal(size)
        draws[:, ::2] = 0.0
        return draws


def test_random_assignment_matches_per_vertex_loop(monkeypatch):
    graph = gen_cycle(5)
    for dims in ((2,), (3,), (2, 2), (2, 2, 2)):
        shape = TensorShape.square(dims)
        for radius in (1.0, 0.3, 2.5):
            for seed in (0, 7, 123):
                assignment = random_assignment(graph, shape, radius, seed)
                ref = loop_random_assignment(graph, shape, radius, seed)
                assert np.array_equal(assignment.stack(), np.stack(ref))
                assert assignment.radius == pytest.approx(radius, rel=1e-12)

    # an all-zero draw (the ``top == 0`` branch) keeps its zero tensor unscaled
    def streams(seed, domain):
        return _EvenVerticesZero(stream(seed, domain))

    monkeypatch.setattr(chernoff, "stream", streams)
    assignment = random_assignment(graph, S22, 2.0, 5)
    ref = loop_random_assignment(graph, S22, 2.0, 5, streams=streams)
    assert np.array_equal(assignment.stack(), np.stack(ref))
    assert not np.any(assignment.stack()[0]) and np.any(assignment.stack()[1])
    assert assignment.radius == pytest.approx(2.0, rel=1e-12)


def test_certificate_memory_stays_bounded():
    # the Kronecker stack of the frames is 1 MB here, the coordinate stack R half that; the slot mean runs
    # over vertex chunks
    graph = gen_random_regular(256, 6, seed=0)
    assignment = random_assignment(graph, TensorShape.square((4,)), radius=1.0, seed=1)
    lam = spectral_expansion(graph)[0]
    assignment.eigh()
    tracemalloc.start()
    try:
        rep = contraction_certificate(assignment, 0.5, 1.0, 0.5, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.holds
    assert peak < 3 * 2**20, f"certificate peak {peak / 2**20:.2f} MB"


def test_transfer_identity_case():
    g = gen_complete(4)
    assignment = VertexTensorAssignment(g, S22, np.zeros((g.n, 4, 4)))
    assert transfer_expectation(assignment, 0.5, 1.0, 0.7, 1) == pytest.approx(4.0)
    assert transfer_expectation(assignment, 0.5, 1.0, 0.7, 5) == pytest.approx(4.0)


def test_transfer_constant_assignment_closed_form():
    # every vertex carries the same tensor, so the trace has a closed form
    g = gen_complete(2)
    rng = np.random.default_rng(8)
    from tensor_chernoff.sampling import random_hermitian

    h = random_hermitian(S2, rng)
    assignment = VertexTensorAssignment(g, S2, np.stack([h.matrix, h.matrix]))
    t, a, b, kappa = 0.3, 1.0, 0.6, 4
    mu = np.linalg.eigvalsh(h.matrix)
    expected = float(np.sum(np.exp(t * kappa * a * mu)))
    assert transfer_expectation(assignment, t, a, b, kappa) == pytest.approx(expected, rel=1e-9)


def test_transfer_matches_monte_carlo():
    g = gen_complete(4)
    assignment = random_assignment(g, S2, radius=1.0, seed=5)
    t, a, b, kappa = 0.25, 1.0, 0.4, 4
    exact = transfer_expectation(assignment, t, a, b, kappa)

    n_walks = 60000
    walks = sample_walks_array(g, kappa, n_walks, seed=77)
    mats = []
    for v in range(g.n):
        vals, vecs = np.linalg.eigh(assignment.stack()[v])
        mats.append((vecs * np.exp(t * (a + 1j * b) / 2.0 * vals)) @ vecs.conj().T)
    mats = np.stack(mats)
    prod = mats[walks[:, 0]]
    for j in range(1, kappa):
        prod = prod @ mats[walks[:, j]]
    traces = np.sum(np.abs(prod) ** 2, axis=(1, 2))  # Tr(P P^H) = ||P||_F^2
    mean, se = float(traces.mean()), float(traces.std(ddof=1) / math.sqrt(n_walks))
    assert abs(exact - mean) <= 3 * se, (exact, mean, se)


def test_expectation_bound():
    params = ChernoffParams(kappa=3, k=1, lam_bar=0.5, dim=4, radius=1.0)
    lam = 0.5
    # t -> 0 limit
    assert expectation_bound(params, 1e-12, 1.0, 0.0, lam) == pytest.approx(
        4.0 * math.exp(3 * 8.0 / 0.5), rel=1e-6
    )
    # monotone nondecreasing in t on the admissible range
    ts = np.linspace(1e-4, 0.3, 20)
    vals = [expectation_bound(params, t, 1.0, 0.0, lam) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(PreconditionError):
        expectation_bound(params, 2.0, 1.0, 0.0, lam)  # t r > 1
    with pytest.raises(PreconditionError):
        expectation_bound(params, 0.9, 1.0, 0.0, 0.99)  # lam condition


def test_transfer_below_expectation_bound():
    for graph in (gen_complete(4), gen_cycle(5)):
        lam = spectral_expansion(graph)[0]
        assignment = random_assignment(graph, S2, radius=1.0, seed=2)
        params = ChernoffParams(kappa=3, k=1, lam_bar=1 - lam, dim=2, radius=assignment.radius)
        for t in (0.05, 0.2):
            if lam * (2 * math.exp(t) - 1) > 1:
                continue
            exact = transfer_expectation(assignment, t, 1.0, 0.0, 3)
            bound = expectation_bound(params, t, 1.0, 0.0, lam)
            assert exact <= bound


# ---------------------------------------------------------------------------
# Domination fit
# ---------------------------------------------------------------------------

def test_domination_fit_sigma_one():
    fit = fit_gaussian_domination(6.0, [1.0])
    assert fit.verified and fit.sigma == 1.0
    assert fit.c >= beta0_density(0.0) * math.sqrt(2 * math.pi)
    taus = np.linspace(-6, 6, 10000)
    grid_max = float(np.max(beta0_density(taus) * math.sqrt(2 * math.pi) * np.exp(taus**2 / 2)))
    assert fit.c == pytest.approx(grid_max, rel=0.01)


def test_domination_randomized_audit():
    fit = fit_gaussian_domination(6.0, [0.8, 1.0, 1.5, 2.0])
    rng = np.random.default_rng(1)
    taus = rng.uniform(-6, 6, size=100000)
    gauss = fit.c * np.exp(-(taus**2) / (2 * fit.sigma**2)) / (fit.sigma * math.sqrt(2 * math.pi))
    assert np.all(beta0_density(taus) <= gauss * (1 + 1e-9))


def test_domination_window_required():
    with pytest.raises(ArgumentError):
        fit_gaussian_domination(-1.0, [1.0])
    with pytest.raises(ArgumentError):
        fit_gaussian_domination(6.0, [0.0])


def test_domination_sigma_monotonicity():
    # while the window boundary dominates the ratio, widening the Gaussian
    # can only lower the required C
    cs = [fit_gaussian_domination(6.0, [s]).c for s in (0.5, 0.7, 0.9, 1.1)]
    assert all(b <= a for a, b in zip(cs, cs[1:]))
    # the grid minimizer is an interior sigma for a wide grid
    fit = fit_gaussian_domination(6.0, [0.5, 0.9, 1.2, 2.0, 4.0])
    assert fit.sigma == 1.2


def _ratio(taus, sigma):
    """``beta0(tau) sigma sqrt(2 pi) exp(tau^2 / 2 sigma^2)``, the ratio C must bound on the window."""
    with np.errstate(over="ignore"):
        return beta0_density(taus) * sigma * math.sqrt(2 * math.pi) * np.exp(taus**2 / (2 * sigma**2))


@pytest.mark.parametrize("window", [0.5, 2.5, 6.0, 10.0])
def test_domination_constant_is_the_ratio_maximum_on_a_fine_grid(window):
    taus = np.linspace(-window, window, 1_000_001)  # holds 0 and both ends of the window
    assert taus[500_000] == 0.0 and taus[0] == -window and taus[-1] == window
    for sigma in (0.25, 0.45, 0.7, 1.0, 1.5, 3.0):
        grid_max = np.max(_ratio(taus, sigma))
        if np.isinf(grid_max):  # sigma = 0.25 on window 10: exp(800) overflows, so no C exists
            with pytest.raises(ArgumentError):
                fit_gaussian_domination(window, [sigma])
        else:
            assert fit_gaussian_domination(window, [sigma]).c / (1 + 1e-9) == grid_max


def test_domination_constant_at_tau_zero_alone_misses_the_window_end():
    # negative control for the test above: r(0) is not the supremum at sigma = 1, window = 6
    taus = np.linspace(-6.0, 6.0, 1_000_001)
    at_zero, grid_max = float(_ratio(0.0, 1.0)), float(np.max(_ratio(taus, 1.0)))
    assert at_zero == pytest.approx(1.969, abs=1e-3) and grid_max == pytest.approx(3.367, abs=1e-3)


def test_domination_fit_past_the_beta0_underflow():
    # beta0(W) underflows to 0 past W ~ 226 while exp(W^2 / 2 sigma^2) overflows; r(W) is finite in log space,
    # where log cosh(pi W / 2) = pi W / 2 - log 2 to double precision
    def log_ratio(w, sigma):
        return (math.log(math.pi / 4) - 2 * (math.pi * w / 2 - math.log(2)) + math.log(sigma * math.sqrt(2 * math.pi))
                + w**2 / (2 * sigma**2))

    fit = fit_gaussian_domination(230.0, [6.0])
    assert fit.verified and 8.9e6 < fit.c < 9.1e6
    assert fit.c / (1 + 1e-9) == pytest.approx(math.exp(log_ratio(230.0, 6.0)), rel=1e-12)
    # at W = 226 beta0 is 0 and the Gaussian factor finite: r(W) ~ 26 beats r(0) ~ 11.8
    fit = fit_gaussian_domination(226.0, [6.0])
    assert fit.verified and fit.c / (1 + 1e-9) == pytest.approx(math.exp(log_ratio(226.0, 6.0)), rel=1e-12)
    # C ~ 1.4e76: the audit's C N(0, sigma^2) at W is beta0(W) ~ 1e-273, though exp(-W^2 / 2 sigma^2) underflows
    fit = fit_gaussian_domination(200.0, [5.0])
    assert fit.verified and fit.c / (1 + 1e-9) == pytest.approx(math.exp(log_ratio(200.0, 5.0)), rel=1e-12)
    # r(W) underflows to 0 at sigma = 20, so r(0) wins
    fit = fit_gaussian_domination(1000.0, [20.0])
    assert fit.verified and fit.c / (1 + 1e-9) == pytest.approx(math.pi / 4 * 20 * math.sqrt(2 * math.pi), rel=1e-15)
    assert fit.c == pytest.approx(39.37, abs=0.01)


@pytest.mark.parametrize("window, sigmas", [(40.0, [0.25]), (50.0, [0.25, 1.0]), (300.0, [4.0])])
def test_domination_overflow_at_every_sigma_raises(window, sigmas):
    with pytest.raises(ArgumentError, match=f"no sigma in sigma_grid .* on window {window:g}"):
        fit_gaussian_domination(window, sigmas)
    # a sigma whose ratio stays finite is still fitted
    assert fit_gaussian_domination(window, sigmas + [20.0]).sigma == 20.0


# ---------------------------------------------------------------------------
# Theorem and corollary bounds
# ---------------------------------------------------------------------------

FIT = fit_gaussian_domination(6.0, [1.0])


def _params(kappa=4, k=1, lam_bar=2 / 3, dim=2, radius=1.0):
    return ChernoffParams(kappa=kappa, k=k, lam_bar=lam_bar, dim=dim, radius=radius)


def test_theorem_bound_decreases_with_theta_factor():
    res, bigger = theorem_bound(_params(), [30.0, 60.0], PolynomialSpec.identity(), FIT)
    assert bigger.value < res.value  # e^{-theta t} factor


def test_corollary_matches_substitution():
    # substituting the closed-form t into the one-term objective reproduces
    # the corollary value exactly, at every radius
    for radius in (1.0, 0.3, 2.5):
        params, theta = _params(kappa=4, radius=radius), 40.0 * radius
        res = corollary_bound(params, theta, FIT)
        kb = params.kappa + 8 * params.lam_bar
        r = params.radius
        t = res.t_opt
        assert t == pytest.approx((theta - 2 * kb * r) / (4 * FIT.sigma**2 * r**2 * kb**2))
        pref = FIT.c * (params.k + math.sqrt((params.dim - params.k) / params.k))
        objective = (
            pref
            * math.exp(-theta * t)
            * math.exp(8 * params.kappa * params.lam_bar + 2 * kb * r * t + 2 * (FIT.sigma * kb * r) ** 2 * t**2)
        )
        assert res.value == pytest.approx(objective, rel=1e-9), radius


def test_corollary_equals_theorem_minimum():
    poly = PolynomialSpec.identity()
    for radius in (1.0, 0.3, 2.5):
        for kappa, lam_bar in ((4, 2 / 3), (8, 2 / 3), (4, 0.0)):
            params = _params(kappa=kappa, lam_bar=lam_bar, radius=radius)
            thetas = [theta * radius for theta in (30.0, 45.0, 80.0)]
            for theta, thm in zip(thetas, theorem_bound(params, thetas, poly, FIT)):
                try:
                    cor = corollary_bound(params, theta, FIT)
                except PreconditionError:
                    continue
                assert thm.value == pytest.approx(cor.value, rel=1e-6), (radius, theta, kappa, lam_bar)


def test_bounds_past_the_float_range_are_infinite():
    # exp of the exponent overflows: the bound is vacuous, not an OverflowError
    cor = corollary_bound(_params(kappa=100, lam_bar=1.0), 300.0, FIT)
    assert cor.value == math.inf and cor.vacuous
    lam = math.cos(2 * math.pi / 63)  # the 63-cycle: 8 kappa / (1 - lam) is past 709
    assert expectation_bound(_params(radius=1e-4), 0.05, 1.0, 0.0, lam) == math.inf


def test_theorem_grid_minimum_matches_analytic_vertex():
    # single dominating term: the exponent is quadratic, vertex at
    # -theta + 2(kappa+8lb)lsr + 4(sigma(kappa+8lb)lsr)^2 t = 0
    params, theta = _params(kappa=4), 50.0
    (res,) = theorem_bound(params, [theta], PolynomialSpec((0.0, 1.0)), FIT)
    kb = params.kappa + 8 * params.lam_bar
    t_vertex = (theta - 2 * kb) / (4 * (FIT.sigma * kb) ** 2)
    assert res.t_opt == pytest.approx(t_vertex, rel=1e-6)


def test_corollary_monotone_decreasing_past_vertex():
    vals = [corollary_bound(_params(), theta, FIT).value for theta in (40.0, 50.0, 60.0, 80.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_corollary_precondition():
    with pytest.raises(PreconditionError):
        corollary_bound(_params(), 1.0, FIT)


def test_theta_to_infinity_limit():
    (res,) = theorem_bound(_params(), [500.0], PolynomialSpec.identity(), FIT)
    assert res.value < 1e-100
    assert not res.vacuous


POLYS = [PolynomialSpec(c, p) for c in ((0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 2.0, 0.5)) for p in (1.0, 1.5, 2.0)]
THETAS = (0.5, 1.0, 3.0, 7.5, 16.0, 40.0, 120.0, 700.0, 1e4)


@pytest.mark.parametrize("kappa", [1, 8, 32])
def test_lockstep_bounds_equal_per_theta_bounds(kappa):
    # every lane keeps its own bracket and stop rule, so the threshold grid's order, its repeats
    # and the other lanes change no bit of a row's value or t_opt
    rng = np.random.default_rng(kappa)
    for dim, k in ((2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (8, 1), (8, 4), (8, 8)):
        for i, poly in enumerate(POLYS):
            lam_bar = (0.0, 0.6, 1.0)[(i + dim + k) % 3]  # over the (dim, k) pairs each polynomial meets each gap
            picked = list(rng.choice(THETAS, size=4, replace=False))
            thetas = rng.permutation(picked + picked[:1])  # unsorted, one value twice
            params = _params(kappa=kappa, k=k, lam_bar=lam_bar, dim=dim)
            alone = {theta: theorem_bound(params, [theta], poly, FIT)[0] for theta in thetas}
            for theta, got in zip(thetas, theorem_bound(params, thetas, poly, FIT)):
                want = alone[theta]
                assert (got.value, got.t_opt, got.vacuous) == (want.value, want.t_opt, want.vacuous), \
                    (kappa, k, dim, lam_bar, poly, theta)


def test_theorem_bound_matches_the_scalar_minimizer():
    # the former one-threshold golden-section loop, bit for bit
    for i, (kappa, dim, lam_bar, radius) in enumerate([(1, 2, 0.0, 1.0), (8, 4, 0.6, 0.5), (32, 8, 1.0, 3.0)]):
        params = ChernoffParams(kappa=kappa, k=1 + i, lam_bar=lam_bar, dim=dim, radius=radius)
        for poly in POLYS:
            for theta, res in zip(THETAS, theorem_bound(params, THETAS, poly, FIT)):
                assert (res.value, res.t_opt) == scalar_theorem_bound(params, theta, poly, FIT), (params, poly, theta)


def test_tail_table_validates_every_threshold_and_the_fit():
    assignment = random_assignment(gen_complete(4), S2, radius=1.0, seed=1)
    poly = PolynomialSpec.identity()
    for thetas, bad in (([2.0, 0.0], "0.0"), ([-1.0, 4.0], "-1.0")):
        match = f"theta must be positive, got {bad}$"
        with pytest.raises(ArgumentError, match=match):
            tail_table(assignment, poly, 1, thetas, 100, 4, seed=0, lam_bar=0.5, fit=FIT)
        with pytest.raises(ArgumentError, match=match):
            theorem_bound(_params(), thetas, poly, FIT)
        with pytest.raises(ArgumentError, match=match):
            corollary_bound(_params(), float(bad), FIT)
    assert theorem_bound(_params(), [], poly, FIT) == []
    unverified = chernoff.DominationFit(c=FIT.c, sigma=FIT.sigma, window=FIT.window, verified=False)
    with pytest.raises(ArgumentError, match="domination fit must be verified"):
        tail_table(assignment, poly, 1, [2.0, 4.0], 100, 4, seed=0, lam_bar=0.5, fit=unverified)
    with pytest.raises(ArgumentError, match="domination fit must be verified"):
        theorem_bound(_params(), [2.0], poly, unverified)
    with pytest.raises(ArgumentError, match="domination fit must be verified"):
        corollary_bound(_params(), 60.0, unverified)


@pytest.mark.parametrize(
    "graph, shape, k, poly",
    [(gen_complete(4), S2, 1, PolynomialSpec.identity()),
     (gen_random_regular(16, 6, 11), S22, 2, PolynomialSpec((0.0, 1.0, 0.5)))],
    ids=["K4-2x2", "rr16x6-2x2x2"],
)
def test_tail_table_rows_equal_an_independent_computation(graph, shape, k, poly):
    # tail_table's own wiring: its walks take kappa steps and its bounds carry the graph's lam_bar
    assignment = random_assignment(graph, shape, radius=1.0, seed=12)
    lam_bar, kappa, num_walks, thetas = spectral_expansion(graph)[0], 8, 3000, [1.0, 2.0, 4.0, 6.0, 120.0]
    assert lam_bar > 0.0
    table = tail_table(assignment, poly, k, thetas, num_walks, kappa, seed=5, lam_bar=lam_bar, fit=FIT)
    p_hats = direct_tail_p_hat(assignment, poly, k, thetas, num_walks, kappa, seed=5)
    assert sum(0.0 < p < 1.0 for p in p_hats) >= 2
    params = ChernoffParams(kappa=kappa, k=k, lam_bar=lam_bar, dim=assignment.dim, radius=assignment.radius)
    for row, theta, p_hat in zip(table.rows, thetas, p_hats):
        (bound,) = theorem_bound(params, [theta], poly, FIT)
        assert (row.theta, row.p_hat, row.bound, row.vacuous) == (theta, p_hat, bound.value, bound.vacuous)


# ---------------------------------------------------------------------------
# Monte Carlo tail
# ---------------------------------------------------------------------------

def test_tail_trivial_cases():
    g = gen_complete(4)
    assignment = random_assignment(g, S2, radius=1.0, seed=1)
    est = empirical_tail_sweep(assignment, PolynomialSpec((1.0,)), 1, [1e-12], 500, 3, seed=0)[0]
    assert est.p_hat == 1.0  # nonnegative f against theta ~ 0

    zeros = VertexTensorAssignment(g, S2, np.zeros((4, 2, 2)))
    est = empirical_tail_sweep(zeros, PolynomialSpec.identity(), 1, [0.5], 500, 3, seed=0)[0]
    assert est.p_hat == 0.0


def test_tail_sweep_input_checks():
    assignment = random_assignment(gen_complete(4), S2, radius=1.0, seed=1)
    poly = PolynomialSpec.identity()
    with pytest.raises(ArgumentError, match="num_walks must be >= 1"):
        empirical_tail_sweep(assignment, poly, 1, [0.5], 0, 3, seed=0)
    for k in (0, 3):
        with pytest.raises(ArgumentError, match="k must be in \\[1, 2\\]"):
            empirical_tail_sweep(assignment, poly, k, [0.5], 10, 3, seed=0)


def test_tail_identity_assumption3_never_violated():
    g = gen_complete(4)
    assignment = random_assignment(g, S2, radius=1.0, seed=4)
    est = empirical_tail_sweep(assignment, PolynomialSpec.identity(), 1, [2.0], 2000, 6, seed=9, t_check=0.7)[0]
    assert est.assumption3_violations == 0


def test_identity_sweep_computes_no_margins(monkeypatch):
    assignment = random_assignment(gen_complete(4), S2, radius=1.0, seed=4)

    def sweep(t_check):
        return empirical_tail_sweep(assignment, PolynomialSpec.identity(), 1, [1.0, 2.0, 3.0], 3000, 6, seed=9,
                                    t_check=t_check, chunk_size=1024)

    calls = []
    monkeypatch.setattr(chernoff, "assumption3_margins", lambda *args: calls.append(args))
    assert sweep([0.7, 1.5, 40.0]) == sweep(None)
    assert calls == []


def test_assumption3_margins_identity_zero():
    mu = np.array([[-1.0, 0.3, 2.0]])
    m = assumption3_margins(PolynomialSpec.identity(), mu, t=0.9)
    assert np.allclose(m, 0.0)


def test_tail_sweep_matches_direct_counting():
    g = gen_cycle(5)
    assignment = random_assignment(g, S2, radius=1.0, seed=11)
    poly = PolynomialSpec.identity()
    kappa, num = 5, 4000
    thetas = [0.5, 1.5, 2.5]
    sweep = empirical_tail_sweep(assignment, poly, 1, thetas, num, kappa, seed=21)

    walks = sample_walks_array(g, kappa, num, seed=21)
    sums = assignment.stack()[walks].sum(axis=1)
    norms = np.max(np.abs(np.linalg.eigvalsh(sums)), axis=1)
    for est, th in zip(sweep, thetas):
        assert est.p_hat == pytest.approx(float(np.mean(norms >= th)))
    # monotone in theta
    assert sweep[0].p_hat >= sweep[1].p_hat >= sweep[2].p_hat


def test_tail_chunking_and_workers_invariance():
    g = gen_complete(4)
    assignment = random_assignment(g, S2, radius=1.0, seed=6)
    poly = PolynomialSpec.identity()
    a = empirical_tail_sweep(assignment, poly, 1, [1.0], 3000, 4, seed=3, chunk_size=701)
    b = empirical_tail_sweep(assignment, poly, 1, [1.0], 3000, 4, seed=3, chunk_size=3000)
    c = empirical_tail_sweep(assignment, poly, 1, [1.0], 3000, 4, seed=3, chunk_size=512)
    assert a[0] == b[0] == c[0]


@pytest.mark.parametrize("chunk_size", [chernoff.DEFAULT_TAIL_CHUNK, 701, 20000])
def test_sorted_hit_count_equals_direct_count(monkeypatch, chunk_size):
    # rows 0 and 1 of each chunk's walk sums get a NaN spectrum (a miss at every threshold) and
    # one whose norm is exactly 3 (a hit at theta = 3); theta = inf is a miss for every finite norm
    spectrum, ky_fan, seen = chernoff._walk_sum_eigvalsh, chernoff.ky_fan_from_eigenvalues, []

    def injected(sums):
        mu = spectrum(sums)
        mu[0], mu[1] = np.nan, (-1.0, 3.0)
        return mu

    def recorded(values, k):
        seen.append(ky_fan(values, k))
        return seen[-1]

    monkeypatch.setattr(chernoff, "_walk_sum_eigvalsh", injected)
    monkeypatch.setattr(chernoff, "ky_fan_from_eigenvalues", recorded)
    assignment = random_assignment(gen_complete(4), S2, radius=1.0, seed=6)
    thetas = [3.0, math.inf, 0.5, 2.0, 3.0, 5.5, 1e-300]
    sweep = empirical_tail_sweep(assignment, PolynomialSpec.identity(), 1, thetas, 20000, 8, seed=3,
                                 chunk_size=chunk_size)
    norms = np.concatenate(seen)
    assert norms.size == 20000 and np.isnan(norms).sum() == len(seen) and np.sum(norms == 3.0) >= len(seen)
    for est, theta in zip(sweep, thetas):
        assert est.p_hat == np.count_nonzero(norms >= theta) / 20000, theta
    assert sweep[1].p_hat == 0.0 and sweep[0] == sweep[4]


def _from_reals(h):
    """The library's walk-sum spectrum of a complex Hermitian stack, through its lower-triangle reals."""
    return chernoff._walk_sum_eigvalsh(chernoff._lower_triangle_reals(h))


def _matches_lapack(spectrum, h):
    """Each row within 1e-13 of its largest |eigenvalue| of ``eigvalsh``, and ascending."""
    got, want = spectrum(h), np.linalg.eigvalsh(h)
    tol = 1e-13 * np.max(np.abs(want), axis=-1, keepdims=True)
    return bool(np.all(np.abs(got - want) <= tol) and np.all(np.diff(got, axis=-1) >= 0))


def _hermitian_2x2(a, c, b):
    h = np.empty(np.shape(a) + (2, 2), dtype=np.complex128)
    h[..., 0, 0], h[..., 1, 1], h[..., 1, 0] = a, c, b
    h[..., 0, 1] = np.conj(b)
    return h


def _walk_sum_stacks():
    assignment = random_assignment(gen_complete(4), S2, radius=1.0, seed=6)
    walks = sample_walks_array(assignment.graph, 8, 2000, seed=3)
    rng = np.random.default_rng(5)
    a, c = rng.normal(size=(2, 500))
    b = rng.normal(size=500) + 1j * rng.normal(size=500)
    extremes = 10.0 ** np.repeat([150, 160, -150, -160], 125)
    zeros = np.zeros(4)
    return {
        "radius 1": assignment.stack(),
        "kappa r": assignment.stack()[walks].sum(axis=1),
        "zero": _hermitian_2x2(zeros, zeros, zeros),
        "diagonal, a = c": _hermitian_2x2(a, a, 0.0),
        "off-diagonal": _hermitian_2x2(0.0 * a, 0.0 * a, b),
        "near 1e+-150": _hermitian_2x2(a * extremes, c * extremes, b * extremes),
    }


@pytest.mark.parametrize("name", list(_walk_sum_stacks()))
def test_walk_sum_closed_form_matches_lapack(name):
    assert _matches_lapack(_from_reals, _walk_sum_stacks()[name])


def _gather_cases():
    """(vertex stack, walks) pairs: radius-1 assignments at d = 1 to 4, and ``near 1e+-150`` with walks
    that stay inside one of its 125-matrix blocks of one scale."""
    rng = np.random.default_rng(8)
    cases = {}
    for d in range(1, 5):
        assignment = random_assignment(gen_complete(4), TensorShape.square((d,)), radius=1.0, seed=d)
        cases[f"radius 1, d = {d}"] = (assignment.stack(), sample_walks_array(assignment.graph, 8, 1000, seed=d))
    extremes = _walk_sum_stacks()["near 1e+-150"]
    for block, scale in enumerate(("1e+150", "1e+160", "1e-150", "1e-160")):
        cases[scale] = (extremes, 125 * block + rng.integers(0, 125, size=(1000, 8)))
    return cases


@pytest.mark.parametrize("name", list(_gather_cases()))
def test_lower_triangle_walk_sums_equal_the_complex_gather(name):
    # the d^2 lower-triangle reals summed per step, against the lower-triangle reals of whole complex
    # matrices summed per step, bit for bit
    stack, walks = _gather_cases()[name]
    got = chernoff._walk_sums(chernoff._lower_triangle_reals(stack), walks)
    want = chernoff._lower_triangle_reals(complex_walk_sums(stack, walks))
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", list(_gather_cases()))
def test_walk_sum_spectrum_from_reals_equals_the_complex_stack_path(name):
    # the spectrum read from the summed reals, against the former four fancy assignments into a full
    # Hermitian complex stack and the spectrum read off that stack, bit for bit
    stack, walks = _gather_cases()[name]
    table = chernoff._lower_triangle_reals(stack)
    sums = chernoff._walk_sums(table, walks)
    assert sums.shape == (len(walks), stack.shape[-1] ** 2)
    got, want = chernoff._walk_sum_eigvalsh(sums), complex_stack_eigvalsh(assembled_walk_sums(table, walks))
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("d", [3, 4, 8])
def test_eigvalsh_reads_only_the_real_diagonal_and_the_lower_triangle(d):
    # what the walk-sum spectrum above 2x2 relies on: garbage in the upper triangle and in the
    # diagonal's imaginary parts leaves every bit of eigvalsh's output as it is
    rng = np.random.default_rng(d)
    x = rng.normal(size=(300, d, d)) + 1j * rng.normal(size=(300, d, d))
    h = x + x.conj().swapaxes(1, 2)
    garbage = h.copy()
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    garbage[:, upper] = 1e3 * (rng.normal(size=(300, upper.sum())) + 1j * rng.normal(size=(300, upper.sum())))
    garbage[:, np.arange(d), np.arange(d)] += 1j * rng.normal(size=(300, d))
    assert not np.array_equal(garbage, h)
    want, got = np.linalg.eigvalsh(h), np.linalg.eigvalsh(garbage)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_walk_sum_spectrum_needs_the_complex_abs_of_b():
    # np.hypot(Re b, Im b) parts from np.abs(b) in the last bit on many inputs: a 2x2 spectrum with |b| as
    # np.hypot of the summed parts is a correct spectrum, but not the bits the reports carry
    stack, walks = _gather_cases()["radius 1, d = 2"]
    table = chernoff._lower_triangle_reals(stack)
    sums = chernoff._walk_sums(table, walks)
    a, c, re_b, im_b = sums.T
    rad = np.hypot(0.5 * (a - c), np.hypot(re_b, im_b))
    from_parts = np.stack([0.5 * (a + c) - rad, 0.5 * (a + c) + rad], axis=-1)
    assert _matches_lapack(lambda _: from_parts, assembled_walk_sums(table, walks))
    assert not np.array_equal(from_parts, chernoff._walk_sum_eigvalsh(sums))


def test_walk_sum_spectrum_keeps_lapack_above_2x2():
    assignment = random_assignment(gen_complete(4), S22, radius=1.0, seed=6)
    sums = assignment.stack()[sample_walks_array(assignment.graph, 8, 500, seed=3)].sum(axis=1)
    assert np.array_equal(_from_reals(sums), np.linalg.eigvalsh(sums))


def test_walk_sum_comparison_rejects_wrong_spectra():
    stacks = _walk_sum_stacks()

    def dropped_b(h):  # the closed form without |b|
        a, c = h[..., 0, 0].real, h[..., 1, 1].real
        return np.sort(np.stack([a, c], axis=-1), axis=-1)

    def squared(h):  # the closed form with sqrt of squares in place of hypot
        a, c = h[..., 0, 0].real, h[..., 1, 1].real
        rad = np.sqrt((0.5 * (a - c)) ** 2 + np.abs(h[..., 1, 0]) ** 2)
        return np.stack([0.5 * (a + c) - rad, 0.5 * (a + c) + rad], axis=-1)

    assert not _matches_lapack(dropped_b, stacks["kappa r"])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert not _matches_lapack(squared, stacks["near 1e+-150"])
        assert _matches_lapack(squared, stacks["kappa r"])


# ---------------------------------------------------------------------------
# Assignment round trip
# ---------------------------------------------------------------------------

def test_assignment_roundtrip(tmp_path):
    g = gen_hypercube(2)
    assignment = random_assignment(g, S2, radius=1.5, seed=13)
    manifest = save_assignment(assignment, tmp_path / "assign")
    back = load_assignment(manifest)
    assert back.radius == pytest.approx(assignment.radius)
    assert back.shape == assignment.shape
    assert np.array_equal(back.stack(), assignment.stack())
    assert np.array_equal(back.graph.adjacency, g.adjacency)


def test_manifest_vertex_the_graph_lacks_rejected(tmp_path):
    manifest = save_assignment(random_assignment(gen_random_regular(8, 3, 1), S2, radius=1.0, seed=4), tmp_path / "a")
    assert load_assignment(manifest).graph.n == 8
    with pytest.raises(ArgumentError, match="'vertices' key '4' is not a vertex of the 4-vertex graph"):
        load_assignment(manifest, graph=gen_complete(4))
    # a key that names no vertex at all, next to a full set of vertices
    entries = json.loads(manifest.read_text())
    entries["vertices"]["x"] = "vertex_0000.json"
    manifest.write_text(json.dumps(entries))
    with pytest.raises(ArgumentError, match="'vertices' key 'x' is not a vertex of the 8-vertex graph"):
        load_assignment(manifest)


def test_assignment_validation():
    g = gen_complete(4)
    good = random_assignment(g, S2, radius=1.0, seed=2).stack()
    skew = good.copy()
    skew[1, 0, 1] += 1e-3
    nan = good.copy()
    nan[3, 1, 1] = np.nan
    # non-Hermitian, non-finite, three vertices for four, and d = 3 for shape S2
    for stack, needle in (
        (skew, r"matrix \[1\] is not Hermitian"),
        (nan, "must be finite"),
        (good[:3], r"must have shape \(4, 2, 2\)"),
        (np.zeros((4, 3, 3)), r"must have shape \(4, 2, 2\)"),
    ):
        with pytest.raises(ArgumentError, match=needle):
            VertexTensorAssignment(g, S2, stack)
    assignment = VertexTensorAssignment(g, S2, good)
    assert np.array_equal(assignment.stack(), good)
    vals, vecs = assignment.eigh()
    assert assignment.radius == float(np.max(np.abs(vals)))
    for arr in (assignment.stack(), vals, vecs):
        assert not arr.flags.writeable
