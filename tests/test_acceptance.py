"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np

from tensor_chernoff import (
    TensorShape,
    abs_tensor,
    as_hermitian,
    chernoff,
    complex_power,
    conj_transpose,
    einstein_product,
    inner_product,
    spectral_map,
    trace,
)
from tensor_chernoff.chernoff import (
    DEFAULT_TAIL_CHUNK,
    ChernoffParams,
    PolynomialSpec,
    contraction_certificate,
    corollary_bound,
    empirical_tail_sweep,
    expectation_sandwich,
    fit_gaussian_domination,
    random_assignment,
    tail_table,
    transfer_expectation,
)
from tensor_chernoff.config import parse_config
from tensor_chernoff.errors import PreconditionError
from tensor_chernoff.graphs import (
    gen_complete,
    gen_cycle,
    gen_hypercube,
    sample_walks_array,
    spectral_expansion,
)
from tensor_chernoff.inequalities import (
    MODES,
    QuadratureSpec,
    beta0_mass_error,
    commuting_equality_excess,
    commuting_spectra,
    constructed_premise_trial,
    lie_trotter_audit,
    multivariate_violations,
    verify_discrete_average_majorization,
)
from tensor_chernoff.norms import singular_values
from tensor_chernoff.runner import run
from tensor_chernoff.sampling import (
    diagonal_in,
    ginibre,
    haar_unitary,
    random_hermitian,
    random_positive,
    random_tensor,
    random_unitary,
)

from oracles import (
    compound,
    compound_norm_check,
    einsum_einstein,
    entry_conj_transpose,
    entry_inner_product,
    entry_trace,
    naive_einstein,
    premise_trial_draws,
    subset_products,
)


def _report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num} ({name}): {detail} [{time.time() - started:.1f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Algebra oracle
# ---------------------------------------------------------------------------

def test_criterion_1_algebra_oracle():
    started = time.time()
    rng = np.random.default_rng(101)
    identities = 0
    worst = 0.0

    def rel(err, scale):
        return err / max(1.0, scale)

    for i in range(2500):
        m_modes = int(rng.integers(1, 3))
        rows = tuple(int(d) for d in rng.integers(1, 4, size=m_modes))
        mids = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 3))))
        cols = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 3))))
        x = random_tensor(TensorShape(rows, mids), rng)
        y = random_tensor(TensorShape(mids, cols), rng)

        prod = einstein_product(x, y)
        ref = einsum_einstein(x.entries, y.entries, len(mids))
        worst = np.maximum(worst, rel(float(np.max(np.abs(prod.entries - ref))), float(np.max(np.abs(ref)))))
        identities += 1

        adj = conj_transpose(x)
        worst = np.maximum(
            worst,
            rel(float(np.max(np.abs(adj.entries - entry_conj_transpose(x.entries, len(rows))))), 1.0),
        )
        identities += 1

        sq = TensorShape.square(rows)
        h = random_hermitian(sq, rng)
        worst = np.maximum(worst, rel(abs(trace(h) - entry_trace(h.entries, len(rows))), abs(trace(h))))
        identities += 1

        z = random_tensor(TensorShape(rows, mids), rng)
        ip = inner_product(x, z)
        worst = np.maximum(worst, rel(abs(ip - entry_inner_product(x.entries, z.entries)), abs(ip)))
        identities += 1

    # a slow nested-loop slice on top of the einsum oracle
    for _ in range(50):
        x = random_tensor(TensorShape((2, 3), (3, 2)), rng)
        y = random_tensor(TensorShape((3, 2), (2, 2)), rng)
        got = einstein_product(x, y).entries
        worst = np.maximum(worst, float(np.max(np.abs(got - naive_einstein(x.entries, y.entries, 2)))))
        identities += 1

    _report(1, "algebra oracle", worst <= 1e-10,
            f"{identities} identities, worst relative error {worst:.2e}", started)


# ---------------------------------------------------------------------------
# 2. Compound oracle
# ---------------------------------------------------------------------------

def test_criterion_2_compound_oracle():
    started = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    checks = 0

    def rel_err(a, b):
        scale = max(1.0, float(np.max(np.abs(b))))
        return float(np.max(np.abs(a - b))) / scale

    for shape in (TensorShape.square((4,)), TensorShape.square((2, 3)), TensorShape.square((2, 4))):
        n = shape.unfold_rows
        for k in range(1, min(4, n) + 1):
            h = random_hermitian(shape, rng)
            g = random_hermitian(shape, rng)
            c = random_positive(shape, rng, eig_low=0.3, eig_high=2.5)

            # [1] adjoint
            worst = np.maximum(worst, rel_err(compound(conj_transpose(h), k).entries,
                                       compound(h, k).entries.conj().T))
            # [2] multiplicativity
            worst = np.maximum(worst, rel_err(compound(h, k).entries @ compound(g, k).entries,
                                       compound(einstein_product(h, g), k).entries))
            # [4] powers of a positive tensor
            for p in (0.5, 2.0, 3.0):
                lhs = compound(spectral_map(c, lambda v: v**p), k).entries
                rhs = spectral_map(as_hermitian(compound(c, k).as_tensor()), lambda v: v**p).matrix
                worst = np.maximum(worst, rel_err(lhs, rhs))
            # [5] absolute value
            worst = np.maximum(worst, rel_err(compound(abs_tensor(h), k).entries,
                                       abs_tensor(compound(h, k).as_tensor()).matrix))
            # [6] complex power
            t = float(rng.uniform(-2.0, 2.0))
            lhs = compound(complex_power(c, 1j * t), k).entries
            rhs = complex_power(as_hermitian(compound(c, k).as_tensor()), 1j * t).matrix
            worst = np.maximum(worst, rel_err(lhs, rhs))
            # [7] spectral norm vs subset-product enumeration
            rep = compound_norm_check(h, k)
            worst = np.maximum(worst, rep.rel_err)
            sv = singular_values(h)
            enum = max(subset_products(sv, k))
            worst = np.maximum(worst, abs(rep.rhs - enum) / max(1.0, enum))
            checks += 8

    _report(2, "compound oracle", worst <= 1e-8,
            f"{checks} fact checks up to n=8, k<=4, worst relative error {worst:.2e}", started)


# ---------------------------------------------------------------------------
# 3. Lie-Trotter
# ---------------------------------------------------------------------------

def test_criterion_3_lie_trotter():
    started = time.time()
    rng = np.random.default_rng(303)
    ns = [2**j for j in range(9)]
    worst_slope = -math.inf
    bound_violated = False
    for shape in (TensorShape.square((2, 2)), TensorShape.square((3,))):
        for _ in range(3):
            l1 = random_hermitian(shape, rng, scale=0.8)
            l2 = random_hermitian(shape, rng, scale=0.8)
            slope, bound_ok = lie_trotter_audit(l1, l2, ns)
            bound_violated |= not bound_ok
            worst_slope = np.maximum(worst_slope, slope)
    ok = worst_slope <= -0.9 and not bound_violated
    _report(3, "Lie-Trotter decay", ok,
            f"worst log-log slope {worst_slope:.3f}, proof bound violated: {bound_violated}", started)


# ---------------------------------------------------------------------------
# 4. Multivariate norm inequality
# ---------------------------------------------------------------------------

def test_criterion_4_multivariate_inequality():
    started = time.time()
    rng = np.random.default_rng(404)
    quad = QuadratureSpec(truncation=6.0, node_count=256)
    fs = [lambda x: x, lambda x: x**2, np.exp]
    # tuples are drawn one at a time and verified in one stack per (dim, m)
    tuples = {}
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        shape = TensorShape.square((dim,)) if rng.integers(2) or dim != 4 else TensorShape.square((2, 2))
        cs = [random_positive(shape, rng) for _ in range(int(rng.integers(1, 4)))]
        k = int(rng.integers(1, dim + 1))
        tuples.setdefault((dim, len(cs)), []).append((np.stack([c.matrix for c in cs]), k))
    trials, log_viol, lin_viol = 0, 0, 0
    for group in tuples.values():
        cs, ks = zip(*group)
        for f in fs:  # every tuple under every f: one verifier call per f
            log_bad, lin_bad = multivariate_violations(np.array(cs), np.array(ks), f, quad)
            log_viol += int(np.count_nonzero(log_bad))
            lin_viol += int(np.count_nonzero(lin_bad))
            trials += log_bad.size

    # commuting tuples achieve equality within tolerance
    commuting = {}
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        u = random_unitary(TensorShape.square((dim,)), rng).matrix
        spectra = commuting_spectra(rng, int(rng.integers(2, 4)), dim, 0.3, 2.5)
        k = int(rng.integers(1, dim + 1))
        commuting.setdefault(spectra.shape, []).append((diagonal_in(u, spectra), k))
    eq_excess = 0.0
    for group in commuting.values():
        cs, ks = zip(*group)
        for f in (lambda x: x, lambda x: x**2):
            excess = commuting_equality_excess(np.array(cs), np.array(ks), f, quad)
            eq_excess = np.maximum(eq_excess, np.max(excess))

    ok = trials == 3 * 1000 and log_viol == 0 and lin_viol == 0 and eq_excess <= 0.0
    _report(4, "multivariate norm inequality", ok,
            f"{trials} (tuple, f) checks per form, log violations {log_viol}, "
            f"linear violations {lin_viol}, commuting equality excess {eq_excess:.2e}", started)


# ---------------------------------------------------------------------------
# 5. Discrete majorization-average theorems
# ---------------------------------------------------------------------------

def test_criterion_5_discrete_average_theorems():
    started = time.time()
    rng = np.random.default_rng(505)
    # trials are drawn one at a time and verified in one stack per dimension
    draws = {}
    for i in range(10000):
        mode = MODES[i % 4]
        dim = int(rng.integers(2, 5))
        z = ginibre(rng, dim)
        spectra, w, z_c, f = premise_trial_draws(rng, mode, int(rng.integers(1, 4)), dim)
        form = ("log", "linear")[int(rng.integers(2))] if mode in ("weak_log", "log") else "linear"
        k = int(rng.integers(1, dim + 1))
        atoms = np.zeros((3, dim))
        atoms[: len(w)] = spectra
        weights = np.zeros(3)
        weights[: len(w)] = w
        draws.setdefault(dim, []).append((mode, z, atoms, weights, z_c, f, form, k))
    trials, premise_count, violations = 0, 0, 0
    for group in draws.values():
        modes, z, atoms, weights, z_c, fs, forms, ks = zip(*group)
        c, atom_stack = constructed_premise_trial(
            haar_unitary(np.array(z)), np.array(atoms), np.array(weights), haar_unitary(np.array(z_c)), modes
        )
        rep = verify_discrete_average_majorization(
            c, atom_stack, np.array(weights), fs, np.array(ks), modes, conclusion_form=forms
        )
        trials += len(group)
        premise_count += int(np.count_nonzero(rep.premise_holds))
        violations += int(np.count_nonzero(rep.violated))

    ok = violations == 0 and premise_count > 9000
    _report(5, "discrete average theorems", ok,
            f"{trials} trials, premise held in {premise_count}, violations {violations}", started)


# ---------------------------------------------------------------------------
# 6. Contraction certificate
# ---------------------------------------------------------------------------

def test_criterion_6_contraction_certificate():
    started = time.time()
    graphs = {"K4": gen_complete(4), "C5": gen_cycle(5), "Q3": gen_hypercube(3)}
    shapes = {"2": TensorShape.square((2,)), "2x2": TensorShape.square((2, 2))}
    worst_excess = -math.inf
    cases = 0
    for gname, graph in graphs.items():
        lam = spectral_expansion(graph)[0]
        for sname, shape in shapes.items():
            assignment = random_assignment(graph, shape, radius=1.0, seed=606 + cases)
            for t, a, b in ((0.3, 1.0, 0.7), (0.15, 1.0, 0.0)):
                rep = contraction_certificate(assignment, t, a, b, lam, seed=7)
                worst_excess = np.maximum(worst_excess, rep.worst_excess)
                cases += 1
                assert rep.holds, (gname, sname, t, rep)
    _report(6, "contraction certificate", worst_excess <= 1e-9,
            f"{cases} assignments, exact norms, worst norm excess {worst_excess:.2e}", started)


# ---------------------------------------------------------------------------
# 7. Expectation sandwich and Monte Carlo cross-check
# ---------------------------------------------------------------------------

def test_criterion_7_transfer_sandwich():
    started = time.time()
    graphs = {"K4": gen_complete(4), "C5": gen_cycle(5), "Q3": gen_hypercube(3)}
    shapes = [TensorShape.square((2,)), TensorShape.square((2, 2))]
    admissible, worst_gap = 0, -math.inf
    for gname, graph in graphs.items():
        lam = spectral_expansion(graph)[0]
        for shape in shapes:
            assignment = random_assignment(graph, shape, radius=1.0, seed=717)
            points = [(t, a, b) for t in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8) for a, b in ((1.0, 0.0), (1.0, 0.5))]
            count, gap = expectation_sandwich(assignment, 4, lam, points)
            admissible += count
            worst_gap = np.maximum(worst_gap, gap)
    sandwich_ok = admissible > 0 and worst_gap <= 0.0

    # Monte Carlo cross-check of the exact transfer expectation
    graph = gen_complete(4)
    assignment = random_assignment(graph, TensorShape.square((2,)), radius=1.0, seed=718)
    t, a, b, kappa = 0.2, 1.0, 0.4, 4
    exact = transfer_expectation(assignment, t, a, b, kappa)
    n_walks = 100000
    walks = sample_walks_array(graph, kappa, n_walks, seed=719)
    mats = []
    for v in range(graph.n):
        vals, vecs = np.linalg.eigh(assignment.stack()[v])
        mats.append((vecs * np.exp(t * (a + 1j * b) / 2.0 * vals)) @ vecs.conj().T)
    mats = np.stack(mats)
    prod = mats[walks[:, 0]]
    for j in range(1, kappa):
        prod = prod @ mats[walks[:, j]]
    traces = np.sum(np.abs(prod) ** 2, axis=(1, 2))
    mc, se = float(traces.mean()), float(traces.std(ddof=1) / math.sqrt(n_walks))
    mc_ok = abs(exact - mc) <= 3.0 * se

    _report(7, "expectation sandwich", sandwich_ok and mc_ok,
            f"{admissible} admissible (graph, dim, t, a, b) points, worst transfer-bound gap "
            f"{worst_gap:.2e}; MC {mc:.4f} vs exact {exact:.4f} ({abs(exact - mc) / se:.2f} SE)", started)


# ---------------------------------------------------------------------------
# 8. Tail bound end to end
# ---------------------------------------------------------------------------

def _nonvacuous_theta(params_base: ChernoffParams, fit) -> float:
    theta = 2.0 * (params_base.kappa + 8.0 * params_base.lam_bar) * params_base.radius * 1.05
    for _ in range(60):
        params = ChernoffParams(
            kappa=params_base.kappa, k=params_base.k, theta=theta,
            lam_bar=params_base.lam_bar, dim=params_base.dim, radius=params_base.radius,
        )
        try:
            if corollary_bound(params, fit).value < 0.9:
                return theta
        except PreconditionError:
            pass
        theta *= 1.3
    return theta


def test_criterion_8_tail_bound_end_to_end():
    started = time.time()
    fit = fit_gaussian_domination(6.0, [0.7, 1.0, 1.5, 2.0, 3.0])
    poly = PolynomialSpec.identity()
    num_walks = 100000
    configs = checked = 0
    worst_excess = -math.inf
    worst_rel = 0.0
    total_violations = 0
    for graph, gname in ((gen_complete(4), "K4"), (gen_hypercube(3), "Q3")):
        lam_bar = 1.0 - spectral_expansion(graph)[0]
        assignment = random_assignment(graph, TensorShape.square((2,)), radius=1.0, seed=808)
        for kappa in (4, 8, 16):
            for k in (1, 2):
                base = ChernoffParams(kappa=kappa, k=k, theta=1.0, lam_bar=lam_bar,
                                      dim=2, radius=assignment.radius)
                theta_star = _nonvacuous_theta(base, fit)
                thetas = sorted(
                    {round(f * kappa * assignment.radius, 6) for f in (0.25, 0.5, 0.75, 1.0)}
                    | {round(theta_star, 6), round(1.2 * theta_star, 6)}
                )
                table = tail_table(assignment, poly, k, thetas, num_walks, kappa, seed=809,
                                   lam_bar=lam_bar, fit=fit)
                checked += table.compared
                worst_excess = np.maximum(worst_excess, table.excess)
                worst_rel = np.maximum(worst_rel, table.corollary_rel_err)
                total_violations += sum(row.assumption3_violations for row in table.rows)
                configs += 1

    ok = checked > 0 and worst_excess <= 0.0 and worst_rel <= 1e-6 and total_violations == 0
    _report(8, "tail bound end to end", ok,
            f"{configs} (graph, kappa, k) configs at {num_walks} walks; {checked} nonvacuous "
            f"thresholds, worst p_hat excess {worst_excess:.2e}, corollary-theorem rel err "
            f"{worst_rel:.2e}, assumption-3 violations {total_violations}", started)


# ---------------------------------------------------------------------------
# 9. beta0 density mass
# ---------------------------------------------------------------------------

def test_criterion_9_beta0_mass():
    started = time.time()
    err = beta0_mass_error(QuadratureSpec(truncation=6.0, node_count=256))
    _report(9, "beta0 quadrature mass", err <= 1e-8,
            f"|mass - closed form| = {err:.2e}", started)


# ---------------------------------------------------------------------------
# 10. Determinism across reruns and walk chunkings
# ---------------------------------------------------------------------------

DETERMINISM_CONFIG = """
[experiment]
suite = chernoff_sweep
seed = 31415

[graph]
kind = complete
n = 4

[tensors]
source = random
row_dims = 2
radius = 1.0

[walk]
kappa = 6
k = 1
num_walks = 20000

[sweep]
theta_grid = 1 2 4 8 150
"""


def test_criterion_10_determinism(monkeypatch):
    started = time.time()
    cfg = parse_config(DETERMINISM_CONFIG)
    # the default chunking, a size that divides nothing, and all 20000 walks in one chunk
    chunk_sizes = (DEFAULT_TAIL_CHUNK, 701, 20000)
    outputs, sweeps = [], []

    def sweep(*args, **kwargs):  # the binding chernoff.tail_table calls
        sweeps.append(chunk_size)
        return empirical_tail_sweep(*args, **kwargs, chunk_size=chunk_size)

    monkeypatch.setattr(chernoff, "empirical_tail_sweep", sweep)
    for chunk_size in chunk_sizes:
        outputs.append(run(cfg).to_json())
    monkeypatch.undo()
    assert sweeps == list(chunk_sizes), f"the chunked sweep ran for {sweeps}, not once per chunk size"
    rerun = run(cfg).to_json()
    identical = all(o == outputs[0] for o in outputs) and rerun == outputs[0]
    _report(10, "determinism", identical,
            f"byte-identical report bodies across chunk sizes {chunk_sizes} and a rerun: {identical}", started)
