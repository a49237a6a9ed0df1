"""Experiment runner: executes a named suite and assembles a report.

Every suite draws its randomness from streams derived off the master seed, so
a report is a pure function of the parsed config (seed included); reruns
reproduce it byte for byte, and so does any chunking of the Monte Carlo
walks.  So does a ``chernoff_sweep`` whose transfer-operator checks run on a
worker thread beside its Monte Carlo tail (``_side_by_side``): neither half
reads the other's output.  A suite draws its own trials and hands them, in
stacks of equal shape, to the library verifier of its check (the same
function the acceptance gate calls), so the pass/fail rule and its slack
live in the library.  Checks that cannot run (empty precondition regimes) are recorded
by ``CheckRecord.skipped`` rather than dropped.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

from . import __version__
from .chernoff import (
    CERTIFICATE,
    CONTRACTION_SLACK,
    PolynomialSpec,
    contraction_certificate,
    expectation_sandwich,
    fit_gaussian_domination,
    load_assignment,
    random_assignment,
    tail_table,
)
from .config import ExperimentConfig, GraphSpec
from .errors import ConfigError
from .graphs import (
    EXPANSION,
    RegularGraph,
    _slot_mean,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random_regular,
    load_edge_list,
    sample_walks_array,
    spectral_expansion,
)
from .inequalities import (
    LOG_MODES,
    MODES,
    TRIAL_FUNCTIONS,
    QuadratureSpec,
    beta0_density,
    beta0_mass_error,
    beta_density,
    commuting_equality_excess,
    commuting_spectra,
    constructed_premise_trial,
    lie_trotter_audit,
    multivariate_violations,
    verify_discrete_average_majorization,
)
from .majorization import check_kyfan_sum_inequality
from .norms import holder_gauge_violations
from .reporting import CheckRecord, Report
from .rng import DOMAIN_SUITE, INEQUALITY_STREAM, TENSOR_STREAM, WALK_STREAM, stream
from .sampling import diagonal_in, ginibre, haar_unitary, random_hermitian, random_tensor
from .tensors import (
    Tensor,
    TensorShape,
    col_tensor,
    conj_transpose,
    hermitian_eig,
    inner_product,
    kronecker,
    tensor_exp,
    trace,
)

_SUITE_IDS = {"tensor_props": 0, "inequalities": 1, "expander": 2, "chernoff_sweep": 3}


def build_graph(spec: GraphSpec, seed: int) -> RegularGraph:
    if spec.kind == "complete":
        return gen_complete(spec.n)
    if spec.kind == "cycle":
        return gen_cycle(spec.n)
    if spec.kind == "hypercube":
        return gen_hypercube(spec.dim)
    if spec.kind == "random_regular":
        gseed = spec.graph_seed if spec.graph_seed is not None else seed
        return gen_random_regular(spec.n, spec.degree, gseed)
    if spec.kind == "file":
        return load_edge_list(spec.path)
    raise ConfigError(f"unknown graph kind {spec.kind!r}")


def run(config: ExperimentConfig, seed: int | None = None) -> Report:
    suite = config.experiment.suite
    seed = config.experiment.seed if seed is None else seed
    suite_fns = {
        "tensor_props": _suite_tensor_props,
        "inequalities": _suite_inequalities,
        "expander": _suite_expander,
        "chernoff_sweep": _suite_chernoff_sweep,
    }
    if suite not in suite_fns:
        raise ConfigError(f"unknown suite {suite!r}")
    checks, rows = suite_fns[suite](config, seed)
    return Report(
        suite=suite,
        config=config.echo(),
        checks=checks,
        tail_rows=rows,
        environment={"version": __version__, "seed": seed, "walk_stream": WALK_STREAM, "tensor_stream": TENSOR_STREAM,
                     "inequality_stream": INEQUALITY_STREAM, "certificate": CERTIFICATE, "expansion": EXPANSION},
    )


# ---------------------------------------------------------------------------
# tensor_props
# ---------------------------------------------------------------------------

def _random_shape(rng, max_modes=2, max_dim=3) -> tuple[int, ...]:
    return tuple(int(d) for d in rng.integers(1, max_dim + 1, size=rng.integers(1, max_modes + 1)))


def _taylor_exp(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` by matrix products alone: degree-20 Taylor on ``a / 2^s`` of 1-norm at most 1/2, squared s times."""
    s = math.ceil(math.log2(max(float(np.linalg.norm(a, 1)), 1.0))) + 1
    term = out = np.eye(len(a), dtype=a.dtype)
    for j in range(1, 21):
        term = term @ a / (2.0**s * j)
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _suite_tensor_props(cfg: ExperimentConfig, seed: int):
    rng = stream(seed, DOMAIN_SUITE, _SUITE_IDS["tensor_props"])
    trials = cfg.experiment.trials
    worst_einstein = worst_adjoint = worst_trace = 0.0
    worst_specmap = worst_kron = 0.0
    for _ in range(trials):
        rows, mids, cols = _random_shape(rng), _random_shape(rng), _random_shape(rng)
        x = random_tensor(TensorShape(rows, mids), rng)
        y = random_tensor(TensorShape(mids, cols), rng)
        prod = x @ y
        ref = np.einsum(
            x.entries,
            list(range(x.entries.ndim)),
            y.entries,
            list(range(len(rows), len(rows) + y.entries.ndim)),
            list(range(len(rows))) + list(range(len(rows) + len(mids), len(rows) + len(mids) + len(cols))),
        )
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_einstein = np.maximum(worst_einstein, float(np.max(np.abs(prod.entries - ref))) / scale)

        gram = inner_product(prod, prod)  # <P, XY> = <X^H P, Y> = Tr(P^H X Y), a complex identity
        adj = abs(gram - inner_product(conj_transpose(x) @ prod, y)) / max(1.0, abs(gram))
        worst_adjoint = np.maximum(worst_adjoint, adj)

        sq = TensorShape.square(rows)
        h = random_hermitian(sq, rng)
        spec = hermitian_eig(h)
        worst_trace = np.maximum(worst_trace, abs(trace(h).real - float(np.sum(spec.eigenvalues))))

        # the eigen-equation, the descending order, exp's spectrum in that order and the whole exp(H) against
        # the Taylor oracle, which an exp of conj(H) (the same spectrum) does not match
        vals, top = spec.eigenvalues, max(1.0, float(np.max(np.abs(spec.eigenvalues))))
        residual = float(np.max(np.abs(h.matrix @ spec.basis - spec.basis * vals))) / top
        disorder = float(np.max(np.abs(vals - np.sort(vals)[::-1])))
        direct = np.exp(vals)
        exp_h = tensor_exp(h)
        mapped = hermitian_eig(exp_h).eigenvalues
        specmap = float(np.max(np.abs(mapped - direct))) / max(1.0, float(np.max(direct)))
        taylor = _taylor_exp(h.matrix)
        whole = float(np.max(np.abs(exp_h.matrix - taylor))) / max(1.0, float(np.max(np.abs(taylor))))
        worst_specmap = np.maximum(worst_specmap, np.max([residual, disorder, specmap, whole]))  # a NaN in any fails

        c = random_tensor(sq, rng)
        b = random_tensor(sq, rng)
        paired = list(range(len(rows)))
        worst_trace = np.maximum(worst_trace, abs(trace(c) - complex(np.einsum(c.entries, paired + paired, []))))
        lhs = (kronecker(c, b) @ col_tensor(h)).matrix  # row-major vec: (C kron B) vec H = vec(C H B^T)
        rhs = col_tensor(c @ h @ Tensor(sq, b.matrix.T)).matrix
        worst_kron = np.maximum(worst_kron, float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(rhs)))))

    slope, bound_ok = -math.inf, True
    shape = TensorShape.square((2, 2))
    for _ in range(4):
        l1 = random_hermitian(shape, rng, scale=0.8)
        l2 = random_hermitian(shape, rng, scale=0.8)
        pair_slope, pair_ok = lie_trotter_audit(l1, l2, [2**j for j in range(9)])
        slope = float(np.maximum(slope, pair_slope))
        bound_ok &= pair_ok
    checks = [
        CheckRecord.from_bound("einstein_vs_einsum_rel_err", worst_einstein, 1e-10,
                               detail=f"{trials} randomized products"),
        CheckRecord.from_bound("adjoint_product_rule_rel_err", worst_adjoint, 1e-10),
        CheckRecord.from_bound("trace_vs_eigenvalue_sum", worst_trace, 1e-10),
        CheckRecord.from_bound("spectral_mapping_rel_err", worst_specmap, 1e-9),
        CheckRecord.from_bound("kron_col_tensor_rel_err", worst_kron, 1e-9),
        CheckRecord.from_bound("lie_trotter_loglog_slope", slope, -0.9,
                               detail="n = 1,2,4,...,256"),
        CheckRecord.from_bound("lie_trotter_proof_bound_violations", 0.0 if bound_ok else 1.0, 0.0),
    ]
    return checks, []


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def _suite_inequalities(cfg: ExperimentConfig, seed: int):
    rng = stream(seed, DOMAIN_SUITE, _SUITE_IDS["inequalities"])
    trials = cfg.experiment.trials
    quad = QuadratureSpec(truncation=cfg.quadrature.truncation, node_count=cfg.quadrature.nodes)
    checks = []

    checks.append(CheckRecord.from_bound("beta0_quadrature_mass_error", beta0_mass_error(quad), 1e-8,
                                         detail="vs antiderivative tanh(pi T / 2)"))
    ts = np.linspace(-4.0, 4.0, 81)
    checks.append(
        CheckRecord.from_bound(
            "beta_theta_limit_error",
            float(np.max(np.abs(beta_density(1e-4, ts) - beta0_density(ts)))),
            1e-6,
        )
    )

    checks.append(_holder_check(_holder_draws(rng, trials)))
    checks.append(_kyfan_check(_kyfan_draws(rng, trials)))
    checks.append(_discrete_majorization_check(_premise_draws(rng, trials)))
    mv_trials = max(20, trials // 10)
    multivariate = _multivariate_draws(rng, mv_trials)
    commuting = _commuting_draws(rng, max(5, mv_trials // 10))
    checks.extend(_multivariate_checks(multivariate, commuting, quad))
    return checks, []


# Each check draws its trials in stacks (the layout rng.INEQUALITY_STREAM names): every shape
# parameter of all trials in one call each, then per shape group, ascending, one call per array
# quantity at the group's full size.  A trial with fewer vectors, matrices or atoms than its
# group's largest is padded, and the verifiers mask the padding.

def _by_shape(*keys) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Each distinct tuple of ``keys`` values, ascending, with its trials' indices in draw order."""
    keys = np.stack(keys, axis=1)  # a set below, not np.unique: that imports numpy.ma (about 10 ms and 1 MB)
    return [(v, np.flatnonzero((keys == v).all(axis=1))) for v in sorted(set(map(tuple, keys.tolist())))]


def _dirichlet(rng, counts: np.ndarray) -> np.ndarray:
    """Dirichlet(1, ..., 1) weights on the first ``counts[i]`` entries of row ``i``, 0 on the rest:
    standard exponentials normalized over the row's own entries."""
    e = rng.standard_exponential((counts.size, counts.max()))
    e[np.arange(counts.max()) >= counts[:, None]] = 0.0
    return e / e.sum(axis=1, keepdims=True)


def _holder_draws(rng, trials: int) -> list:
    """Per vector length ``r``: sorted vectors ``(g, n, r)``, weights ``(g, n)`` and k ``(g,)``."""
    n, r = rng.integers(2, 5, size=trials), rng.integers(2, 7, size=trials)
    k = rng.integers(1, r + 1)
    stacks = []
    for (width,), rows in _by_shape(r):
        vecs = np.sort(rng.uniform(0.0, 4.0, size=(rows.size, n[rows].max(), width)))[..., ::-1]
        stacks.append((vecs, _dirichlet(rng, n[rows]), k[rows]))
    return stacks


def _holder_check(stacks) -> CheckRecord:
    # a zero-weight vector is a factor 1 on both sides
    bad = sum(int(np.count_nonzero(holder_gauge_violations(*stack))) for stack in stacks)
    return CheckRecord.from_bound("holder_gauge_violations", bad, 0.0,
                                  detail=f"{sum(len(ks) for *_, ks in stacks)} random vector tuples")


def _kyfan_draws(rng, trials: int) -> list:
    """Per dimension ``d``: matrices ``(g, m, d, d)``, each trial's count of them, the power s and k."""
    dim, m = rng.integers(2, 4, size=trials), rng.integers(1, 5, size=trials)
    k, s = rng.integers(1, dim + 1), rng.choice([1.0, 2.0, 3.0], size=trials)
    return [(ginibre(rng, d, rows.size, m[rows].max()) / np.sqrt(2.0), m[rows], s[rows], k[rows])
            for (d,), rows in _by_shape(dim)]


def _kyfan_check(stacks) -> CheckRecord:
    bad = 0
    for mats, counts, s, ks in stacks:
        bad += int(np.count_nonzero(~check_kyfan_sum_inequality(mats, s, ks, counts=counts).holds))
    return CheckRecord.from_bound("kyfan_sum_inequality_violations", bad, 0.0,
                                  detail=f"{sum(len(ks) for *_, ks in stacks)} random batches, m <= 4, s in {{1,2,3}}")


def _premise_draws(rng, trials: int) -> list:
    """Per dimension ``d``: modes, Ginibre matrices ``(g, 2, d, d)`` of the atom and C bases, atom
    spectra ``(g, a, d)`` on [lo, 3] (lo 0.3 for the log modes, -2 otherwise), weights ``(g, a)``, f and k."""
    dim, modes = rng.integers(2, 5, size=trials), np.array(MODES)[rng.integers(4, size=trials)]
    atoms, k = rng.integers(1, 4, size=trials), rng.integers(1, dim + 1)
    which = rng.integers([len(TRIAL_FUNCTIONS[mode]) for mode in modes])
    lo = np.where(np.isin(modes, LOG_MODES), 0.3, -2.0)[:, None, None]
    stacks = []
    for (d,), rows in _by_shape(dim):
        z = ginibre(rng, d, rows.size, 2)
        u = rng.random((rows.size, atoms[rows].max(), d))
        spectra = np.sort(lo[rows] + (3.0 - lo[rows]) * u)[..., ::-1]
        fs = [TRIAL_FUNCTIONS[modes[i]][which[i]] for i in rows]
        stacks.append((modes[rows], z, spectra, _dirichlet(rng, atoms[rows]), fs, k[rows]))
    return stacks


def _discrete_majorization_check(stacks) -> CheckRecord:
    violations = premise_holds = 0
    for modes, z, spectra, w, fs, ks in stacks:
        u = haar_unitary(z)
        c, atoms = constructed_premise_trial(u[:, 0], spectra, w, u[:, 1], modes)  # a zero weight drops a padding atom
        rep = verify_discrete_average_majorization(c, atoms, w, fs, ks, modes)
        premise_holds += int(np.count_nonzero(rep.premise_holds))
        violations += int(np.count_nonzero(rep.violated))
    return CheckRecord.from_bound(
        "discrete_average_majorization_violations",
        violations,
        0.0,
        detail=f"{sum(len(ks) for *_, ks in stacks)} constructed-premise trials, premise held in {premise_holds}",
    )


# log f(e^x) must be convex: x and x^2 give affine maps, exp gives e^x
_MULTIVARIATE_FS = (lambda x: x, lambda x: x**2, np.exp)


def _multivariate_draws(rng, trials: int) -> list:
    """Per ``(d, m)``: Ginibre matrices ``(g, m, d, d)`` and spectra ``(g, m, d)`` on [0.2, 3] of
    m positive tensors, k and f's index."""
    dim, m = rng.integers(2, 5, size=trials), rng.integers(1, 4, size=trials)
    k, which = rng.integers(1, dim + 1), rng.integers(len(_MULTIVARIATE_FS), size=trials)
    return [(ginibre(rng, d, rows.size, count), rng.uniform(0.2, 3.0, size=(rows.size, count, d)), k[rows], which[rows])
            for (d, count), rows in _by_shape(dim, m)]


def _commuting_draws(rng, trials: int) -> list:
    """Per dimension ``d``: Ginibre matrices ``(g, d, d)`` of the bases, spectra ``(g, 2, d)`` on [0.3, 2.5] and k."""
    dim = rng.integers(2, 4, size=trials)
    k = rng.integers(1, dim + 1)
    return [(ginibre(rng, d, rows.size), commuting_spectra(rng, 2 * rows.size, d, 0.3, 2.5).reshape(-1, 2, d), k[rows])
            for (d,), rows in _by_shape(dim)]


def _multivariate_checks(stacks, commuting, quad: QuadratureSpec) -> list[CheckRecord]:
    log_bad = lin_bad = 0
    for zs, vals, ks, which in stacks:  # each trial is checked under its own f only
        fs = [_MULTIVARIATE_FS[i] for i in which]
        log_viol, lin_viol = multivariate_violations(diagonal_in(haar_unitary(zs), vals), ks, fs, quad)
        log_bad += int(np.count_nonzero(log_viol))
        lin_bad += int(np.count_nonzero(lin_viol))

    # commuting families achieve equality within the reported error
    eq_err = 0.0
    for z, spectra, ks in commuting:
        excess = commuting_equality_excess(diagonal_in(haar_unitary(z)[:, None], spectra), ks, lambda x: x, quad)
        eq_err = float(np.maximum(eq_err, np.max(excess)))
    n = sum(len(which) for *_, which in stacks)
    return [
        CheckRecord.from_bound("multivariate_log_form_violations", log_bad, 0.0,
                               detail=f"{n} random positive tuples"),
        CheckRecord.from_bound("multivariate_linear_form_violations", lin_bad, 0.0,
                               detail=f"{n} random positive tuples"),
        CheckRecord.from_bound("multivariate_commuting_equality_excess", eq_err, 0.0),
    ]


# ---------------------------------------------------------------------------
# expander
# ---------------------------------------------------------------------------

def _bernstein_ratio(counts, n_walks: int, p, cells: int):
    """``|count - N p|`` over its Bernstein bound per cell, with a union over ``cells`` cells at rate 1e-6.

    For any ``N p``, ``|count - N p| <= L / 3 + sqrt(L^2 / 9 + 2 L N p (1 - p))``, ``L = log(2 cells / 1e-6)``, so
    a ratio above 1 anywhere has probability at most 1e-6 under the model.
    """
    log_term = math.log(2.0 * cells / 1e-6)
    allowed = log_term / 3.0 + np.sqrt(log_term**2 / 9.0 + 2.0 * log_term * n_walks * p * (1.0 - p))
    return np.abs(counts - n_walks * p) / allowed


def _stationary_marginal_ratio(walks: np.ndarray, n: int) -> float:
    """Largest ``_bernstein_ratio`` of the visits to each vertex at walk positions 1, kappa // 2 + 1 and kappa
    (columns 0, kappa // 2 and kappa - 1) against the uniform stationary law: one union over those 3n cells."""
    n_walks, kappa = walks.shape
    counts = np.stack([np.bincount(walks[:, j], minlength=n) for j in (0, kappa // 2, kappa - 1)])
    return float(np.max(_bernstein_ratio(counts, n_walks, 1.0 / n, 3 * n)))


def _two_step_joint_ratio(graph: RegularGraph, walks: np.ndarray) -> float:
    """Largest ``_bernstein_ratio`` over the arcs at ``p = mult / d / n``, one union; inf for a step off the arcs."""
    keys, mult = graph.arcs()
    steps = walks[:, 0] * graph.n + walks[:, 1]  # each walk's (first, second) vertex pair by arc key
    at = np.searchsorted(keys, steps)
    if not np.array_equal(keys.take(at, mode="clip"), steps):
        return math.inf
    counts = np.bincount(at, minlength=keys.size)
    return float(np.max(_bernstein_ratio(counts, walks.shape[0], mult / graph.degree / graph.n, keys.size)))


def _suite_expander(cfg: ExperimentConfig, seed: int):
    graph = build_graph(cfg.graph, seed)
    try:  # A / d is symmetric bit for bit, so the lower triangle that eigvalsh reads is the whole matrix
        vals = np.linalg.eigvalsh(graph.adjacency / graph.degree)
    except np.linalg.LinAlgError:  # LAPACK does not converge on a NaN matrix
        vals = np.full(graph.n, math.nan)
    # the row sums of the operator that lambda, the certificate and the transfer operator run on
    row_sums = _slot_mean(graph.edge_slots(), np.ones(graph.n))
    checks = [CheckRecord.from_bound("rows_sum_to_one", float(np.max(np.abs(row_sums - 1.0))), 1e-12)]

    # the slot-Lanczos lambda against the dense spectrum's (ascending: drop one copy of the trivial 1)
    lam, residual, steps = spectral_expansion(graph)
    dense = float(np.max(np.abs(vals[:-1])))
    detail = f"lambda = {lam:.6f} by {steps} slot-Lanczos steps, Ritz residual {residual:.1e}; dense {dense:.6f}"
    checks.append(CheckRecord.from_bound("expansion_certificate", abs(lam - dense), residual + 1e-12, detail=detail))

    kappa = max(cfg.walk.kappa, 2)
    n_walks = min(cfg.walk.num_walks, 50000)
    walks = sample_walks_array(graph, kappa, n_walks, seed)
    checks.append(CheckRecord.from_bound("stationary_marginal_max_sigma", _stationary_marginal_ratio(walks, graph.n),
                                         1.0, detail=f"{n_walks} walks, positions 1, {kappa // 2 + 1}, {kappa}: "
                                                     "|count - N / n| over its Bernstein bound"))
    checks.append(CheckRecord.from_bound("two_step_joint_max_sigma", _two_step_joint_ratio(graph, walks), 1.0,
                                         detail=f"{n_walks} walks, |count - N p| over its Bernstein bound"))

    # walk i depends only on (seed, i): chunking invariance rests on it
    same = all(np.array_equal(sample_walks_array(graph, kappa, 1, seed, start_index=i)[0], walks[i])
               for i in (0, n_walks - 1))
    checks.append(CheckRecord.from_bound("walk_determinism", 0.0 if same else 1.0, 0.0))
    return checks, []


# ---------------------------------------------------------------------------
# chernoff_sweep
# ---------------------------------------------------------------------------

# The transfer operator's coordinate count n * d^2 from which its checks run on a worker thread beside the tail, for
# d > 2. The halves overlap only while one is in numpy code that releases the interpreter lock, such as an elementwise
# loop over a large array; the tail's batched LAPACK eigvalsh holds it. Below the count the thread does not pay, and a
# 2x2 tail's closed form is short numpy steps that contend for the lock (measurements: README, chernoff_sweep).
THREADED_COORDINATES = 2048


def _side_by_side(main: Callable, worker: Callable, threaded: bool) -> tuple:
    """``(main(), worker())``; when ``threaded``, ``worker`` runs on a new thread while ``main`` runs on this one.

    Either way ``main``'s error is the one raised when both fail, as in the sequential order, and the thread is
    joined before any error leaves: no thread outlives the call.
    """
    if not threaded:
        first = main()
        return first, worker()
    outcome = []

    def target():
        try:
            outcome.append((worker(), None))
        except BaseException as exc:  # re-raised on the calling thread below
            outcome.append((None, exc))

    thread = threading.Thread(target=target, name="transfer-operator-checks")
    thread.start()
    try:
        first = main()
    finally:
        thread.join()
    second, error = outcome.pop()
    if error is not None:
        raise error
    return first, second


def _suite_chernoff_sweep(cfg: ExperimentConfig, seed: int):
    graph = build_graph(cfg.graph, seed)
    if cfg.tensors.source == "manifest":
        assignment = load_assignment(cfg.tensors.manifest, graph=graph)
    else:
        shape = TensorShape.square(cfg.tensors.row_dims)
        assignment = random_assignment(graph, shape, cfg.tensors.radius, seed)
    lam, residual, steps = spectral_expansion(graph)
    lam_bar = 1.0 - lam
    poly = PolynomialSpec(cfg.poly.coefficients, cfg.poly.power)
    fit = fit_gaussian_domination(cfg.domination.window, cfg.domination.sigma_grid)
    checks = []

    detail = f"lambda = {lam:.6f}, a Ritz lower estimate by {steps} slot-Lanczos steps, residual {residual:.1e}"
    checks.append(CheckRecord.skipped(
        "gamma_algebra_error", 0.0, "a tautology: gamma_bounds returns (e, lambda (e - 1), e - 1, lambda e), so "
        f"gamma 2 = lambda gamma 3 and gamma 4 = lambda gamma 1 by the same float operations; {detail}"))

    def tail():  # the Monte Carlo half: walks from (seed, DOMAIN_WALK)
        return tail_table(assignment, poly, cfg.walk.k, cfg.sweep.theta_grid, cfg.walk.num_walks, cfg.walk.kappa,
                          seed, lam_bar, fit)

    def transfer():  # the transfer-operator half: the probe from (seed, DOMAIN_PROBE), the frames built here
        cert = contraction_certificate(assignment, t=min(0.5, 0.9 / assignment.radius), a=1.0, b=0.5, lam=lam,
                                       seed=seed)
        points = [(t, 1.0, 0.0) for t in (0.05, 0.15, 0.4)]
        return cert, expectation_sandwich(assignment, min(cfg.walk.kappa, 4), lam, points)

    # theorem_bound refuses an unverified fit, so no tail runs and its check below FAILs the run instead
    threaded = fit.verified and assignment.dim > 2 and graph.n * assignment.dim**2 >= THREADED_COORDINATES
    table, (cert, (tested, sandwich_excess)) = _side_by_side(tail if fit.verified else lambda: None, transfer,
                                                             threaded)
    if fit.verified:
        rows = table.rows
        if poly.is_identity and table.corollary_rows:
            checks.append(CheckRecord.from_bound("corollary_vs_theorem_rel_err", table.corollary_rel_err, 1e-6,
                                                 detail=f"{table.corollary_rows} thresholds in the corollary regime"))
        elif poly.is_identity:
            checks.append(CheckRecord.skipped("corollary_vs_theorem_rel_err", 1e-6,
                                              "no threshold reaches the corollary regime"))

        excluded = ", ".join(f"{t:g}" for t in table.excluded)
        excluded = f"; assumption-3 violations exclude theta = {excluded}" if excluded else ""
        if table.compared:
            checks.append(CheckRecord.from_bound("tail_below_bound_excess", table.excess, 0.0,
                                                 detail=f"{table.compared} nonvacuous thresholds{excluded}"))
        else:
            vacuous = sum(row.vacuous for row in rows)
            why = f"{vacuous} vacuous bounds{excluded}" if excluded else "every bound is vacuous"
            checks.append(CheckRecord.skipped("tail_below_bound_excess", 0.0, why))
    else:
        rows, why = [], "domination fit not verified"
        if poly.is_identity:
            checks.append(CheckRecord.skipped("corollary_vs_theorem_rel_err", 1e-6, why))
        checks.append(CheckRecord.skipped("tail_below_bound_excess", 0.0, why))

    detail = f"gammas {tuple(round(g, 6) for g in cert.gammas)}, part 4: {cert.steps} Lanczos steps"
    checks.append(CheckRecord.from_bound("contraction_certificate_excess", cert.worst_excess, CONTRACTION_SLACK,
                                         detail=f"{detail}, Ritz residual {cert.residual:.1e}"))

    if tested:
        vacuous = ", every bound infinite" if sandwich_excess == -math.inf else ""  # exp overflowed: vacuous
        checks.append(CheckRecord.from_bound("transfer_expectation_below_bound", sandwich_excess, 0.0,
                                             detail=f"{tested} admissible t values{vacuous}"))
    else:
        checks.append(CheckRecord.skipped("transfer_expectation_below_bound", 0.0,
                                          "no t satisfies the lemma preconditions"))

    checks.append(CheckRecord.from_bound(
        "domination_fit_verified", 0.0 if fit.verified else 1.0, 0.0,
        detail=f"C = {fit.c:.6f}, sigma = {fit.sigma}, window = {fit.window}",
    ))
    return checks, rows
