"""Runner suites end to end through the library API."""

import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tensor_chernoff import runner as runner_mod
from tensor_chernoff.config import parse_config
from tensor_chernoff.errors import ConfigError, NumericalError
from tensor_chernoff.graphs import (
    RegularGraph,
    gen_cycle,
    gen_random_regular,
    normalized_adjacency,
    sample_walks_array,
    save_edge_list,
)
from tensor_chernoff.runner import build_graph, run


def _run_text(text, **kw):
    return run(parse_config(text), **kw)


def test_tensor_props_defaults_all_pass():
    rep = _run_text("[experiment]\nsuite = tensor_props\nseed = 3\ntrials = 80\n")
    assert rep.all_passed
    names = [c.name for c in rep.checks]
    assert names == sorted(names)
    assert rep.tail_rows == ()
    assert rep.environment["seed"] == 3


def test_inequalities_suite_all_pass():
    rep = _run_text(
        "[experiment]\nsuite = inequalities\nseed = 3\ntrials = 60\n"
        "[quadrature]\ntruncation = 6.0\nnodes = 64\n"
    )
    assert rep.all_passed
    assert any(c.name == "beta0_quadrature_mass_error" for c in rep.checks)


def test_inequalities_suite_memory_stays_bounded():
    # the benchmark shape: the trial stacks, and the quadrature node blocks in
    # particular, must not raise the working set much above a one-at-a-time loop's
    config = parse_config(
        "[experiment]\nsuite = inequalities\nseed = 5\ntrials = 200\n"
        "[quadrature]\ntruncation = 6.0\nnodes = 256\n"
    )
    run(config)  # warm the Gauss-Legendre cache
    tracemalloc.start()
    try:
        rep = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_passed
    assert peak <= 1.5 * 2**20, f"inequalities suite peak {peak / 2**20:.2f} MB"


def test_expander_suite_all_pass():
    rep = _run_text(
        "[experiment]\nsuite = expander\nseed = 3\n"
        "[graph]\nkind = random_regular\nn = 24\ndegree = 4\n"
        "[walk]\nkappa = 6\nnum_walks = 20000\n"
    )
    assert rep.all_passed


def test_chernoff_sweep_hypercube_nonexpanding():
    # bipartite graph: expansion 1, lam_bar 0; bounds stay well defined and
    # a large threshold still reaches the nonvacuous regime
    rep = _run_text(
        "[experiment]\nsuite = chernoff_sweep\nseed = 3\n"
        "[graph]\nkind = hypercube\ndim = 3\n"
        "[tensors]\nsource = random\nrow_dims = 2\nradius = 1.0\n"
        "[walk]\nkappa = 4\nk = 1\nnum_walks = 3000\n"
        "[sweep]\ntheta_grid = 2 4 40\n"
    )
    assert rep.all_passed
    assert any(not row.vacuous for row in rep.tail_rows)
    skipped = [c for c in rep.checks if c.detail.startswith("skipped")]
    assert any("preconditions" in c.detail for c in skipped)  # lambda = 1 blocks the lemma


def test_chernoff_sweep_runs_transfer_checks_past_dense_size():
    # n * dim^2 = 40 * 16^2 = 10240: the transfer checks run on the stack apply
    rep = _run_text(
        "[experiment]\nsuite = chernoff_sweep\nseed = 3\n"
        "[graph]\nkind = random_regular\nn = 40\ndegree = 4\n"
        "[tensors]\nsource = random\nrow_dims = 4 4\nradius = 1.0\n"
        "[walk]\nkappa = 4\nk = 1\nnum_walks = 1000\n"
        "[sweep]\ntheta_grid = 4 1000\n"
    )
    assert rep.all_passed
    checks = {c.name: c for c in rep.checks}
    for name in ("contraction_certificate_excess", "transfer_expectation_below_bound"):
        assert checks[name].passed
        assert not checks[name].detail.startswith("skipped")
    assert checks["contraction_certificate_excess"].lhs < 0.0


def test_tail_check_names_the_thresholds_that_assumption_3_excludes():
    # f(x) = x^2 breaks assumption 3 on every walk; at theta = 1000 the bound is 7.8e-12, not vacuous
    rep = _run_text(
        "[experiment]\nsuite = chernoff_sweep\nseed = 5\n"
        "[graph]\nkind = complete\nn = 4\n"
        "[tensors]\nsource = random\nrow_dims = 2\nradius = 1.0\n"
        "[poly]\ncoefficients = 0 0 1\n"
        "[walk]\nkappa = 8\nk = 1\nnum_walks = 20000\n"
        "[sweep]\ntheta_grid = 2 4 8 60 120 400 1000\n"
    )
    last = rep.tail_rows[-1]
    assert last.theta == 1000.0 and not last.vacuous and last.assumption3_violations == 20000
    assert sum(row.vacuous for row in rep.tail_rows) == 6
    tail = {c.name: c for c in rep.checks}["tail_below_bound_excess"]
    assert tail.detail == "skipped: 6 vacuous bounds; assumption-3 violations exclude theta = 1000"


@pytest.mark.parametrize("text", [
    (Path(__file__).parent.parent / "configs" / "chernoff_k4.ini").read_text(),
    "[experiment]\nsuite = chernoff_sweep\nseed = 5\n"
    "[graph]\nkind = random_regular\nn = 64\ndegree = 5\n"
    "[tensors]\nsource = random\nrow_dims = 2 2\nradius = 1.0\n"
    "[walk]\nkappa = 4\nk = 2\nnum_walks = 2000\n"
    "[sweep]\ntheta_grid = 2 8\n",
], ids=["chernoff_k4", "rr64x5-dim4"])
def test_chernoff_sweep_never_reads_the_adjacency(monkeypatch, text):
    # the graph is its slot table: lambda, the walks, the certificate and the sandwich need no n x n array
    def refuse(graph):
        raise AssertionError("the n x n adjacency was read")

    monkeypatch.setattr(RegularGraph, "adjacency", property(refuse))
    rep = _run_text(text)
    assert rep.all_passed, [c for c in rep.checks if not c.passed]
    assert rep.environment["expansion"] == "slot-lanczos/1"


def test_build_graph_dispatch(tmp_path):
    spec = parse_config("[graph]\nkind = cycle\nn = 7\n").graph
    assert build_graph(spec, seed=0).n == 7
    path = tmp_path / "g.txt"
    save_edge_list(gen_cycle(6), path)
    spec = parse_config(f"[graph]\nkind = file\npath = {path}\n").graph
    g = build_graph(spec, seed=0)
    assert g.n == 6 and g.degree == 2


def test_unknown_suite_rejected():
    cfg = parse_config("[experiment]\nsuite = tensor_props\n")
    object.__setattr__(cfg.experiment, "suite", "mystery")
    with pytest.raises(ConfigError):
        run(cfg)


def test_seed_changes_results_workers_do_not():
    text = (
        "[experiment]\nsuite = chernoff_sweep\nseed = 3\n"
        "[graph]\nkind = complete\nn = 4\n"
        "[tensors]\nsource = random\nrow_dims = 2\nradius = 1.0\n"
        "[walk]\nkappa = 4\nk = 1\nnum_walks = 9000\n"
        "[sweep]\ntheta_grid = 1 2\n"
    )
    base = _run_text(text)
    assert _run_text(text).to_json() == base.to_json()
    assert _run_text(text, seed=4).to_json() != base.to_json()


SMALL_EXPANDER = (
    "[experiment]\nsuite = expander\nseed = {seed}\n"
    "[graph]\nkind = complete\nn = 15\n"
    "[walk]\nnum_walks = 200\n"
)


def test_two_step_joint_check_holds_at_one_walk_per_cell():
    # 210 cells that each expect about 0.95 of the 200 walks
    for seed in range(1, 7):
        rep = _run_text(SMALL_EXPANDER.format(seed=seed))
        assert rep.all_passed, [c for c in rep.checks if not c.passed]
        check = {c.name: c for c in rep.checks}["two_step_joint_max_sigma"]
        assert 0.0 < check.lhs < 0.5 and check.rhs == 1.0


def test_two_step_joint_check_fails_a_step_that_cannot_happen(monkeypatch):
    def stay_put_once(graph, kappa, count, seed, start_index=0):
        walks = sample_walks_array(graph, kappa, count, seed, start_index=start_index)
        walks[0, 1] = walks[0, 0]  # K15 has no self-loops: this cell expects no walk
        return walks

    monkeypatch.setattr(runner_mod, "sample_walks_array", stay_put_once)
    check = {c.name: c for c in _run_text(SMALL_EXPANDER.format(seed=1)).checks}["two_step_joint_max_sigma"]
    assert check.lhs == math.inf and not check.passed

    def nan_cell(graph):
        a = normalized_adjacency(graph)
        a[0, 1] = np.nan
        return a

    monkeypatch.setattr(runner_mod, "normalized_adjacency", nan_cell)
    checks = {c.name: c for c in _run_text(SMALL_EXPANDER.format(seed=1)).checks}
    for name in ("two_step_joint_max_sigma", "expansion_certificate"):  # the dense lambda reads both triangles
        assert math.isnan(checks[name].lhs) and not checks[name].passed, name


# rr(64,6) with dim 4: n * dim^2 = 1024, below THREADED_COORDINATES, so it runs inline unless forced
THREAD_SPLIT = (
    "[experiment]\nsuite = chernoff_sweep\nseed = 5\n"
    "[graph]\nkind = random_regular\nn = 64\ndegree = 6\ngraph_seed = 3\n"
    "[tensors]\nsource = random\nrow_dims = 2 2\nradius = 1.0\n"
    "[walk]\nkappa = 8\nk = 2\nnum_walks = 2000\n"
    "[sweep]\ntheta_grid = 2 4 6 8 120 150\n"
)


def _record_thread(monkeypatch, name, threads):
    original = getattr(runner_mod, name)

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_mod, name, recorded)


def test_transfer_checks_on_a_worker_thread_leave_the_report_unchanged(monkeypatch):
    threads = {"tail_table": [], "contraction_certificate": [], "expectation_sandwich": []}
    for name, seen in threads.items():
        _record_thread(monkeypatch, name, seen)
    config = parse_config(THREAD_SPLIT)
    assert 64 * 16 < runner_mod.THREADED_COORDINATES
    inline = run(config)
    monkeypatch.setattr(runner_mod, "THREADED_COORDINATES", 64 * 16)  # the same config past the threshold
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two halves trade the interpreter lock as often as it allows
    try:
        threaded = run(config)
    finally:
        sys.setswitchinterval(interval)
    assert inline.all_passed
    assert threaded.to_json() == inline.to_json()
    main = threading.main_thread()
    assert threads["tail_table"] == [main, main]  # the Monte Carlo half stays on the calling thread
    for name in ("contraction_certificate", "expectation_sandwich"):
        assert threads[name][0] is main and threads[name][1] is not main, name


def _raiser(message):
    def raise_(*args, **kwargs):
        raise NumericalError(message)
    return raise_


@pytest.mark.parametrize("failing, message", [
    (("tail_table",), "tail"),
    (("contraction_certificate",), "contraction_certificate"),
    (("expectation_sandwich",), "expectation_sandwich"),
    (("tail_table", "contraction_certificate"), "tail"),  # the error the sequential order raises first
])
def test_an_error_in_either_half_reaches_the_caller_and_no_thread_outlives_the_run(monkeypatch, failing, message):
    monkeypatch.setattr(runner_mod, "THREADED_COORDINATES", 0)
    for name in failing:
        monkeypatch.setattr(runner_mod, name, _raiser("tail" if name == "tail_table" else name))
    before = threading.active_count()
    with pytest.raises(NumericalError, match=f"^{message}$"):
        run(parse_config(THREAD_SPLIT))
    assert threading.active_count() == before


def test_stationary_marginal_check_holds_at_n_4096_on_20_seeds():
    # the expander suite's walks on rr(4096, 6), kappa 10, 40,000 walks, graph and walks from the one seed; a fixed
    # 4 sigma per cell, with no union over the 3n cells, FAILed most of these seeds.  The suite itself is not run:
    # its dense checks would need about 1 GiB at this size
    for seed in range(1, 21):
        graph = gen_random_regular(4096, 6, seed)
        walks = sample_walks_array(graph, 10, 40000, seed)
        assert runner_mod._stationary_marginal_ratio(walks, graph.n) <= 1.0, seed
