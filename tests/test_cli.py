"""End-to-end CLI runs: exit codes, determinism, file formats."""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tensor_chernoff.chernoff import random_assignment, save_assignment
from tensor_chernoff.cli import _build_parser, main
from tensor_chernoff.graphs import gen_complete
from tensor_chernoff.reporting import parse_tail_csv, report_from_json
from tensor_chernoff.tensors import TensorShape

FAST_SWEEP = """
[experiment]
suite = chernoff_sweep
seed = 19

[graph]
kind = complete
n = 4

[tensors]
source = random
row_dims = 2
radius = 1.0

[walk]
kappa = 4
k = 1
num_walks = 4000

[sweep]
theta_grid = 1 2 4 120
"""


@pytest.fixture
def sweep_config(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(FAST_SWEEP)
    return p

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_committed_configs_pass(config, tmp_path, capsys):
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "report.json")])
    printed = capsys.readouterr().out
    assert code == 0 and "[FAIL]" not in printed, printed
    text = (tmp_path / "report.json").read_text()
    assert report_from_json(text).to_json() == text


def test_committed_configs_never_import_numpy_polynomial(tmp_path):
    # a fresh process, since this one may have imported it: the import costs 3-5 ms and 0.6 MB of every run
    script = ("import contextlib, io, sys\nfrom tensor_chernoff.cli import main\nfor config in sys.argv[2:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = main(['run', '--config', config, '--out', sys.argv[1]])\n"
              "    print(code, 'numpy.polynomial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "report.json"), *map(str, CONFIGS)],
                          capture_output=True, text=True)
    assert proc.stdout.splitlines() == ["0 False"] * len(CONFIGS), proc.stderr


def test_run_json_and_exit_code(sweep_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(sweep_config), "--out", str(out)])
    assert code == 0
    rep = report_from_json(out.read_text())
    assert rep.suite == "chernoff_sweep"
    assert len(rep.tail_rows) == 4
    assert rep.environment["seed"] == 19
    assert rep.environment["walk_stream"] == "philox4x64-10/1"
    assert rep.environment["tensor_stream"] == "pcg64-stack/1"
    assert rep.environment["inequality_stream"] == "pcg64-trial-stacks/1"
    assert rep.environment["certificate"] == "gram-lanczos/3"
    assert rep.environment["expansion"] == "slot-lanczos/1"
    printed = capsys.readouterr().out
    assert "[PASS]" in printed


def test_run_csv_output(sweep_config, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["run", "--config", str(sweep_config), "--out", str(out), "--format", "csv"])
    assert code == 0
    rows = parse_tail_csv(out.read_text())
    assert [r.theta for r in rows] == [1.0, 2.0, 4.0, 120.0]
    # minimized bound can only shrink as the threshold grows
    bounds = [r.bound for r in rows]
    assert all(b <= a for a, b in zip(bounds, bounds[1:]))


def test_rerun_byte_identical(sweep_config, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(sweep_config), "--out", str(a)]) == 0
    assert main(["run", "--config", str(sweep_config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_other_than_one_exit_2(sweep_config, tmp_path, capsys):
    out = str(tmp_path / "r.json")
    # of the [experiment] keys only the seed has a command-line override
    for key in ("suite", "workers", "trials"):
        assert main(["run", "--config", str(sweep_config), "--out", out, f"--{key}", "2"]) == 2
        assert f"unrecognized arguments: --{key} 2" in capsys.readouterr().err
    cfg = tmp_path / "workers.ini"
    cfg.write_text(FAST_SWEEP.replace("seed = 19", "seed = 19\nworkers = 2"))
    assert main(["run", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: invalid config: [experiment] workers must be 1, got 2"
    ]
    cfg.write_text(FAST_SWEEP.replace("seed = 19", "seed = 19\nworkers = 1"))
    assert main(["run", "--config", str(cfg), "--out", out]) == 0


def test_seed_override_changes_report(sweep_config, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", "--config", str(sweep_config), "--out", str(a), "--seed", "1"])
    main(["run", "--config", str(sweep_config), "--out", str(b), "--seed", "2"])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["environment"]["seed"] == 1
    assert rb["environment"]["seed"] == 2
    assert ra["tail_rows"] != rb["tail_rows"]


def test_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nsuite = nonsense\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("section, key", [("tensors", "row_dims"), ("poly", "coefficients"),
                                          ("sweep", "theta_grid"), ("domination", "sigma_grid")])
def test_empty_list_exit_2(section, key, tmp_path, capsys):
    # an empty theta_grid would leave both tail checks with no row, so the run must not start
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[experiment]\nsuite = chernoff_sweep\n[{section}]\n{key} =\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: invalid config: [{section}] {key} must list at least one value"
    ]


def test_domination_overflow_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(FAST_SWEEP + "[domination]\nwindow = 40\nsigma_grid = 0.25\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no sigma in sigma_grid [0.25] gives a finite domination constant on window 40; "
        "use larger sigmas or a narrower window"
    ]


def test_bad_edge_list_token_exit_2(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("2 1\n0 1 x\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(FAST_SWEEP.replace("kind = complete\nn = 4", f"kind = file\npath = {graph}"))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "0 1 x" in err
    assert "Traceback" not in err


# edge-list file contents, or None for a directory, and the stderr text each must print
UNREADABLE_GRAPHS = {
    "directory": (None, "cannot read edge list"),
    "not_utf8": (b"2 1\n0 1 1 \xff\n", "cannot read edge list"),
    "negative_n": (b"-1 2\n0 1 1\n", "header n = -1 must be in [2, 2 x 1 edge lines]"),
    "n_beyond_edge_lines": (b"50000 1\n0 1 1\n", "header n = 50000 must be in [2, 2 x 1 edge lines]"),
    "huge_multiplicity": (b"2 1\n0 1 " + b"1" + b"0" * 30 + b"\n", "multiplicity must be in [0, 1]"),
    "huge_degree": (b"2 1" + b"0" * 30 + b"\n0 1 1\n", "must be in [1, 2^32)"),
    "huge_slot_table": (b"2 4000000000\n0 1 4000000000\n", "exceeds the cap of 2^26 edge slots"),
    "n_above_vertex_cap": (b"8194 1\n" + b"0 1 1\n" * 4097, "graph n = 8194 must be in [2, 2^13]"),
}
# generated graphs past the size caps: the [graph] keys and the stderr text
OVERSIZED_GRAPHS = {
    "hypercube_dim_64": ("kind = hypercube\ndim = 64", f"graph n = {2**64} must be in [2, 2^13]"),
    "complete_n_1e7": ("kind = complete\nn = 10000000", "graph n = 10000000 must be in [2, 2^13]"),
    "random_regular_n_1e5": (
        "kind = random_regular\nn = 100000\ndegree = 4", "graph n = 100000 must be in [2, 2^13]"
    ),
    "random_regular_slots": (
        "kind = random_regular\nn = 8192\ndegree = 8194", "graph n x d = 8192 x 8194 exceeds the cap of 2^26"
    ),
}


@pytest.mark.parametrize(
    "case", ["config_directory", "config_not_utf8"] + sorted(UNREADABLE_GRAPHS) + sorted(OVERSIZED_GRAPHS)
)
def test_unreadable_input_exit_2(case, tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    if case in OVERSIZED_GRAPHS:
        keys, needle = OVERSIZED_GRAPHS[case]
        cfg.write_text(FAST_SWEEP.replace("kind = complete\nn = 4", keys).replace("chernoff_sweep", "expander"))
    elif case == "config_directory":
        cfg.mkdir()
        needle = f"cannot read config file {cfg}: Is a directory"
    elif case == "config_not_utf8":
        cfg.write_bytes(FAST_SWEEP.encode() + b"# \xff\n")
        needle = f"cannot read config file {cfg}: 'utf-8' codec can't decode"
    else:
        content, needle = UNREADABLE_GRAPHS[case]
        graph = tmp_path / "g.txt"
        if content is None:
            graph.mkdir()
        else:
            graph.write_bytes(content)
        cfg.write_text(FAST_SWEEP.replace("kind = complete\nn = 4", f"kind = file\npath = {graph}"))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and needle in err


# keys of vertex 1's tensor record, the values written over them, and the stderr text
RECORD_EDITS = {
    "nan_tensor_record": ({"entries": [float("nan")] + [0.0] * 7}, "must be finite"),
    "row_dims_string": ({"row_dims": "x"}, "row_dims must be a flat list of integers"),
    "row_dims_int": ({"row_dims": 5}, "row_dims must be a flat list of integers"),
    "row_dims_null": ({"row_dims": None}, "row_dims must be a flat list of integers"),
    "row_dims_float": ({"row_dims": [2.5]}, "row_dims must be a flat list of integers"),
    "row_dims_bool": ({"row_dims": [True, True]}, "row_dims must be a flat list of integers"),
    "entries_strings": ({"entries": ["a"] * 8}, "entries must be a flat list of numbers"),
    "entries_ragged": ({"entries": [[1.0, 0.0], [0.0]]}, "entries must be a flat list of numbers"),
    "record_other_shape": (
        {"row_dims": [1], "col_dims": [1], "entries": [1.0, 0.0]}, "dims [1] differ from vertex 0's [2]"
    ),
}
# manifest text, or a change to the saved manifest, and the stderr text
MANIFESTS = {
    "manifest_without_vertices": ('{"format": "assignment/1"}', "has no 'vertices' entry"),
    "manifest_not_json": ("not json", "cannot read manifest"),
    "manifest_vertices_int": ({"vertices": 5}, "'vertices' must be a JSON object"),
    "manifest_missing_vertex": ({"vertices": {"0": "vertex_0000.json"}}, "manifest.json has no tensor for vertex 1"),
    "manifest_vertex_not_string": ({"vertices": {str(v): 5 for v in range(4)}}, "vertex 0 must be a file name"),
    "manifest_vertex_beyond_graph": (
        {"vertices": {str(v): f"vertex_{v % 4:04d}.json" for v in range(8)}},
        "manifest.json 'vertices' key '4' is not a vertex of the 4-vertex graph",
    ),
}


@pytest.mark.parametrize("case", ["unwritable_out"] + sorted(MANIFESTS) + sorted(RECORD_EDITS))
def test_io_errors_exit_2(case, sweep_config, tmp_path, capsys):
    cfg, out = sweep_config, tmp_path / "r.json"
    assignment = random_assignment(gen_complete(4), TensorShape.square((2,)), 1.0, seed=3)
    manifest = save_assignment(assignment, tmp_path / "assignment")
    if case == "unwritable_out":
        out = tmp_path / "no_such_dir" / "r.json"
        needle = "cannot write report"
    elif case in MANIFESTS:
        content, needle = MANIFESTS[case]
        if isinstance(content, dict):
            content = json.dumps({**json.loads(manifest.read_text()), **content})
        manifest.write_text(content)
    else:
        changes, needle = RECORD_EDITS[case]
        record_path = manifest.parent / "vertex_0001.json"
        record_path.write_text(json.dumps({**json.loads(record_path.read_text()), **changes}))
    if case != "unwritable_out":
        cfg = tmp_path / "manifest.ini"
        cfg.write_text(FAST_SWEEP.replace("source = random", f"source = manifest\nmanifest = {manifest}"))
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and needle in err
    if case in RECORD_EDITS:
        assert "tensor for vertex 1 in" in err and "vertex_0001.json" in err


def test_unwritable_out_rejected_before_run(sweep_config, tmp_path, monkeypatch, capsys):
    from tensor_chernoff import cli

    def must_not_run(config, seed=None):
        raise AssertionError("run started although the report cannot be written")

    monkeypatch.setattr(cli, "run", must_not_run)
    for out in (tmp_path / "no_such_dir" / "r.json", tmp_path):
        assert main(["run", "--config", str(sweep_config), "--out", str(out)]) == 2
        assert f"cannot write report {out}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, line", [("--seed", "-5", "error: --seed must be >= 0, got -5")])
def test_bad_override_rejected_before_run(flag, value, line, sweep_config, tmp_path, monkeypatch, capsys):
    from tensor_chernoff import cli

    def must_not_run(config, seed=None):
        raise AssertionError("run started although an override is out of range")

    monkeypatch.setattr(cli, "run", must_not_run)
    assert main(["run", "--config", str(sweep_config), "--out", str(tmp_path / "r.json"), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [line]
    assert "Traceback" not in err


def test_seed_at_two_to_the_64_rejected(sweep_config, tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert main(["run", "--config", str(sweep_config), "--out", out, "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --seed must be < 2^64, got {2**64}"]
    cfg = tmp_path / "big_seed.ini"
    cfg.write_text(FAST_SWEEP.replace("seed = 19", f"seed = {2**64}"))
    assert main(["run", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: invalid config: [experiment] seed must be < 2^64, got {2**64}"
    ]
    cfg.write_text(FAST_SWEEP.replace("seed = 19", f"seed = {2**64}\nworkers = 2"))
    assert main(["run", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: invalid config: [experiment] seed must be < 2^64, got {2**64}; "
        "[experiment] workers must be 1, got 2"
    ]
    # the largest key word still runs
    assert main(["run", "--config", str(sweep_config), "--out", out, "--seed", str(2**64 - 1)]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["environment"]["seed"] == 2**64 - 1


def test_usage_error_exit_2():
    assert main(["run", "--config"]) == 2
    assert main([]) == 2


def test_check_failure_exit_1(sweep_config, tmp_path, monkeypatch):
    from tensor_chernoff import cli
    from tensor_chernoff.reporting import CheckRecord, Report

    def fake_run(config, seed=None):
        return Report(
            suite=config.experiment.suite,
            config=config.echo(),
            checks=[CheckRecord.from_bound("forced_failure", 2.0, 1.0)],
            tail_rows=[],
            environment={"version": "0", "seed": 0},
        )

    monkeypatch.setattr(cli, "run", fake_run)
    code = main(["run", "--config", str(sweep_config), "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_overflowing_bounds_are_vacuous_not_a_traceback(tmp_path):
    # on the 63-cycle 8 kappa / (1 - lam) is past exp's range: the expectation bound is inf, so the
    # sandwich holds vacuously; at radius 1e-4 a corollary exponent reading r^2 for r overflows too
    cfg = tmp_path / "cfg.ini"
    text = FAST_SWEEP.replace("kind = complete\nn = 4", "kind = cycle\nn = 63")
    cfg.write_text(text.replace("radius = 1.0", "radius = 1e-4"))
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-m", "tensor_chernoff.cli", "run", "--config", str(cfg), "--out", str(out)],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == (1 if "[FAIL]" in proc.stdout else 0), proc.stdout
    checks = {c.name: c for c in report_from_json(out.read_text()).checks}
    sandwich = checks["transfer_expectation_below_bound"]
    assert sandwich.lhs == -math.inf and sandwich.detail.endswith("every bound infinite"), sandwich


def test_quadrature_nodes_past_the_cap_exit_2_on_one_line(tmp_path):
    # the rule's time grows as nodes^2: the parse rejects the value before any rule is built
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[experiment]\nsuite = inequalities\n[quadrature]\nnodes = 1000000\n")
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-m", "tensor_chernoff.cli", "run", "--config", str(cfg), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr.splitlines() == ["config error: invalid config: [quadrature] nodes must be < 4096, got 1000000"]


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "tensor_chernoff.cli", "run", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_readme_cli_flags_match_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"\n## CLI\n(.*?)\n##", readme, re.S).group(1)
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for action in commands.choices["run"]._actions for flag in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == options - {"-h", "--help"}


def test_readme_quickstart_runs():
    # a removed or renamed name, or an assertion of the block that no longer holds, fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"\n## Quickstart\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md (Quickstart)", "exec"), {})
