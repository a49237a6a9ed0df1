"""The config surface: every key's default, echo, range rule and README entry."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from tensor_chernoff.cli import main
from tensor_chernoff.config import ExperimentConfig, parse_config
from tensor_chernoff.errors import ConfigError

DEFAULT_ECHO = {
    "experiment.suite": "tensor_props",
    "experiment.seed": 2024,
    "experiment.workers": 1,
    "experiment.trials": 400,
    "graph.kind": "complete",
    "graph.n": 4,
    "graph.dim": 3,
    "graph.degree": 4,
    "graph.path": "",
    "graph.graph_seed": None,
    "tensors.source": "random",
    "tensors.row_dims": [2],
    "tensors.radius": 1.0,
    "tensors.manifest": "",
    "poly.coefficients": [0.0, 1.0],
    "poly.power": 1.0,
    "walk.kappa": 8,
    "walk.k": 1,
    "walk.num_walks": 20000,
    "sweep.theta_grid": [8.0, 16.0, 24.0, 32.0, 40.0],
    "quadrature.truncation": 6.0,
    "quadrature.nodes": 256,
    "domination.window": 6.0,
    "domination.sigma_grid": [0.7, 1.0, 1.5, 2.0, 3.0],
}


def _error_lines(text: str) -> set[str]:
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    head, *lines = str(info.value).splitlines()
    assert head == "invalid config:"
    return {line.strip() for line in lines}


def test_default_echo():
    echo = parse_config("").echo()
    assert echo == DEFAULT_ECHO
    assert list(echo) == list(DEFAULT_ECHO)


def test_every_key_echoed(tmp_path):
    graph, manifest = tmp_path / "g.txt", tmp_path / "manifest.json"
    graph.write_text("")
    manifest.write_text("")
    echo = parse_config(
        "[experiment]\nsuite = expander\nseed = 0\nworkers = 1\ntrials = 9\n"
        f"[graph]\nkind = file\nn = 6\ndim = 2\ndegree = 5\npath = {graph}\ngraph_seed = 17\n"
        f"[tensors]\nsource = manifest\nrow_dims = 3 2\nradius = 0.5\nmanifest = {manifest}\n"
        "[poly]\ncoefficients = 1 0 2.5\npower = 2\n"
        "[walk]\nkappa = 3\nk = 2\nnum_walks = 77\n"
        "[sweep]\ntheta_grid = 0.5 9\n"
        "[quadrature]\ntruncation = 4.5\nnodes = 16\n"
        "[domination]\nwindow = 2.5\nsigma_grid = 0.25\n"
    ).echo()
    expected = {
        "experiment.suite": "expander",
        "experiment.seed": 0,
        "experiment.workers": 1,
        "experiment.trials": 9,
        "graph.kind": "file",
        "graph.n": 6,
        "graph.dim": 2,
        "graph.degree": 5,
        "graph.path": str(graph),
        "graph.graph_seed": 17,
        "tensors.source": "manifest",
        "tensors.row_dims": [3, 2],
        "tensors.radius": 0.5,
        "tensors.manifest": str(manifest),
        "poly.coefficients": [1.0, 0.0, 2.5],
        "poly.power": 2.0,
        "walk.kappa": 3,
        "walk.k": 2,
        "walk.num_walks": 77,
        "sweep.theta_grid": [0.5, 9.0],
        "quadrature.truncation": 4.5,
        "quadrature.nodes": 16,
        "domination.window": 2.5,
        "domination.sigma_grid": [0.25],
    }
    assert echo == expected
    # workers has one allowed value, so it cannot differ from its default
    assert all(echo[key] != DEFAULT_ECHO[key] for key in expected if key != "experiment.workers")


@pytest.mark.parametrize(
    "text, line",
    [
        ("[experiment]\nsuite = x", "[experiment] suite must be one of ('tensor_props', 'inequalities', "
                                    "'expander', 'chernoff_sweep'), got 'x'"),
        ("[experiment]\nseed = -1", "[experiment] seed must be >= 0, got -1"),
        ("[experiment]\nseed = 18446744073709551616", "[experiment] seed must be < 2^64, got 18446744073709551616"),
        ("[experiment]\nworkers = 2", "[experiment] workers must be 1, got 2"),
        ("[experiment]\ntrials = 0", "[experiment] trials must be >= 1, got 0"),
        ("[graph]\nkind = torus", "[graph] kind must be one of ('complete', 'cycle', 'hypercube', "
                                  "'random_regular', 'file'), got 'torus'"),
        ("[graph]\ngraph_seed = -2", "[graph] graph_seed must be >= 0, got -2"),
        ("[graph]\nkind = file", "[graph] kind=file needs path"),
        ("[graph]\nkind = file\npath = /no/such/graph.txt", "[graph] path '/no/such/graph.txt' does not exist"),
        ("[tensors]\nsource = x", "[tensors] source must be 'random' or 'manifest', got 'x'"),
        ("[tensors]\nsource = manifest", "[tensors] source=manifest needs manifest"),
        ("[tensors]\nsource = manifest\nmanifest = /no/m.json", "[tensors] manifest '/no/m.json' does not exist"),
        ("[tensors]\nradius = 0", "[tensors] radius must be positive, got 0.0"),
        ("[tensors]\nrow_dims = 2 x", "[tensors] row_dims: cannot parse '2 x'"),
        ("[poly]\ncoefficients = 1 -1", "[poly] coefficients must be nonnegative, got (1.0, -1.0)"),
        ("[poly]\npower = 0.5", "[poly] power must be >= 1, got 0.5"),
        ("[walk]\nkappa = 0", "[walk] kappa must be >= 1, got 0"),
        ("[walk]\nk = 0", "[walk] k must be >= 1, got 0"),
        ("[walk]\nnum_walks = 0", "[walk] num_walks must be >= 1, got 0"),
        ("[walk]\nnum_walks = many", "[walk] num_walks: cannot parse 'many'"),
        ("[sweep]\ntheta_grid = 1 -2", "[sweep] theta_grid must be positive, got (1.0, -2.0)"),
        ("[tensors]\nrow_dims =", "[tensors] row_dims must list at least one value"),
        ("[poly]\ncoefficients =", "[poly] coefficients must list at least one value"),
        ("[sweep]\ntheta_grid =", "[sweep] theta_grid must list at least one value"),
        ("[sweep]\ntheta_grid =   # none yet", "[sweep] theta_grid must list at least one value"),
        ("[domination]\nsigma_grid =", "[domination] sigma_grid must list at least one value"),
        ("[quadrature]\ntruncation = -1", "[quadrature] truncation must be positive, got -1.0"),
        ("[quadrature]\nnodes = 8", "[quadrature] nodes must be >= 16, got 8"),
        ("[quadrature]\nnodes = 4096", "[quadrature] nodes must be < 4096, got 4096"),
        ("[domination]\nwindow = 0", "[domination] window must be positive, got 0.0"),
        ("[domination]\nsigma_grid = 1 0", "[domination] sigma_grid must be positive, got (1.0, 0.0)"),
        ("[domination]\nsigma_grid = 1 nan", "[domination] sigma_grid: values must be finite, got '1 nan'"),
        ("[mystery]\nx = 1", "unknown section [mystery]"),
        ("[walk]\nkapa = 3", "unknown key 'kapa' in [walk]"),
    ],
)
def test_range_error_lines(text, line):
    assert _error_lines(text + "\n") == {line}


def test_errors_collected_across_sections():
    assert _error_lines("[experiment]\nseed = -1\nworkers = 0\n[walk]\nk = 0\n[quadrature]\nnodes = 8\n") == {
        "[experiment] seed must be >= 0, got -1",
        "[experiment] workers must be 1, got 0",
        "[walk] k must be >= 1, got 0",
        "[quadrature] nodes must be >= 16, got 8",
    }


@pytest.mark.parametrize("raw, value", [("0", "(0,)"), ("-2", "(-2,)"), ("2 0", "(2, 0)")])
def test_row_dims_must_be_positive(raw, value, tmp_path, capsys):
    # a mode dimension below 1 fails the parse with the other key errors, not the run after it
    text = f"[experiment]\nsuite = chernoff_sweep\n[tensors]\nrow_dims = {raw}\n[walk]\nk = 0\n"
    lines = {f"[tensors] row_dims must be positive, got {value}", "[walk] k must be >= 1, got 0"}
    assert _error_lines(text) == lines
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: invalid config: [tensors] row_dims must be positive, got {value}; [walk] k must be >= 1, got 0"
    ]


@pytest.mark.parametrize("nodes", ["4096", "1000000"])
def test_quadrature_nodes_are_capped(nodes, tmp_path, capsys):
    # past the cap the rule's O(nodes^2) Newton steps would run for hours at 10^6: a parse-time error, exit 2
    text = f"[experiment]\nsuite = inequalities\ntrials = 1\n[quadrature]\nnodes = {nodes}\n"
    assert _error_lines(text) == {f"[quadrature] nodes must be < 4096, got {nodes}"}
    assert parse_config(text.replace(nodes, "4095")).quadrature.nodes == 4095
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: invalid config: [quadrature] nodes must be < 4096, got {nodes}"
    ]


def test_readme_key_table_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config format\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    documented, section = set(), None
    for line in block.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            documented.add((section, line.split("=")[0].strip()))
    schema = {
        (s.name, key.name)
        for s in fields(ExperimentConfig)
        for key in fields(s.default_factory)
    }
    assert documented == schema
