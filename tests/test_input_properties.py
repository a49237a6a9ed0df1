"""Property tests for the input formats: INI configs, edge lists, tensor
records and assignment manifests, and for the CLI's exit codes.

Whatever the text, ``parse_config``, ``load_edge_list``, ``load_tensor`` and
``load_assignment`` either return or raise a ``TensorChernoffError``
subclass, which the CLI turns into exit 2 with one diagnostic line.  The
examples are derandomized with fixed counts, so the suite runs the same
inputs every time, and every generated size is bounded to a few dozen, so
no example asks for a large allocation; the explicit examples are inputs
that once escaped as other exceptions.  The CLI property runs whole configs
in process, so its graphs are either tiny or past the size caps, never in
between, where one dense ``eigvalsh`` would take minutes.
"""

import dataclasses
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tensor_chernoff.chernoff import VertexTensorAssignment, load_assignment  # noqa: E402
from tensor_chernoff.cli import main  # noqa: E402
from tensor_chernoff.config import ExperimentConfig, parse_config  # noqa: E402
from tensor_chernoff.errors import TensorChernoffError  # noqa: E402
from tensor_chernoff.graphs import RegularGraph, gen_complete, load_edge_list, save_edge_list  # noqa: E402
from tensor_chernoff.io import load_tensor, tensor_to_record  # noqa: E402
from tensor_chernoff.tensors import Tensor, TensorShape, make_identity  # noqa: E402

FORMATS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # the file is rewritten per example
)

SECTIONS = {f.name: [k.name for k in dataclasses.fields(f.default_factory)] for f in dataclasses.fields(ExperimentConfig)}
# each key's default as config text, so that many examples parse
DEFAULTS = {
    key: " ".join(map(str, value)) if isinstance(value, list) else str(value)
    for key, value in ExperimentConfig().echo().items()
    if value is not None
}
SMALL = st.integers(-3, 40)
TOKENS = st.one_of(
    SMALL.map(str),
    st.floats(-50.0, 50.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "%", "%(x)s", "", "x", "0x10", "1_0", "2.5e", "[", "="]),
    st.sampled_from(["complete", "cycle", "hypercube", "random_regular", "file", "random", "manifest"]),
    st.sampled_from(["tensor_props", "inequalities", "expander", "chernoff_sweep", "/", "/no/such/file"]),
    st.text(max_size=8),
)


def _rarely(draw) -> bool:
    return draw(st.integers(0, 4)) == 0


@st.composite
def config_texts(draw):
    lines = []
    sections = draw(st.lists(st.sampled_from(sorted(SECTIONS)), unique=True, max_size=4))
    if _rarely(draw):
        sections.append(draw(st.text(max_size=6)))
    for section in sections:
        lines.append(f"[{section}]")
        keys = draw(st.lists(st.sampled_from(SECTIONS.get(section, ["key"])), unique=True, max_size=3))
        if _rarely(draw):
            keys.append(draw(st.text(max_size=6)))
        for key in keys:
            value = DEFAULTS.get(f"{section}.{key}")
            if value is None or _rarely(draw):
                value = " ".join(draw(st.lists(TOKENS, max_size=3)))
            lines.append(f"{key} = {value}")
    if _rarely(draw):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


@FORMATS
@given(text=st.one_of(config_texts(), st.text(max_size=40)))
@example(text="[graph]\nkind = %\n")  # configparser interpolation
@example(text="[graph]\nkind = file\npath = " + "a" * 300 + "\n")  # a name too long to stat
def test_parse_config_raises_only_package_errors(text):
    try:
        cfg = parse_config(text)
    except TensorChernoffError:
        return
    assert isinstance(cfg, ExperimentConfig)


@st.composite
def edge_list_bytes(draw):
    n, d = draw(st.integers(-1, 6)), draw(st.integers(-1, 4))
    if draw(st.booleans()):  # a d-regular circulant, then perturbed below
        n, d = max(n, 3), max(d, 1)
        rows = [(u, (u + s) % n, 1) for u in range(n) for s in range(1, d // 2 + 1)]
        rows += [(u, u, 1) for u in range(n)] if d % 2 else []
    else:
        rows = [
            (draw(st.integers(-1, n)), draw(st.integers(-1, n)), draw(st.integers(-1, 40)))
            for _ in range(draw(st.integers(0, 8)))
        ]
    lines = [f"{n} {d}"] + [" ".join(map(str, row)) for row in rows]
    if _rarely(draw):
        lines.insert(draw(st.integers(0, len(lines))), " ".join(draw(st.lists(TOKENS, max_size=3))))
    data = ("\n".join(lines) + "\n").encode()
    if _rarely(draw):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.binary(max_size=3)) + data[cut:]
    return data


@FORMATS
@given(data=st.one_of(edge_list_bytes(), st.binary(max_size=40)))
@example(data=b"2 1\n0 1 " + str(10**30).encode() + b"\n")  # past int64
@example(data=b"2 " + str(10**30).encode() + b"\n0 1 " + str(10**30).encode() + b"\n")
def test_load_edge_list_raises_only_package_errors(tmp_path, data):
    path = tmp_path / "graph.txt"
    path.write_bytes(data)
    try:
        graph = load_edge_list(path)
    except TensorChernoffError:
        return
    assert isinstance(graph, RegularGraph)


# any JSON value: scalars (floats past the float range and big integers included), lists and objects
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    SMALL,
    st.floats(),
    st.sampled_from([10**400, -(10**400), 2**70, 1e308]),
    st.text(max_size=4),
)
JSON = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _perturb(draw, obj: dict) -> dict:
    """Drop, replace or add a few keys of a well-formed JSON object."""
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(obj) + ["extra"]))
        if _rarely(draw):
            obj.pop(key, None)
        else:
            obj[key] = draw(JSON)
    return obj


@st.composite
def tensor_records(draw):
    dims = st.lists(st.integers(1, 2), min_size=1, max_size=2)
    row_dims = draw(dims)
    col_dims = row_dims if draw(st.booleans()) else draw(dims)
    size = 2 * math.prod(row_dims) * math.prod(col_dims) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    entries = draw(st.lists(st.one_of(st.floats(-4.0, 4.0), JSON_SCALARS), min_size=size, max_size=size))
    return _perturb(draw, {"format": "tensor/1", "row_dims": row_dims, "col_dims": col_dims, "entries": entries})


def _write_json(path, value) -> None:
    path.write_text(value if isinstance(value, str) else json.dumps(value))


@FORMATS
@given(record=st.one_of(tensor_records(), JSON, st.text(max_size=20)))
@example(record={"format": "tensor/1", "row_dims": "x", "col_dims": [2], "entries": [0.0] * 8})
@example(record={"format": "tensor/1", "row_dims": [2.5], "col_dims": [2], "entries": [0.0] * 8})
@example(record={"format": "tensor/1", "row_dims": [1], "col_dims": [1], "entries": [10**400, 0]})
def test_load_tensor_raises_only_package_errors(tmp_path, record):
    path = tmp_path / "record.json"
    _write_json(path, record)
    try:
        tensor = load_tensor(path)
    except TensorChernoffError:
        return
    assert isinstance(tensor, Tensor)


GRAPH = gen_complete(4)
# a Hermitian record for a 2 x 2 vertex tensor, for manifests that should load
GOOD_RECORD = tensor_to_record(make_identity(TensorShape.square((2,))))


@st.composite
def assignment_dirs(draw):
    """Files of an assignment directory: the manifest, the edge list and four vertex records."""
    records = {
        f"v{v}.json": draw(st.one_of(st.just(GOOD_RECORD), tensor_records(), JSON)) for v in range(4)
    }
    names = st.sampled_from(sorted(records) + ["graph.txt", "manifest.json", "missing.json", "", "."])
    vertices = {str(v): draw(names) if _rarely(draw) else f"v{v}.json" for v in range(4)}
    manifest = {"format": "assignment/1", "graph": "graph.txt", "vertices": _perturb(draw, vertices)}
    return {"manifest.json": _perturb(draw, manifest), **records}


@FORMATS
@given(files=assignment_dirs(), with_graph=st.booleans())
@example(files={"manifest.json": {"format": "assignment/1", "graph": "graph.txt", "vertices": 5}}, with_graph=True)
@example(files={"manifest.json": {"format": "assignment/1", "graph": 5, "vertices": {}}}, with_graph=False)
@example(files={"manifest.json": {"format": "assignment/1", "vertices": {"0": 5}}}, with_graph=True)
@example(files={"manifest.json": {"format": "assignment/1", "vertices": {"0": "a\x00"}}}, with_graph=True)
def test_load_assignment_raises_only_package_errors(tmp_path, files, with_graph):
    save_edge_list(GRAPH, tmp_path / "graph.txt")
    for name, value in files.items():
        _write_json(tmp_path / name, value)
    try:
        assignment = load_assignment(tmp_path / "manifest.json", graph=GRAPH if with_graph else None)
    except TensorChernoffError:
        return
    assert isinstance(assignment, VertexTensorAssignment)


# tiny runs that finish in milliseconds, as {section: {key: value}}
TINY_GRAPHS = st.one_of(
    st.builds(lambda n: {"kind": "complete", "n": n}, st.integers(2, 16)),
    st.builds(lambda n: {"kind": "cycle", "n": n}, st.integers(2, 16)),
    st.builds(lambda dim: {"kind": "hypercube", "dim": dim}, st.integers(1, 4)),
    st.builds(lambda n, d: {"kind": "random_regular", "n": 2 * n, "degree": d}, st.integers(1, 8), st.integers(1, 6)),
)
TINY_RUNS = st.one_of(
    st.builds(lambda trials: {"experiment": {"suite": "tensor_props", "trials": trials}}, st.integers(1, 3)),
    st.builds(
        lambda graph: {"experiment": {"suite": "expander"}, "graph": graph, "walk": {"num_walks": 200}}, TINY_GRAPHS
    ),
)
# graphs past the caps of 2^13 vertices and 2^26 edge slots, rejected before any allocation
OVERSIZED_GRAPHS = st.sampled_from([
    {"kind": "hypercube", "dim": 14},
    {"kind": "hypercube", "dim": 64},
    {"kind": "complete", "n": 10_000_000},
    {"kind": "cycle", "n": 8193},
    {"kind": "random_regular", "n": 100_000, "degree": 4},
    {"kind": "random_regular", "n": 8192, "degree": 8194},
])
OVERFLOWING_DOMINATIONS = st.sampled_from([
    {"window": 40, "sigma_grid": "0.25"},
    {"window": 50, "sigma_grid": "0.25 1.0"},
])
BAD_VALUES = st.sampled_from(["x", "-3", "-1", "0", "nan", "inf", "", "1e400", "2.5", "[", "%"])


@st.composite
def cli_configs(draw):
    cfg = draw(TINY_RUNS)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.integers(0, 4))
        if edit == 0:  # a malformed value for a key the run has
            section = draw(st.sampled_from(sorted(cfg)))
            cfg[section][draw(st.sampled_from(sorted(cfg[section])))] = draw(BAD_VALUES)
        elif edit == 1:  # an unknown key
            cfg.setdefault(draw(st.sampled_from(sorted(SECTIONS))), {})["no_such_key"] = "1"
        elif edit == 2:  # a manifest that is not there
            cfg["experiment"]["suite"] = "chernoff_sweep"
            cfg["tensors"] = {"source": "manifest", "manifest": "/no/such/manifest.json"}
        elif edit == 3:
            cfg["experiment"]["suite"] = "expander"
            cfg["graph"] = draw(OVERSIZED_GRAPHS)
        elif edit == 4:  # a window on which every sigma's domination constant overflows
            cfg["experiment"]["suite"] = "chernoff_sweep"
            cfg["walk"] = {"num_walks": 200}
            cfg["domination"] = draw(OVERFLOWING_DOMINATIONS)
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) for section, keys in cfg.items()
    )


@settings(FORMATS, max_examples=60)
@given(text=cli_configs())
def test_cli_exit_codes(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    capsys.readouterr()
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "report.json")])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.splitlines()) == 1, err
    if code == 1:
        assert "[FAIL]" in out
