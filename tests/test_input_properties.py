"""Property tests for the two text input formats: INI configs and edge lists.

Whatever the text, ``parse_config`` and ``load_edge_list`` either return or
raise a ``TensorChernoffError`` subclass, which the CLI turns into exit 2
with one diagnostic line.  The examples are derandomized with fixed counts,
so the suite runs the same inputs every time, and every generated integer
is bounded to a few dozen, so no example asks for a large allocation; the
explicit examples are inputs that once escaped as other exceptions.
"""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tensor_chernoff.config import ExperimentConfig, parse_config  # noqa: E402
from tensor_chernoff.errors import TensorChernoffError  # noqa: E402
from tensor_chernoff.graphs import RegularGraph, load_edge_list  # noqa: E402

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
