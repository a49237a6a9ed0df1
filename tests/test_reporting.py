"""Report, config, and serialization round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from tensor_chernoff import TensorShape
from tensor_chernoff.config import load_config, parse_config
from tensor_chernoff.errors import ArgumentError, ConfigError
from tensor_chernoff.io import load_tensor, save_tensor, tensor_from_record, tensor_to_record
from tensor_chernoff.reporting import (
    CSV_HEADER,
    CheckRecord,
    Report,
    TailRow,
    emit,
    parse_tail_csv,
    report_from_dict,
    report_from_json,
)
from tensor_chernoff.runner import run
from tensor_chernoff.sampling import random_tensor

RNG = np.random.default_rng(20240816)


def _sample_report():
    return Report(
        suite="chernoff_sweep",
        config={"experiment.suite": "chernoff_sweep", "experiment.seed": 7},
        checks=[
            CheckRecord.from_bound("b_check", 0.5, 1.0),
            CheckRecord.from_bound("a_check", 2.0, 1.0, detail="expected failure"),
        ],
        tail_rows=[
            TailRow(theta=1.0, p_hat=0.25, stderr=0.01, bound=3.5, vacuous=True, assumption3_violations=0),
            TailRow(theta=2.0, p_hat=0.0, stderr=0.0, bound=0.5, vacuous=False, assumption3_violations=2),
        ],
        environment={"version": "0.1.0", "seed": 7},
    )


def test_checks_sorted_by_name():
    rep = _sample_report()
    assert [c.name for c in rep.checks] == ["a_check", "b_check"]
    assert not rep.all_passed


def test_skipped_check_passes_with_lhs_zero():
    rec = CheckRecord.skipped("c", 1e-6, "no threshold in range")
    assert rec == CheckRecord.from_bound("c", 0.0, 1e-6, detail="skipped: no threshold in range")
    assert rec.passed and rec.margin == 1e-6


def test_json_roundtrip():
    rep = _sample_report()
    again = report_from_json(rep.to_json())
    assert again == rep
    assert again.to_json() == rep.to_json()


def test_csv_roundtrip():
    rep = _sample_report()
    text = rep.to_csv()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    rows = parse_tail_csv(text)
    assert tuple(rows) == rep.tail_rows


def test_csv_empty_table():
    rep = Report("expander", {}, [], [], {"version": "0", "seed": 0})
    assert rep.to_csv() == ",".join(CSV_HEADER) + "\n"
    assert parse_tail_csv(rep.to_csv()) == []


def test_wrong_report_format_and_csv_header_rejected():
    data = json.loads(_sample_report().to_json())
    with pytest.raises(ArgumentError, match="unsupported report format: 'report/0'"):
        report_from_dict({**data, "format": "report/0"})
    text = _sample_report().to_csv()
    with pytest.raises(ArgumentError, match="unexpected CSV header"):
        parse_tail_csv(text.replace("theta", "threshold", 1))


@pytest.mark.parametrize(
    "line, message",
    [
        ("1.0,0.25,0.01,3.5,1", "CSV line 2: 5 cells, expected 6"),
        ("1.0,0.25,0.01,3.5,1,0,7", "CSV line 2: 7 cells, expected 6"),
        ("1.0,0.25,zero,3.5,1,0", "CSV line 2: stderr 'zero' is not a valid float"),
        ("1.0,0.25,0.01,3.5,2,0", "CSV line 2: vacuous '2' is not a valid bool"),
        ("1.0,0.25,0.01,3.5,1,0.5", "CSV line 2: assumption3_violations '0.5' is not a valid int"),
    ],
    ids=["5_cells", "7_cells", "non_numeric", "bool_2", "fractional_int"],
)
def test_malformed_csv_row_rejected_with_its_line(line, message):
    text = _sample_report().to_csv().splitlines()
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        parse_tail_csv("\n".join([text[0], line, *text[1:]]) + "\n")


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _without(d, "environment"), r"report: missing keys \['environment'\], unknown keys \[\]"),
        (lambda d: {**d, "notes": ""}, r"report: missing keys \[\], unknown keys \['notes'\]"),
        (lambda d: {**d, "checks": [_without(d["checks"][0], "lhs")]}, r"checks\[0\]: missing keys \['lhs'\]"),
        (lambda d: {**d, "checks": [{**d["checks"][1], "lsh": 1.0}]}, r"checks\[0\]: .* unknown keys \['lsh'\]"),
        (lambda d: {**d, "tail_rows": [d["tail_rows"][0], _without(d["tail_rows"][1], "bound")]},
         r"tail_rows\[1\]: missing keys \['bound'\]"),
        (lambda d: {**d, "checks": {}}, "checks must be a list, got dict"),
        (lambda d: {**d, "tail_rows": [[1.0]]}, r"tail_rows\[0\] must be an object, got list"),
    ],
    ids=["report_missing", "report_unknown", "check_missing", "check_unknown", "row_missing", "checks_not_list",
         "row_not_object"],
)
def test_report_with_a_missing_or_unknown_key_rejected(edit, message):
    data = json.loads(_sample_report().to_json())
    with pytest.raises(ArgumentError, match=message):
        report_from_json(json.dumps(edit(data)))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {**d, "checks": [{**d["checks"][0], "passed": "no"}]}, r"checks\[0\]: passed 'no' is not a valid bool"),
        (lambda d: {**d, "checks": [{**d["checks"][0], "passed": 0}]}, r"checks\[0\]: passed 0 is not a valid bool"),
        (lambda d: {**d, "tail_rows": [{**d["tail_rows"][0], "theta": "x"}]},
         r"tail_rows\[0\]: theta 'x' is not a valid float"),
        (lambda d: {**d, "tail_rows": [{**d["tail_rows"][0], "p_hat": True}]},
         r"tail_rows\[0\]: p_hat True is not a valid float"),
        (lambda d: {**d, "tail_rows": [{**d["tail_rows"][0], "assumption3_violations": False}]},
         r"tail_rows\[0\]: assumption3_violations False is not a valid int"),
        (lambda d: {**d, "tail_rows": [{**d["tail_rows"][0], "assumption3_violations": 1.0}]},
         r"tail_rows\[0\]: assumption3_violations 1.0 is not a valid int"),
        (lambda d: {**d, "checks": [{**d["checks"][0], "name": 3}]}, r"checks\[0\]: name 3 is not a valid str"),
    ],
    ids=["passed_string", "passed_int", "theta_string", "float_bool", "int_bool", "int_float", "name_int"],
)
def test_report_value_of_the_wrong_type_rejected(edit, message):
    data = json.loads(_sample_report().to_json())
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        report_from_json(json.dumps(edit(data)))


def test_report_float_fields_take_ints_and_non_finite_values():
    rep = Report("chernoff_sweep", {}, [CheckRecord("c", float("nan"), float("inf"), -float("inf"), False)],
                 [TailRow(1.0, 0.0, 0.0, float("inf"), True, 0)], {"version": "0", "seed": 0})
    assert report_from_json(rep.to_json()).to_json() == rep.to_json()
    data = json.loads(_sample_report().to_json())
    data["tail_rows"][0]["theta"] = 1
    assert report_from_dict(data).tail_rows[0].theta == 1.0


def test_committed_sweep_report_round_trips_through_json_and_csv():
    rep = run(load_config(Path(__file__).resolve().parent.parent / "configs" / "chernoff_k4.ini"))
    assert len(rep.tail_rows) == 6 and len(rep.checks) == 6
    again = report_from_json(rep.to_json())
    assert again == rep and again.checks == rep.checks and again.tail_rows == rep.tail_rows
    assert tuple(parse_tail_csv(rep.to_csv())) == rep.tail_rows


def test_emit_formats(tmp_path):
    rep = _sample_report()
    p = emit(rep, tmp_path / "r.json", "json")
    assert report_from_json(p.read_text()) == rep
    p = emit(rep, tmp_path / "r.csv", "csv")
    assert len(parse_tail_csv(p.read_text())) == 2
    with pytest.raises(ArgumentError):
        emit(rep, tmp_path / "r.x", "xml")


def test_tensor_record_roundtrip(tmp_path):
    x = random_tensor(TensorShape((2, 3), (2,)), RNG)
    rec = tensor_to_record(x)
    assert rec["row_dims"] == [2, 3] and rec["col_dims"] == [2]
    assert tensor_from_record(rec) == x  # bit-exact
    path = tmp_path / "t.json"
    save_tensor(x, path)
    assert load_tensor(path) == x
    # self-describing: plain JSON with interleaved re/im floats
    raw = json.loads(path.read_text())
    assert raw["format"] == "tensor/1"
    assert len(raw["entries"]) == 2 * 12


def test_tensor_record_rejects_bad():
    with pytest.raises(ArgumentError):
        tensor_from_record({"format": "nope"})
    rec = tensor_to_record(random_tensor(TensorShape((2,), (2,)), RNG))
    rec["entries"] = rec["entries"][:-1]
    with pytest.raises(ArgumentError):
        tensor_from_record(rec)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

GOOD = """
[experiment]
suite = chernoff_sweep
seed = 11
workers = 1
trials = 100

[graph]
kind = hypercube
dim = 3

[tensors]
source = random
row_dims = 2 2
radius = 1.5

[poly]
coefficients = 0 1
power = 1

[walk]
kappa = 8
k = 2
num_walks = 5000

[sweep]
theta_grid = 4 8 12

[quadrature]
truncation = 6.0
nodes = 128

[domination]
window = 6.0
sigma_grid = 1.0 2.0
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.experiment.suite == "chernoff_sweep"
    assert cfg.graph.kind == "hypercube" and cfg.graph.dim == 3
    assert cfg.tensors.row_dims == (2, 2)
    assert cfg.sweep.theta_grid == (4.0, 8.0, 12.0)
    assert cfg.walk.kappa == 8 and cfg.walk.k == 2
    echo = cfg.echo()
    assert echo["experiment.seed"] == 11
    assert echo["tensors.row_dims"] == [2, 2]


def test_parse_rejects_unknown_and_bad():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[experiment]\nsuit = tensor_props\n")
    with pytest.raises(ConfigError, match="suite"):
        parse_config("[experiment]\nsuite = nonsense\n")
    with pytest.raises(ConfigError, match="kappa"):
        parse_config("[walk]\nkappa = 0\n")
    with pytest.raises(ConfigError, match="manifest"):
        parse_config("[tensors]\nsource = manifest\n")


@pytest.mark.parametrize(
    "section, key",
    [("tensors", "radius"), ("sweep", "theta_grid"), ("quadrature", "truncation"), ("poly", "power")],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite(section, key, value):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[{section}]\n{key} = {value}\n")
    lines = [line.strip() for line in str(info.value).splitlines()[1:]]
    assert lines == [f"[{section}] {key}: values must be finite, got {value!r}"]


def test_load_config_missing(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")
