"""Machine-readable experiment reports.

The dataclasses ``CheckRecord`` (one check), ``TailRow`` (one threshold of
the tail table) and ``Report`` are the report schema.  The JSON keys, the
CSV header and each CSV cell's format come from their fields, and both
readers check what they read against the same fields, keys and value types
alike, so a column is declared once.

A report is self-contained for replay: it echoes the parsed configuration,
carries one record per check (ordered by name) and the tail-vs-bound table,
and stamps the package version and master seed.  Serialization is
deterministic byte for byte (sorted keys, no timestamps), which is what the
determinism acceptance check compares.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ArgumentError

REPORT_FORMAT = "report/1"


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality or property: lhs vs rhs with a pass verdict."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    detail: str = ""

    @staticmethod
    def from_bound(name: str, lhs: float, rhs: float, detail: str = "") -> "CheckRecord":
        """Record for a check of the form ``lhs <= rhs`` (NaN fails)."""
        return CheckRecord(name, float(lhs), float(rhs), float(rhs - lhs), bool(lhs <= rhs), detail)

    @staticmethod
    def skipped(name: str, rhs: float, why: str) -> "CheckRecord":
        """Record for a check that cannot run: passed, lhs 0, detail ``skipped: why``."""
        return CheckRecord(name, 0.0, float(rhs), float(rhs), True, f"skipped: {why}")


@dataclass(frozen=True)
class TailRow:
    """One threshold: the Monte Carlo tail ``p_hat`` with its ``stderr`` next to the theorem bound."""

    theta: float
    p_hat: float
    stderr: float
    bound: float
    vacuous: bool
    assumption3_violations: int


# a TailRow field's type -> (its CSV cell, its value from a cell); a bool cell is 0 or 1
_CELLS = {"float": (repr, float), "int": (str, int),
          "bool": (lambda v: str(int(v)), {"0": False, "1": True}.__getitem__)}
CSV_HEADER = [f.name for f in fields(TailRow)]


@dataclass(frozen=True)
class Report:
    suite: str
    config: dict
    checks: tuple[CheckRecord, ...]
    tail_rows: tuple[TailRow, ...]
    environment: dict

    def __post_init__(self):
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "checks", tuple(sorted(self.checks, key=lambda c: c.name)))
        object.__setattr__(self, "tail_rows", tuple(self.tail_rows))
        object.__setattr__(self, "environment", dict(self.environment))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"format": REPORT_FORMAT, **asdict(self), "all_passed": self.all_passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([_CELLS[f.type][0](getattr(r, f.name)) for f in fields(TailRow)] for r in self.tail_rows)
        return buf.getvalue()


def _keyed(data, cls, what: str, extra: tuple[str, ...] = ()) -> dict:
    """``data`` if it is an object with exactly the fields of ``cls`` (and ``extra``) as keys."""
    if not isinstance(data, dict):
        raise ArgumentError(f"{what} must be an object, got {type(data).__name__}")
    names = {f.name for f in fields(cls)} | set(extra)
    missing, unknown = sorted(names - data.keys()), sorted(map(str, data.keys() - names))
    if missing or unknown:
        raise ArgumentError(f"{what}: missing keys {missing}, unknown keys {unknown}")
    return data


# a field's type -> the JSON values it takes: a bool field only true and false, an int field no bool, and a
# float field an int or a float (NaN and Infinity included)
_JSON_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,), "str": (str,)}


def _record(item, cls, what: str):
    """``cls`` from ``item`` if it has exactly ``cls``'s fields as keys, each with a value of its field's type."""
    values = _keyed(item, cls, what)
    for f in fields(cls):
        value = values[f.name]
        if not isinstance(value, _JSON_TYPES[f.type]) or (isinstance(value, bool) and f.type != "bool"):
            raise ArgumentError(f"{what}: {f.name} {value!r} is not a valid {f.type}")
    return cls(**values)


def _records(items, cls, what: str) -> list:
    if not isinstance(items, list):
        raise ArgumentError(f"{what} must be a list, got {type(items).__name__}")
    return [_record(item, cls, f"{what}[{i}]") for i, item in enumerate(items)]


def report_from_dict(data: dict) -> Report:
    _keyed(data, Report, "report", extra=("format", "all_passed"))
    if data["format"] != REPORT_FORMAT:
        raise ArgumentError(f"unsupported report format: {data['format']!r}")
    return Report(data["suite"], data["config"], _records(data["checks"], CheckRecord, "checks"),
                  _records(data["tail_rows"], TailRow, "tail_rows"), data["environment"])


def report_from_json(text: str) -> Report:
    return report_from_dict(json.loads(text))


def _tail_row(cells: list[str], line: int) -> TailRow:
    if len(cells) != len(CSV_HEADER):
        raise ArgumentError(f"CSV line {line}: {len(cells)} cells, expected {len(CSV_HEADER)}")
    values = {}
    for f, cell in zip(fields(TailRow), cells):
        try:
            values[f.name] = _CELLS[f.type][1](cell)
        except (KeyError, ValueError):
            raise ArgumentError(f"CSV line {line}: {f.name} {cell!r} is not a valid {f.type}") from None
    return TailRow(**values)


def parse_tail_csv(text: str) -> list[TailRow]:
    reader = csv.reader(_io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ArgumentError(f"unexpected CSV header {header}")
    return [_tail_row(cells, reader.line_num) for cells in reader]


def emit(report: Report, path: str | Path, format: str = "json") -> Path:
    """Write the report; JSON carries everything, CSV just the tail table."""
    path = Path(path)
    if format not in ("json", "csv"):
        raise ArgumentError(f"format must be 'json' or 'csv', got {format!r}")
    text = report.to_json() if format == "json" else report.to_csv()
    try:
        path.write_text(text)
    except OSError as exc:
        raise ArgumentError(f"cannot write report {path}: {exc.strerror or exc}") from exc
    return path
