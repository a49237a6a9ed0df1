"""Machine-readable experiment reports.

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
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ArgumentError

REPORT_FORMAT = "report/1"
CSV_HEADER = ["theta", "p_hat", "stderr", "bound", "vacuous", "assumption3_violations"]


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
        return CheckRecord(
            name=name,
            lhs=float(lhs),
            rhs=float(rhs),
            margin=float(rhs - lhs),
            passed=bool(lhs <= rhs),
            detail=detail,
        )


@dataclass(frozen=True)
class TailRow:
    theta: float
    p_hat: float
    stderr: float
    bound: float
    vacuous: bool
    assumption3_violations: int


@dataclass(frozen=True)
class Report:
    suite: str
    config: dict
    checks: tuple[CheckRecord, ...]
    tail_rows: tuple[TailRow, ...]
    environment: dict

    def __init__(self, suite, config, checks, tail_rows, environment):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "config", dict(config))
        object.__setattr__(
            self, "checks", tuple(sorted(checks, key=lambda c: c.name))
        )
        object.__setattr__(self, "tail_rows", tuple(tail_rows))
        object.__setattr__(self, "environment", dict(environment))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "suite": self.suite,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "tail_rows": [asdict(r) for r in self.tail_rows],
            "environment": self.environment,
            "all_passed": self.all_passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in self.tail_rows:
            writer.writerow(
                [
                    repr(r.theta),
                    repr(r.p_hat),
                    repr(r.stderr),
                    repr(r.bound),
                    int(r.vacuous),
                    r.assumption3_violations,
                ]
            )
        return buf.getvalue()


def report_from_dict(data: dict) -> Report:
    if data.get("format") != REPORT_FORMAT:
        raise ArgumentError(f"unsupported report format: {data.get('format')!r}")
    checks = [CheckRecord(**c) for c in data["checks"]]
    rows = [TailRow(**r) for r in data["tail_rows"]]
    return Report(
        suite=data["suite"],
        config=data["config"],
        checks=checks,
        tail_rows=rows,
        environment=data["environment"],
    )


def report_from_json(text: str) -> Report:
    return report_from_dict(json.loads(text))


def parse_tail_csv(text: str) -> list[TailRow]:
    reader = csv.reader(_io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ArgumentError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        rows.append(
            TailRow(
                theta=float(rec[0]),
                p_hat=float(rec[1]),
                stderr=float(rec[2]),
                bound=float(rec[3]),
                vacuous=bool(int(rec[4])),
                assumption3_violations=int(rec[5]),
            )
        )
    return rows


def emit(report: Report, path: str | Path, format: str = "json") -> Path:
    """Write the report; JSON carries everything, CSV just the tail table."""
    path = Path(path)
    if format == "json":
        text = report.to_json()
    elif format == "csv":
        text = report.to_csv()
    else:
        raise ArgumentError(f"format must be 'json' or 'csv', got {format!r}")
    try:
        path.write_text(text)
    except OSError as exc:
        raise ArgumentError(f"cannot write report {path}: {exc.strerror or exc}") from exc
    return path
