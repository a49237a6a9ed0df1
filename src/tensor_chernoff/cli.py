"""Command-line entry point.

    tensor-chernoff run --config cfg.ini --out report.json [--format json|csv]
                        [--seed S]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
config error, reported on one line.  A ``--seed`` outside ``[0, 2^64)`` exits
2 before the run starts, like the same value in the config.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .config import load_config
from .errors import ArgumentError, ConfigError, TensorChernoffError
from .reporting import emit
from .rng import SEED_LIMIT
from .runner import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tensor-chernoff")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a verification suite from a config file")
    runp.add_argument("--config", required=True, help="path to the INI config")
    runp.add_argument("--out", required=True, help="report output path")
    runp.add_argument("--format", choices=("json", "csv"), default="json")
    runp.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
    return parser


_PARSER = _build_parser()  # built once: parse_args leaves no state on it


def _require_writable(out: str) -> None:
    """Reject a report path that cannot be written before the run, not after it."""
    path = Path(out)
    if not path.parent.is_dir():
        code = errno.ENOENT
    elif not os.access(path.parent, os.W_OK):
        code = errno.EACCES
    elif path.is_dir():
        code = errno.EISDIR
    else:
        return
    raise ArgumentError(f"cannot write report {path}: {os.strerror(code)}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        config = load_config(args.config)
        _require_writable(args.out)
        if args.seed is not None and args.seed < 0:
            raise ArgumentError(f"--seed must be >= 0, got {args.seed}")
        if args.seed is not None and args.seed >= SEED_LIMIT:
            raise ArgumentError(f"--seed must be < 2^64, got {args.seed}")
        report = run(config, seed=args.seed)
        emit(report, args.out, args.format)
    except ConfigError as exc:
        head, *errors = (line.strip() for line in str(exc).splitlines())
        print(" ".join(["config error:", head, "; ".join(errors)]).rstrip(), file=sys.stderr)
        return 2
    except TensorChernoffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: lhs={check.lhs:.6g} rhs={check.rhs:.6g}")
    if report.tail_rows:
        print(f"tail table: {len(report.tail_rows)} rows written to {args.out}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
