"""Repository benchmark: batch verification jobs through the tensor-chernoff CLI.

    python3 perfbench/run.py --workload tail_walks|transfer_dense|inequalities \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout. Every job runs in fresh worker processes
(``worker.py``) started one after another, never side by side:

* ``--trace 0`` splits ``--seconds`` among several measuring workers, each
  of which sets up afresh, so the set-up samples spread over the run; it
  reports the end-to-end metrics;
* ``--trace 1`` runs one traced worker and reports the per-layer metrics.

Every job's report is checked. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it repeat the metrics by name and unit, with the machine stamp. Details go
to ``perfbench/out/results/``. The exit code is 0 when a result was printed,
and nonzero without a result when the program or a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Measuring workers per untraced run, each one set-up sample; the median is
# reported. Set-up is about 1.1, 4.1 and 1.6 s, so the cheaper the set-up,
# the more samples fit in a run of under 50 s.
SETUP_SAMPLES = {"tail_walks": 7, "transfer_dense": 3, "inequalities": 5}
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=workloads.SIZES,
                   help="tiny shrinks every job, for the smoke check")
    return p.parse_args(argv)


def run_worker(args, mode: str, work: Path, deadline: float,
               seconds: float, first_job: int = 0) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode, "--first-job", str(first_job),
        "--work", str(work), "--size", args.size,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{mode} worker printed no summary:\n{proc.stdout[-2000:]}") from exc


def end_to_end(args, work: Path, deadline: float) -> tuple[dict, dict]:
    workers = SETUP_SAMPLES[args.workload]
    setups, times, rss, failures = [], [], [], {}
    attempted, wall = 0, 0.0
    for i in range(workers):
        part = run_worker(args, "measure", work / f"measure{i}", deadline,
                          args.seconds / workers, first_job=len(times))
        setups.append(part["setup_s"])
        times += part["job_times"]
        wall += part["wall_s"]
        rss.append(part["peak_rss_mb"])
        attempted += part["attempted"]
        failures.update({f"worker {i} {k}": v for k, v in part["failures"].items()})
        # worker 0 checks its own job 0 against its warm-up; the others warm up on job 0 too
        if i and not workloads.same_bytes(work / f"measure{i}" / "reports" / "warmup.json",
                                          work / "measure0" / "reports" / "job0000.json"):
            failures[f"worker {i} warm-up"] = "warm-up report differs from job 0's report"
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s_p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    detail = {
        "setup_samples_s": setups,
        "job_times_s": times,
        "timed_jobs": len(times),
        "timed_wall_s": wall,
        # undeclared: on a host with two speed states their run-to-run
        # spread exceeds the largest bound a metric may have (see README)
        "job_s_p50": statistics.median(times),
        "jobs_per_s": len(times) / wall,
        "attempted": attempted,
        "failures": failures,
        "failed_frac": len(failures) / attempted,
        "stamp": part["stamp"],
    }
    return metrics, detail


def per_layer(args, work: Path, deadline: float) -> tuple[dict, dict]:
    traced = run_worker(args, "trace", work / "trace", deadline, args.seconds)
    metrics = {name: (m["value"], m["unit"]) for name, m in traced["metrics"].items()}
    detail = {
        "attempted": traced["attempted"],
        "failures": traced["failures"],
        "failed_frac": len(traced["failures"]) / traced["attempted"],
        "binding_sites": traced["binding_sites"],
        "spans_file": str((work / "trace" / "spans.csv").relative_to(ROOT)),
        "stamp": traced["stamp"],
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "tensor_chernoff" / "__init__.py").is_file():
        print(f"error: no tensor_chernoff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-{args.size}-trace{args.trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, detail = per_layer(args, work, deadline)
        else:
            metrics, detail = end_to_end(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(detail["failures"])
    attempted = detail["attempted"]
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-seed{args.seed}.json").write_text(
        json.dumps({"args": vars(args), "summary": summary, "detail": detail}, indent=2) + "\n"
    )

    for job, reason in detail["failures"].items():
        print(f"FAILED {job}: {reason}")
    print(f"failed_frac = {detail['failed_frac']:.6g} ({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"job_s_p50 = {detail['job_s_p50']:.6g} s, jobs_per_s = {detail['jobs_per_s']:.6g} 1/s"
              f" over {detail['timed_jobs']} timed jobs (undeclared)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("stamp: " + json.dumps(detail["stamp"], sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
