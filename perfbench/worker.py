"""Benchmark worker: one fresh process that sets up a workload and runs jobs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode measure|trace --work DIR [--first-job J] [--size full|tiny]

Set-up is timed from the top of this file: import ``tensor_chernoff``, write
the workload's configs, and run one untimed warm-up job on job 0's config.
Then, by mode:

* ``measure``: run jobs back to back from job ``--first-job`` for
  ``--seconds`` (at least one job), untraced.
* ``trace``: run a fixed number of job pairs from job 0, each job untraced
  and then traced.

Each job is ``tensor_chernoff.cli.main(["run", ...])`` in this process, the
path a CLI user takes. The last line of stdout is a JSON summary for
``run.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

MAX_JOBS = 400  # configs written at set-up; a worker stops early if it uses them all


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--mode", required=True, choices=("measure", "trace"))
    p.add_argument("--work", required=True, help="directory for configs and reports")
    p.add_argument("--first-job", type=int, default=0, help="first job a measuring worker runs")
    p.add_argument("--size", default="full", choices=workloads.SIZES)
    return p.parse_args(argv)


class Job:
    """Runs generated configs through the CLI entry point and checks the reports."""

    def __init__(self, cli, workload: str, seed: int, size: str, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work

    def config_path(self, j: int) -> Path:
        return self.work / "configs" / f"job{j:04d}.ini"

    def write_configs(self, jobs) -> None:
        (self.work / "configs").mkdir(parents=True, exist_ok=True)
        for j in jobs:
            self.config_path(j).write_text(
                workloads.config_text(self.workload, self.seed, j, self.size)
            )

    def run(self, j: int, out: Path) -> tuple[float, str | None]:
        """Wall time of job ``j`` and a failure reason, or None if it passed."""
        out.parent.mkdir(parents=True, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["run", "--config", str(self.config_path(j)), "--out", str(out)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                # looked up at call time, so the tracer's wrapper is used when installed
                code = self.cli.main(argv)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, f"exit code {code}: {stderr.getvalue().strip()[:200]}"
        failed = [line for line in stdout.getvalue().splitlines() if line.startswith("[FAIL]")]
        if failed:
            return elapsed, failed[0]
        return elapsed, self.check_report(j, out)

    def check_report(self, j: int, out: Path) -> str | None:
        try:
            report = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable report: {exc}"
        suite = "inequalities" if self.workload == "inequalities" else "chernoff_sweep"
        names = tuple(sorted(c["name"] for c in report.get("checks", ())))
        if report.get("suite") != suite:
            return f"report suite {report.get('suite')!r} != {suite!r}"
        if names != workloads.EXPECTED_CHECKS[self.workload]:
            return f"report checks {names} differ from the expected set"
        if not report.get("all_passed") or not all(c["passed"] for c in report["checks"]):
            return "report has a failed check"
        if len(report.get("tail_rows", ())) != workloads.EXPECTED_TAIL_ROWS[self.workload]:
            return f"report has {len(report.get('tail_rows', ()))} tail rows"
        expected_seed = workloads.job_seed(self.workload, self.seed, j)
        if report.get("environment", {}).get("seed") != expected_seed:
            return "report seed differs from the config seed"
        return None


def blas_info() -> dict:
    """OpenBLAS version and thread count as numpy loaded them."""
    import numpy as np

    info = {"blas_version": "unknown", "blas_threads": None}
    try:
        info["blas_version"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)  # same path as numpy's copy, so the same handle
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def git_commit() -> str:
    # the ceiling stops git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_stamp(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup(args) -> tuple[Job, float, dict[str, str]]:
    """Import, write configs, warm up on job 0; returns the set-up time.

    Failures are keyed by job label, so a job counts as failed at most once.
    """
    from tensor_chernoff import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tensor_chernoff imported from {cli.__file__}, not from {ROOT / 'src'}")
    work = Path(args.work)
    job = Job(cli, args.workload, args.seed, args.size, work)
    if args.mode == "trace":
        job.write_configs(range(trace_pairs(args)))
    else:
        job.write_configs({0, *range(args.first_job, args.first_job + MAX_JOBS)})
    _, problem = job.run(0, work / "reports" / "warmup.json")
    failures = {"warm-up": problem} if problem else {}
    return job, time.perf_counter() - T0, failures


def measure(args, job: Job, failures: dict[str, str]) -> dict:
    reports = job.work / "reports"
    times = []
    start = time.perf_counter()
    j = args.first_job
    while not times or (len(times) < MAX_JOBS and time.perf_counter() - start < args.seconds):
        out = reports / f"job{j:04d}.json"
        elapsed, problem = job.run(j, out)
        if problem is None and j == 0 and not workloads.same_bytes(out, reports / "warmup.json"):
            problem = "report differs from the warm-up report of the same config"
        times.append(elapsed)
        if problem:
            failures[f"job {j}"] = problem
        j += 1
    wall = time.perf_counter() - start
    return {"job_times": times, "wall_s": wall, "attempted": len(times) + 1}


def trace_pairs(args) -> int:
    if args.size == "tiny":
        return 2
    return max(2, int(args.seconds / (2.0 * workloads.NOMINAL_JOB_S[args.workload])))


def trace(args, job: Job, failures: dict[str, str]) -> dict:
    from tracer import Tracer

    reports = job.work / "reports"
    tracer = Tracer()
    pairs = trace_pairs(args)
    untraced, traced = [], []
    for j in range(pairs):
        plain = reports / f"job{j:04d}.json"
        elapsed, problem = job.run(j, plain)
        untraced.append(elapsed)
        if problem:
            failures[f"untraced job {j}"] = problem
        tracer.job = j
        tracer.install()
        try:
            elapsed, problem = job.run(j, reports / f"traced{j:04d}.json")
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        if problem is None and not workloads.same_bytes(plain, reports / f"traced{j:04d}.json"):
            problem = "traced report differs from the untraced report"
        if problem:
            failures[f"traced job {j}"] = problem

    tracer.write_spans(job.work / "spans.csv")
    return {
        "metrics": layer_metrics(tracer, pairs, untraced, traced),
        "attempted": 2 * pairs + 1,
        "binding_sites": tracer.binding_sites,
    }


def layer_metrics(tracer, jobs: int, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics, per traced job unless the unit says otherwise."""
    from tracer import SPAN_NAMES

    calls = tracer.calls()
    self_s = tracer.self_times()
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls.get(name, 0) / jobs, "calls/job")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / jobs, "s/job")
        m[f"{name}.errors"] = (tracer.errors.get(name, 0), "count")
    m["sampling.self_s"] = (
        sum(v for n, v in self_s.items() if n.startswith("sampling.")) / jobs, "s/job"
    )
    walks = sum(tracer.walks[j] for j in range(jobs))
    walk_time = sum(end - start for name, start, end, _, _ in tracer.spans
                    if name == "graphs.sample_walks_array")
    m["graphs.walks"] = (walks / jobs, "walks/job")
    m["graphs.walks_per_s"] = (walks / walk_time if walk_time > 0 else 0.0, "1/s")

    def unique_frac(span):
        fracs = [
            len(set(keys)) / len(keys)
            for (name, j), keys in tracer.keys.items()
            if name == span and 0 <= j < jobs and keys
        ]
        return statistics.fmean(fracs) if fracs else 0.0

    m["graphs.edge_slots.unique_frac"] = (unique_frac("graphs.edge_slots"), "ratio")
    m["inequalities.nodes_weights.unique_frac"] = (unique_frac("inequalities.nodes_weights"), "ratio")
    repeats = sum(
        len(keys) - len(set(keys))
        for (name, j), keys in tracer.keys.items()
        if name == "graphs.spectral_expansion" and 0 <= j < jobs
    )
    m["graphs.spectral_expansion.repeat_calls"] = (repeats / jobs, "calls/job")
    nodes = sum(
        n for (name, j), keys in tracer.keys.items()
        if name == "inequalities.nodes_weights" and 0 <= j < jobs
        for n, _ in keys
    )
    m["inequalities.quadrature_nodes"] = (nodes / jobs, "nodes/job")

    total_self = sum(self_s.values())
    m["trace.jobs"] = (jobs, "count")
    m["trace.spans"] = (len(tracer.spans) / jobs, "spans/job")
    m["trace.job_s_p50"] = (statistics.median(traced), "s")
    m["trace.untraced_job_s_p50"] = (statistics.median(untraced), "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    m["trace.unattributed_s"] = ((sum(traced) - total_self) / jobs, "s/job")
    m["trace.attributed_frac"] = (total_self / sum(traced), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    job, setup_s, failures = setup(args)
    result = {"setup_s": setup_s, "attempted": 1}
    if args.mode == "measure":
        result.update(measure(args, job, failures))
    else:
        result.update(trace(args, job, failures))
    result["failures"] = failures
    result["peak_rss_mb"] = peak_rss_mb()
    result["stamp"] = machine_stamp(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
