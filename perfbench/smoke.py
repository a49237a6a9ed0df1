"""Smoke check of the benchmark itself, at tiny job sizes (about 25 s on 2 cores).

    python3 perfbench/smoke.py

For each workload it runs ``run.py --size tiny`` untraced once and traced
twice with one seed, and asserts that:

* the last stdout line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with every job correct;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) metrics of ``BENCHMARK.json``, each with its declared unit and a
  finite value;
* every ``.calls`` count and ``graphs.walks`` repeat exactly across the two
  traced runs.

Finally it copies only ``BENCHMARK.json`` and ``perfbench/*.py`` to a bare
directory and asserts that the benchmark there exits nonzero without
printing a result. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 7


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: jobs failed\n{proc.stdout[-2000:]}")
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(units):
        raise AssertionError(
            f"{label}: missing {sorted(set(units) - set(got))}, "
            f"undeclared {sorted(set(got) - set(units))}"
        )
    for name, m in got.items():
        if m["unit"] != units[name]:
            raise AssertionError(f"{label}: {name} unit {m['unit']!r} != {units[name]!r}")
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} value {value!r} is not a finite number")


def repeated_counts(result: dict) -> dict:
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if name.endswith(".calls") or name == "graphs.walks"
    }


def check_bare_directory() -> None:
    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy2(path, bare / "perfbench" / path.name)
    proc = bench(bare, workloads.WORKLOADS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("benchmark without the program sources printed a result")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        plain = result_of(bench(ROOT, workload, 0), f"{workload} untraced")
        check_metrics(plain, declared["end_to_end"], f"{workload} untraced")
        first = result_of(bench(ROOT, workload, 1), f"{workload} traced")
        check_metrics(first, declared["per_layer"], f"{workload} traced")
        second = result_of(bench(ROOT, workload, 1), f"{workload} traced again")
        if repeated_counts(first) != repeated_counts(second):
            diff = sorted(
                n for n, v in repeated_counts(first).items() if repeated_counts(second)[n] != v
            )
            raise AssertionError(f"{workload}: counts differ between two traced runs: {diff}")
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end and "
              f"{len(first['metrics'])} per-layer metrics, counts repeat")
    check_bare_directory()
    print("ok bare directory: exits nonzero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
