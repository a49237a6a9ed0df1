"""The benchmark's report gate accepts the reports this tree writes.

``perfbench/worker.py`` fails a job whose report lacks one of the check names
in ``perfbench/workloads.EXPECTED_CHECKS``, has another tail-row count or a
failed check, so a renamed or dropped check would otherwise surface only when
the benchmark runs.  This test loads the worker without editing it, with
``perfbench/`` on ``sys.path`` as when it runs as a script, and runs job 0 of
each workload at the tiny size through the CLI, as a worker does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tensor_chernoff.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)  # restored after the test
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["tail_walks", "transfer_dense", "inequalities"])
def test_job_zero_passes_the_report_gate(worker, workload, tmp_path):
    assert workload in worker.workloads.WORKLOADS
    job = worker.Job(cli, workload, seed=1, size="tiny", work=tmp_path)
    job.write_configs([0])
    _, failure = job.run(0, tmp_path / "reports" / "job0000.json")
    assert failure is None
