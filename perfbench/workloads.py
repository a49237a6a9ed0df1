"""Workload definitions: the configs a workload seed generates, and what a
correct report for them looks like.

A job is one ``tensor-chernoff run`` on one generated config. Job ``j`` of a
run gets a seed derived from ``(workload, workload seed, j)``, so the same
workload seed always gives the same sequence of configs. This module imports
nothing from ``tensor_chernoff``: the coordinator uses it without loading the
program.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

WORKLOADS = ("tail_walks", "transfer_dense", "inequalities")
SIZES = ("full", "tiny")

# Nominal job wall time (s) on a 2-vCPU x86 VM with OpenBLAS at 2
# threads. The traced run uses it only to fix its job count ahead of time, so
# that two traced runs of one seed trace exactly the same jobs.
NOMINAL_JOB_S = {"tail_walks": 0.75, "transfer_dense": 3.9, "inequalities": 1.25}

_CHERNOFF_CHECKS = (
    "contraction_certificate_excess",
    "corollary_vs_theorem_rel_err",
    "domination_fit_verified",
    "gamma_algebra_error",
    "tail_below_bound_excess",
    "transfer_expectation_below_bound",
)
_INEQUALITY_CHECKS = (
    "beta0_quadrature_mass_error",
    "beta_theta_limit_error",
    "discrete_average_majorization_violations",
    "holder_gauge_violations",
    "kyfan_sum_inequality_violations",
    "multivariate_commuting_equality_excess",
    "multivariate_linear_form_violations",
    "multivariate_log_form_violations",
)
EXPECTED_CHECKS = {
    "tail_walks": _CHERNOFF_CHECKS,
    "transfer_dense": _CHERNOFF_CHECKS,
    "inequalities": _INEQUALITY_CHECKS,
}

_THETA_GRID = "2 4 6 8 120 150"
EXPECTED_TAIL_ROWS = {"tail_walks": 6, "transfer_dense": 6, "inequalities": 0}


def derive_seed(*parts: object) -> int:
    """A 31-bit seed that depends only on ``parts``."""
    digest = hashlib.blake2b("/".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % (2**31 - 1)


def job_seed(workload: str, seed: int, job: int) -> int:
    return derive_seed(workload, seed, "job", job)


def config_text(workload: str, seed: int, job: int, size: str = "full") -> str:
    """INI text of job ``job`` of a run with workload seed ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    tiny = size == "tiny"
    s = job_seed(workload, seed, job)
    if workload == "tail_walks":
        # the configs/chernoff_k4.ini shape at 20k walks per job
        return (
            f"[experiment]\nsuite = chernoff_sweep\nseed = {s}\nworkers = 1\n"
            "[graph]\nkind = complete\nn = 4\n"
            "[tensors]\nsource = random\nrow_dims = 2\nradius = 1.0\n"
            "[poly]\ncoefficients = 0 1\npower = 1\n"
            f"[walk]\nkappa = 8\nk = 1\nnum_walks = {2000 if tiny else 20000}\n"
            f"[sweep]\ntheta_grid = {_THETA_GRID}\n"
        )
    if workload == "transfer_dense":
        # n * dim^2 = 256 * 16 = 4096, the dense transfer-operator cap; one
        # graph per run, so every job sees the same admissible sandwich t values
        n = 16 if tiny else 256
        graph_seed = derive_seed(workload, seed, "graph")
        return (
            f"[experiment]\nsuite = chernoff_sweep\nseed = {s}\nworkers = 1\n"
            f"[graph]\nkind = random_regular\nn = {n}\ndegree = 6\ngraph_seed = {graph_seed}\n"
            "[tensors]\nsource = random\nrow_dims = 2 2\nradius = 1.0\n"
            "[poly]\ncoefficients = 0 1\npower = 1\n"
            f"[walk]\nkappa = 8\nk = 2\nnum_walks = {200 if tiny else 2000}\n"
            f"[sweep]\ntheta_grid = {_THETA_GRID}\n"
        )
    return (
        f"[experiment]\nsuite = inequalities\nseed = {s}\nworkers = 1\n"
        f"trials = {20 if tiny else 200}\n"
        f"[quadrature]\ntruncation = 6.0\nnodes = {64 if tiny else 256}\n"
    )


def same_bytes(a: Path, b: Path) -> bool:
    """Whether two reports are byte-identical; False if either is missing."""
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False
