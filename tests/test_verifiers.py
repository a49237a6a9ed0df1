"""The library verifiers that the runner suites and the acceptance gate share.

Each check lives in one function of ``inequalities`` or ``chernoff``; the
runner and the acceptance criteria only draw trials and fold the results.
These tests break a verifier's inputs with ``monkeypatch`` (no source edits)
and assert that both callers see the failure: a NaN must fail every check it
reaches, and a mutated bound must fail the runner's check as well as the
criterion's verifier.
"""

import dataclasses
import math

import numpy as np
import pytest

from tensor_chernoff import chernoff, graphs, inequalities, tensors
from tensor_chernoff import runner as runner_mod
from tensor_chernoff.chernoff import contraction_certificate, expectation_sandwich, random_assignment
from tensor_chernoff.config import parse_config
from tensor_chernoff.graphs import gen_complete, spectral_expansion
from tensor_chernoff.inequalities import (
    PowerProductSpectrum,
    QuadratureSpec,
    commuting_equality_excess,
    commuting_tuple,
    lie_trotter_audit,
    multivariate_violations,
)
from tensor_chernoff.runner import run
from tensor_chernoff.sampling import random_hermitian, random_positive, random_unitary
from tensor_chernoff.tensors import TensorShape

QUAD = QuadratureSpec(truncation=6.0, node_count=64)
FS = (lambda x: x, lambda x: x**2, np.exp)

TENSOR_PROPS = "[experiment]\nsuite = tensor_props\nseed = 3\ntrials = 5\n"
INEQUALITIES = (
    "[experiment]\nsuite = inequalities\nseed = 3\ntrials = 20\n"
    "[quadrature]\ntruncation = 6.0\nnodes = 64\n"
)
EXPANDER = (
    "[experiment]\nsuite = expander\nseed = 3\n"
    "[graph]\nkind = complete\nn = 5\n"
    "[walk]\nkappa = 4\nnum_walks = 1000\n"
)
CHERNOFF_K4 = (
    "[experiment]\nsuite = chernoff_sweep\nseed = 3\n"
    "[graph]\nkind = complete\nn = 4\n"
    "[tensors]\nsource = random\nrow_dims = 2\nradius = 1.0\n"
    "[walk]\nkappa = 4\nk = 1\nnum_walks = 1000\n"
    "[sweep]\ntheta_grid = 2 8\n"
)
# n * dim^2 = 40 * 16^2 = 10240, with admissible sandwich t values
CHERNOFF_PAST_DENSE = (
    "[experiment]\nsuite = chernoff_sweep\nseed = 3\n"
    "[graph]\nkind = random_regular\nn = 40\ndegree = 4\n"
    "[tensors]\nsource = random\nrow_dims = 4 4\nradius = 1.0\n"
    "[walk]\nkappa = 4\nk = 1\nnum_walks = 1000\n"
    "[sweep]\ntheta_grid = 4 1000\n"
)


def _checks(text):
    return {c.name: c for c in run(parse_config(text)).checks}


def _positive_tuple(rng, count=2, dim=3):
    return [random_positive(TensorShape.square((dim,)), rng) for _ in range(count)]


def _k4_assignment():
    graph = gen_complete(4)
    return random_assignment(graph, TensorShape.square((2,)), radius=1.0, seed=717), spectral_expansion(graph)


def _nan(*args, **kwargs):
    return math.nan


def _nan_transfer(es, esh, slots, x):
    return np.full(x.shape, np.nan, dtype=np.complex128)


# (patched module, attribute, replacement, suite config, runner checks that must fail)
NAN_CASES = {
    "multivariate": (
        inequalities, "golden_thompson_lhs", _nan, INEQUALITIES,
        ("multivariate_log_form_violations", "multivariate_linear_form_violations",
         "multivariate_commuting_equality_excess"),
    ),
    "lie_trotter": (
        inequalities, "lie_trotter_error", _nan, TENSOR_PROPS,
        ("lie_trotter_loglog_slope", "lie_trotter_proof_bound_violations"),
    ),
    "certificate": (
        chernoff, "_transfer_apply", _nan_transfer, CHERNOFF_K4,
        ("contraction_certificate_excess", "transfer_expectation_below_bound"),
    ),
    "sandwich": (
        chernoff, "transfer_expectation", _nan, CHERNOFF_K4,
        ("transfer_expectation_below_bound",),
    ),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_fails_the_verifier_and_the_runner_check(monkeypatch, case):
    module, attr, replacement, config, failing = NAN_CASES[case]
    monkeypatch.setattr(module, attr, replacement)
    rng = np.random.default_rng(11)
    if case == "multivariate":
        assert multivariate_violations(_positive_tuple(rng), 2, FS, QUAD) == (3, 3)
        u = random_unitary(TensorShape.square((3,)), rng)
        cs, _ = commuting_tuple(rng, u, 2, 0.3, 2.5)
        assert not commuting_equality_excess(cs, 2, FS[:2], QUAD) <= 0.0
    elif case == "lie_trotter":
        shape = TensorShape.square((2,))
        slope, bound_ok = lie_trotter_audit(
            random_hermitian(shape, rng), random_hermitian(shape, rng), [2**j for j in range(9)]
        )
        assert not bound_ok and not slope <= -0.9
    elif case == "certificate":
        assignment, lam = _k4_assignment()
        rep = contraction_certificate(assignment, 0.3, 1.0, 0.7, lam, num_probes=10, seed=7)
        assert math.isnan(rep.worst_excess) and not rep.holds
    else:
        assignment, lam = _k4_assignment()
        admissible, worst_gap = expectation_sandwich(assignment, 4, lam, [(0.05, 1.0, 0.0), (0.1, 1.0, 0.5)])
        assert admissible == 2 and not worst_gap <= 0.0

    checks = _checks(config)
    assert [name for name in failing if checks[name].passed] == []


def _nan_eigenvalues(h):
    spec = tensors.hermitian_eig(h)
    return dataclasses.replace(spec, eigenvalues=np.full_like(spec.eigenvalues, np.nan))


def _nan_upper_corner(graph):
    a = graphs.normalized_adjacency(graph)
    a[0, -1] = np.nan  # upper triangle: eigvalsh reads the lower one, so the spectrum stays finite
    return a


def _nan_corollary(params, fit):
    return chernoff.BoundResult(value=math.nan, t_opt=1.0, vacuous=False)


# (patched runner name, replacement, suite config, check whose worst-value fold meets the NaN)
FOLD_CASES = {
    "tensor_props": ("hermitian_eig", _nan_eigenvalues, TENSOR_PROPS, "trace_vs_eigenvalue_sum"),
    "expander": ("normalized_adjacency", _nan_upper_corner, EXPANDER, "expansion_certificate"),
    "chernoff_sweep": ("corollary_bound", _nan_corollary, CHERNOFF_K4, "corollary_vs_theorem_rel_err"),
}


@pytest.mark.parametrize("suite", sorted(FOLD_CASES))
def test_nan_fails_the_runner_folds(monkeypatch, suite):
    # Python's max(0.0, nan) is 0.0, so a fold written with it would pass here
    attr, replacement, config, name = FOLD_CASES[suite]
    monkeypatch.setattr(runner_mod, attr, replacement)
    check = _checks(config)[name]
    assert math.isnan(check.lhs) and not check.passed


def test_weakened_log_form_fails_the_suite_and_criterion_4_verifier(monkeypatch):
    original = PowerProductSpectrum.log_form

    def shrunk(self, f, k):
        value = original(self, f, k)
        return dataclasses.replace(value, value=value.value * 1e-3, error_bound=0.0)

    monkeypatch.setattr(PowerProductSpectrum, "log_form", shrunk)
    checks = _checks(INEQUALITIES)
    assert not checks["multivariate_log_form_violations"].passed
    assert checks["multivariate_linear_form_violations"].passed
    rng = np.random.default_rng(404)
    log_bad, lin_bad = multivariate_violations(_positive_tuple(rng, count=3), 2, FS, QUAD)
    assert log_bad == len(FS) and lin_bad == 0


def test_zero_expectation_bound_fails_the_sandwich_for_both_callers(monkeypatch):
    monkeypatch.setattr(chernoff, "expectation_bound", lambda *args: 0.0)
    checks = _checks(CHERNOFF_PAST_DENSE)
    sandwich = checks["transfer_expectation_below_bound"]
    assert not sandwich.passed and not sandwich.detail.startswith("skipped")
    assignment, lam = _k4_assignment()
    admissible, worst_gap = expectation_sandwich(assignment, 4, lam, [(0.05, 1.0, 0.0)])
    assert admissible == 1 and worst_gap > 0.0
