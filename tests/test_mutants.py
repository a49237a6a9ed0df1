"""Mutation gate: each defect below is injected with ``monkeypatch`` and must turn a
gate check of ``runner.run`` to FAIL, not just a unit test.

Known gaps: an unconjugated ``E kron E`` in place of ``E kron conj(E)`` in
``chernoff._kronecker_stack`` passes every gate check, because the contraction bounds
hold for that operator too and ``chernoff._vertex_maps`` keeps its adjoint pair.  A
defect in ``chernoff._transfer_apply`` alone (the forward map without the slot mean)
FAILs the certificate on ``configs/chernoff_k4.ini`` but passes on the
``TRANSFER_DENSE`` shape below, because the certificate's Lanczos run then pairs it
with an adjoint step that is not its adjoint; the adjoint-pair unit test in
``test_chernoff.py`` catches it.  Evaluating every quadrature node at t = 0 in
``inequalities.PowerProductSpectrum._node_singular_values`` drops the middle factors'
phases and passes every ``inequalities`` gate check; criterion 4 and the node-by-node
tests in ``test_inequalities.py`` catch it.  Dropping ``|b|`` from the 2x2 closed form
in ``chernoff._walk_sum_eigvalsh`` (radius ``|a - c| / 2``) passes every gate check of
``configs/chernoff_k4.ini`` and of the benchmark's ``tail_walks`` jobs 0 and 1, because
every tail bound compared there is vacuous; ``test_tail_sweep_matches_direct_counting``
and ``test_walk_sum_closed_form_matches_lapack`` in ``test_chernoff.py`` catch it.
"""

from pathlib import Path

import numpy as np
import pytest

from tensor_chernoff import chernoff, inequalities
from tensor_chernoff import runner as runner_mod
from tensor_chernoff.config import load_config, parse_config
from tensor_chernoff.graphs import sample_walks_array
from tensor_chernoff.runner import run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the benchmark's transfer_dense shape at n = 16 and at n = 256
TRANSFER_DENSE = (
    "[experiment]\nsuite = chernoff_sweep\nseed = 7\n"
    "[graph]\nkind = random_regular\nn = {n}\ndegree = 6\ngraph_seed = 11\n"
    "[tensors]\nsource = random\nrow_dims = 2 2\nradius = 1.0\n"
    "[walk]\nkappa = 8\nk = 2\nnum_walks = 200\n"
    "[sweep]\ntheta_grid = 2 4 6 8 120 150\n"
)


def _check(config, name):
    return {c.name: c for c in run(config).checks}[name]


@pytest.mark.parametrize("n", [16, 256])
def test_transfer_apply_without_the_slot_mean_fails_the_certificate(monkeypatch, n):
    config = parse_config(TRANSFER_DENSE.format(n=n))
    assert _check(config, "contraction_certificate_excess").passed
    monkeypatch.setattr(chernoff, "_slot_mean", lambda slots, x: x.copy())
    assert not _check(config, "contraction_certificate_excess").passed


def test_sign_flip_in_beta0_fails_the_quadrature_mass(monkeypatch):
    config = load_config(CONFIGS / "inequalities.ini")
    assert _check(config, "beta0_quadrature_mass_error").passed
    original = inequalities.beta0_density  # captured before patching, or the lambda would call itself
    monkeypatch.setattr(inequalities, "beta0_density", lambda t: -original(t))
    assert not _check(config, "beta0_quadrature_mass_error").passed


def test_domination_constant_from_tau_zero_alone_fails_the_fit_check(monkeypatch):
    config = load_config(CONFIGS / "chernoff_k4.ini")
    assert _check(config, "domination_fit_verified").passed
    original = chernoff._domination_ratio  # captured before patching, or the lambda would call itself
    monkeypatch.setattr(chernoff, "_domination_ratio", lambda tau, sigma: original(np.zeros_like(tau), sigma))
    checks = {c.name: c for c in run(config).checks}
    assert not checks["domination_fit_verified"].passed
    assert checks["domination_fit_verified"].detail.startswith("C = 1.378091, sigma = 0.7,")
    for name in ("corollary_vs_theorem_rel_err", "tail_below_bound_excess"):
        assert checks[name].detail == "skipped: domination fit not verified"


def test_walk_that_always_takes_slot_zero_fails_the_two_step_joint(monkeypatch):
    def slot_zero(graph, kappa, count, seed, start_index=0):
        walks = sample_walks_array(graph, kappa, count, seed, start_index=start_index)
        slots = graph.edge_slots()
        for j in range(1, kappa):
            walks[:, j] = slots[walks[:, j - 1], 0]
        return walks

    config = load_config(CONFIGS / "expander.ini")
    assert _check(config, "two_step_joint_max_sigma").passed
    monkeypatch.setattr(runner_mod, "sample_walks_array", slot_zero)
    assert not _check(config, "two_step_joint_max_sigma").passed
