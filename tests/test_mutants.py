"""Mutation gate: each defect below is injected with ``monkeypatch`` and must turn a
gate check of ``runner.run`` to FAIL, not just a unit test.  Each replacement is wrapped
so that the test asserts it was called during the mutated run: a patch of a name the code no
longer calls leaves the run unchanged and would otherwise pass as a known gap.

The known gaps are the cases in ``GATE_GAPS``: ``test_mutant_fails_a_gate_check`` marks
each ``xfail(strict=True)`` with the reason no check sees it, so a change that closes a
gap turns its case red until the mark is removed.  Unit tests catch all six: the
adjoint-pair test in ``test_chernoff.py`` (the transfer maps), the node-by-node tests in
``test_inequalities.py`` (the power-product spectrum), ``test_walk_sum_closed_form_matches_lapack``
and ``test_tail_sweep_matches_direct_counting`` (the walk-sum spectrum),
``test_tail_table_rows_equal_an_independent_computation`` (walks one step short and a dropped
``8 lam_bar``) and the frozen examples of ``test_majorization.py`` (majorization without the total).

``TENSOR_MUTANTS`` are defects of the tensor algebra, each patched into ``tensors`` and into
``runner``'s binding of the same name, and each must FAIL a named check of ``tensor_props.ini``.

The unconjugated Kronecker stack is not a gap and not yet a FAIL: the Hermitian-coordinate
guard stops the run with ``NumericalError``, an error exit (2) rather than a failed check (1).
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from tensor_chernoff import chernoff, graphs, inequalities, tensors
from tensor_chernoff.chernoff import BoundResult, ChernoffParams
from tensor_chernoff.inequalities import PowerProductSpectrum
from tensor_chernoff import runner as runner_mod
from tensor_chernoff.cli import main
from tensor_chernoff.config import load_config, parse_config
from tensor_chernoff.errors import NumericalError
from tensor_chernoff.graphs import sample_walks_array
from tensor_chernoff.runner import run
from tensor_chernoff.tensors import Tensor, TensorShape

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


def _patch(monkeypatch, obj, attr, replacement):
    """Set ``obj.attr`` to ``replacement`` and return the list that records each call of it: a mutant
    whose list stays empty never ran, and its gate run shows nothing."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(None)
        return replacement(*args, **kwargs)

    monkeypatch.setattr(obj, attr, recorded)
    return calls


@pytest.mark.parametrize("n", [16, 256])
def test_transfer_apply_without_the_slot_mean_fails_the_certificate(monkeypatch, n):
    config = parse_config(TRANSFER_DENSE.format(n=n))
    assert _check(config, "contraction_certificate_excess").passed
    calls = _patch(monkeypatch, chernoff, "_slot_mean", lambda slots, x: x.copy())
    assert not _check(config, "contraction_certificate_excess").passed
    assert calls


def test_sign_flip_in_beta0_fails_the_quadrature_mass(monkeypatch):
    config = load_config(CONFIGS / "inequalities.ini")
    assert _check(config, "beta0_quadrature_mass_error").passed
    original = inequalities.beta0_density  # captured before patching, or the lambda would call itself
    calls = _patch(monkeypatch, inequalities, "beta0_density", lambda t: -original(t))
    assert not _check(config, "beta0_quadrature_mass_error").passed
    assert calls


def test_domination_constant_from_tau_zero_alone_fails_the_fit_check(monkeypatch):
    config = load_config(CONFIGS / "chernoff_k4.ini")
    assert _check(config, "domination_fit_verified").passed
    original = chernoff._domination_ratio  # captured before patching, or the lambda would call itself
    calls = _patch(monkeypatch, chernoff, "_domination_ratio", lambda tau, sigma: original(np.zeros_like(tau), sigma))
    checks = {c.name: c for c in run(config).checks}
    assert calls
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
    calls = _patch(monkeypatch, runner_mod, "sample_walks_array", slot_zero)
    assert not _check(config, "two_step_joint_max_sigma").passed
    assert calls


def test_slot_mean_that_drops_its_last_slot_fails_the_row_sums(monkeypatch):
    def drop_last_slot(slots, x):  # the first d - 1 slots added, divided by d
        d = slots.shape[1]
        return graphs._slot_mean(slots[:, :-1], x) * (d - 1) / d

    config = load_config(CONFIGS / "expander.ini")
    assert _check(config, "rows_sum_to_one").passed
    calls = _patch(monkeypatch, runner_mod, "_slot_mean", drop_last_slot)
    assert not _check(config, "rows_sum_to_one").passed
    assert calls


def test_walks_started_on_half_the_vertices_fail_the_stationary_marginal(monkeypatch):
    def half_starts(graph, kappa, count, seed, start_index=0):
        # true walks, each the next of the stream that starts below n / 2
        walks = sample_walks_array(graph, kappa, 4 * count + 64, seed, start_index=start_index)
        return walks[walks[:, 0] < graph.n // 2][:count]

    config = load_config(CONFIGS / "expander.ini")
    assert _check(config, "stationary_marginal_max_sigma").passed
    calls = _patch(monkeypatch, runner_mod, "sample_walks_array", half_starts)
    assert not _check(config, "stationary_marginal_max_sigma").passed
    assert calls


def _unconjugated_kronecker(es):  # E kron E in place of E kron conj(E)
    n, d = es.shape[:2]
    return (es[:, :, None, :, None] * es[:, None, :, None, :]).reshape(n, d * d, d * d)


def _walk_sum_eigvalsh_without_b(sums):  # the 2x2 closed form from the summed reals with radius |a - c| / 2
    if sums.shape[1] != 4:
        return _walk_sum_eigvalsh(sums)
    a, c = sums[:, 0], sums[:, 1]
    rad = np.abs(0.5 * (a - c))
    return np.stack([0.5 * (a + c) - rad, 0.5 * (a + c) + rad], axis=-1)


def _corollary_with_r_squared(params, theta, fit):  # theta / (2 sigma^2 r^2 kb) in the exponent, not / (2 sigma^2 r kb)
    res = _corollary_bound(params, theta, fit)
    kb = params.kappa + 8.0 * params.lam_bar
    value = res.value * math.exp(theta / (2.0 * fit.sigma**2 * kb) * (params.radius**-2 - params.radius**-1))
    return BoundResult(value=value, t_opt=res.t_opt, vacuous=value > 1.0)


# the originals the replacements call, captured at import, before any patch
_corollary_bound = chernoff.corollary_bound
_first_failures = inequalities.first_failures
_node_singular_values = PowerProductSpectrum._node_singular_values
_tail_sweep = chernoff.empirical_tail_sweep
_walk_sum_eigvalsh = chernoff._walk_sum_eigvalsh

# each mutant's name -> (object, attribute, replacement)
MUTANTS = {
    "unconjugated_kronecker": (chernoff, "_kronecker_stack", _unconjugated_kronecker),
    "forward_only_transfer_apply": (chernoff, "_transfer_apply", lambda forward, slots, x: forward(x)),
    "power_product_at_t_zero": (PowerProductSpectrum, "_node_singular_values",
                                lambda self, ts: _node_singular_values(self, 0.0 * ts)),
    "walk_sum_without_b": (chernoff, "_walk_sum_eigvalsh", _walk_sum_eigvalsh_without_b),
    "walks_one_step_short": (chernoff, "empirical_tail_sweep",
                             lambda a, poly, k, thetas, walks, kappa, seed, **kw:
                             _tail_sweep(a, poly, k, thetas, walks, kappa - 1, seed, **kw)),
    "dropped_8_lam_bar": (chernoff, "ChernoffParams", lambda **kw: ChernoffParams(**{**kw, "lam_bar": 0.0})),
    "corollary_with_r_squared": (chernoff, "corollary_bound", _corollary_with_r_squared),
    "majorization_ignores_total": (inequalities, "first_failures",
                                   lambda x, y, tol, total: _first_failures(x, y, tol, False)),
}


class GateMissed(Exception):
    """Every gate check passed with the mutant in place."""


def _config(name):
    if name == "transfer_dense_256":
        return parse_config(TRANSFER_DENSE.format(n=256))
    return load_config(CONFIGS / f"{name}.ini")


def _gap(mutant, config, reason):
    return pytest.param(mutant, config, id=f"{mutant}-{config}",
                        marks=pytest.mark.xfail(strict=True, raises=GateMissed, reason=reason))


# (mutant, config) pairs whose gate run passes every check with the mutant in place
GATE_GAPS = [
    _gap("forward_only_transfer_apply", "transfer_dense_256",
         "part 4's Lanczos run pairs the defective forward step with an adjoint that is not its adjoint"),
    _gap("power_product_at_t_zero", "inequalities",
         "the phases do not move the singular values at m <= 2, and the unphased product still bounds m = 3"),
    _gap("walk_sum_without_b", "chernoff_k4", "every tail bound compared on chernoff_k4 is vacuous"),
    _gap("walks_one_step_short", "chernoff_k4", "every tail bound compared on chernoff_k4 is vacuous"),
    _gap("dropped_8_lam_bar", "chernoff_k4",
         "the bounds it makes nonvacuous (theta 120 and 150) sit where p_hat is 0"),
    _gap("majorization_ignores_total", "inequalities",
         "every constructed premise holds, so none fails at its total alone"),
]


@pytest.mark.parametrize(
    "mutant, config",
    [pytest.param("forward_only_transfer_apply", "chernoff_k4", id="forward_only_transfer_apply-chernoff_k4"),
     pytest.param("corollary_with_r_squared", "chernoff_k4_r03", id="corollary_with_r_squared-chernoff_k4_r03"),
     *GATE_GAPS],
)
def test_mutant_fails_a_gate_check(monkeypatch, mutant, config):
    config = _config(config)
    assert run(config).all_passed
    calls = _patch(monkeypatch, *MUTANTS[mutant])
    passed = run(config).all_passed
    assert calls, f"{mutant} was never called"  # not GateMissed: an uncalled mutant fails a strict xfail too
    if passed:
        raise GateMissed(mutant)


def test_unconjugated_kronecker_stops_the_run_with_an_error_exit(monkeypatch, tmp_path, capsys):
    config_path = CONFIGS / "chernoff_k4.ini"
    assert run(load_config(config_path)).all_passed
    calls = _patch(monkeypatch, *MUTANTS["unconjugated_kronecker"])
    with pytest.raises(NumericalError, match="does not preserve Hermitian stacks"):
        run(load_config(config_path))
    assert calls
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "report.json")]) == 2
    assert "does not preserve Hermitian stacks" in capsys.readouterr().err


# the tensor operations the replacements below call, captured at import, before any patch
_tensor_ops = {name: getattr(tensors, name)
               for name in ("conj_transpose", "inner_product", "trace", "hermitian_eig", "kronecker")}


def _transposed_kronecker(x, y):
    k = _tensor_ops["kronecker"](x, y)
    return Tensor(TensorShape(k.shape.col_dims, k.shape.row_dims), k.matrix.T)


def _conjugated_eigenbasis(h):
    spec = _tensor_ops["hermitian_eig"](h)
    return dataclasses.replace(spec, basis=spec.basis.conj())


def _ascending_eigenvalues(h):
    spec = _tensor_ops["hermitian_eig"](h)
    return dataclasses.replace(spec, eigenvalues=spec.eigenvalues[::-1], basis=spec.basis[:, ::-1])


# each tensor defect's name -> (patched name, replacement, the tensor_props check it FAILs)
TENSOR_MUTANTS = {
    "transpose_without_conjugate": ("conj_transpose", lambda x: _tensor_ops["conj_transpose"](
        Tensor(x.shape, x.matrix.conj())), "adjoint_product_rule_rel_err"),
    "inner_product_without_conjugate": ("inner_product", lambda x, y: _tensor_ops["inner_product"](
        Tensor(x.shape, x.matrix.conj()), y), "adjoint_product_rule_rel_err"),
    "conjugated_trace": ("trace", lambda x: _tensor_ops["trace"](x).conjugate(), "trace_vs_eigenvalue_sum"),
    "conjugated_eigenbasis": ("hermitian_eig", _conjugated_eigenbasis, "spectral_mapping_rel_err"),
    "ascending_eigenvalues": ("hermitian_eig", _ascending_eigenvalues, "spectral_mapping_rel_err"),
    "swapped_kronecker_factors": ("kronecker", lambda x, y: _tensor_ops["kronecker"](y, x),
                                  "kron_col_tensor_rel_err"),
    "transposed_kronecker_product": ("kronecker", _transposed_kronecker, "kron_col_tensor_rel_err"),
}


@pytest.mark.parametrize("mutant", sorted(TENSOR_MUTANTS))
def test_tensor_defect_fails_a_tensor_props_check(monkeypatch, mutant):
    # correct code passes tensor_props.ini in test_cli.py; one recorded replacement serves both bindings
    attr, replacement, name = TENSOR_MUTANTS[mutant]
    calls = _patch(monkeypatch, tensors, attr, replacement)
    monkeypatch.setattr(runner_mod, attr, getattr(tensors, attr))
    checks = run(load_config(CONFIGS / "tensor_props.ini")).checks
    assert calls
    assert [c.name for c in checks if not c.passed] == [name]
