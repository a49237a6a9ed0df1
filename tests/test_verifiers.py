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

from tensor_chernoff import chernoff, graphs, inequalities, majorization, norms, tensors
from tensor_chernoff import runner as runner_mod
from tensor_chernoff.chernoff import contraction_certificate, expectation_sandwich, random_assignment
from tensor_chernoff.config import parse_config
from tensor_chernoff.errors import ArgumentError
from tensor_chernoff.graphs import gen_complete, spectral_expansion
from tensor_chernoff.inequalities import (
    PowerProductSpectrum,
    QuadratureSpec,
    commuting_equality_excess,
    commuting_spectra,
    constructed_premise_trial,
    lie_trotter_audit,
    multivariate_violations,
    verify_discrete_average_majorization,
)
from tensor_chernoff.majorization import check_kyfan_sum_inequality
from tensor_chernoff.norms import holder_gauge_violations
from tensor_chernoff.rng import DOMAIN_SUITE, stream
from tensor_chernoff.runner import run
from tensor_chernoff.sampling import diagonal_in, ginibre, haar_unitary, random_hermitian
from tensor_chernoff.tensors import TensorShape

from oracles import (
    trial_commuting_equality_excess,
    trial_discrete_average_majorization,
    trial_holder_gauge_violated,
    trial_kyfan_sum_holds,
    trial_multivariate_violations,
)

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


def _positive_tuples(rng, batch=1, count=2, dim=3):
    """``batch`` random positive tuples of ``count`` ``dim x dim`` matrices: (batch, count, dim, dim)."""
    z = np.array([[ginibre(rng, dim) for _ in range(count)] for _ in range(batch)])
    return diagonal_in(haar_unitary(z), rng.uniform(0.2, 3.0, size=(batch, count, dim)))


def _commuting_tuples(rng, batch=1, count=2, dim=3):
    u = haar_unitary(np.array([ginibre(rng, dim) for _ in range(batch)]))
    return diagonal_in(u[:, None], np.array([commuting_spectra(rng, count, dim, 0.3, 2.5) for _ in range(batch)]))


def _k4_assignment():
    graph = gen_complete(4)
    return random_assignment(graph, TensorShape.square((2,)), radius=1.0, seed=717), spectral_expansion(graph)[0]


def _nan(*args, **kwargs):
    return math.nan


def _nan_transfer(forward, slots, x):
    return np.full_like(x, np.nan)


# (patched module or class, attribute, replacement, suite config, runner checks that must fail)
NAN_CASES = {
    "multivariate": (
        PowerProductSpectrum, "lhs", _nan, INEQUALITIES,
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
        tuples, commuting = _positive_tuples(rng), _commuting_tuples(rng)
        for f in FS:
            log_bad, lin_bad = multivariate_violations(tuples, 2, f, QUAD)
            assert log_bad.tolist() == lin_bad.tolist() == [True]
        for f in FS[:2]:
            assert not commuting_equality_excess(commuting, 2, f, QUAD)[0] <= 0.0
    elif case == "lie_trotter":
        shape = TensorShape.square((2,))
        slope, bound_ok = lie_trotter_audit(
            random_hermitian(shape, rng), random_hermitian(shape, rng), [2**j for j in range(9)]
        )
        assert not bound_ok and not slope <= -0.9
    elif case == "certificate":
        assignment, lam = _k4_assignment()
        rep = contraction_certificate(assignment, 0.3, 1.0, 0.7, lam, seed=7)
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


def _nan_expansion(graph):
    lam, residual, steps = graphs.spectral_expansion(graph)
    return math.nan, residual, steps


def _nan_corollary(params, theta, fit):
    return chernoff.BoundResult(value=math.nan, t_opt=1.0, vacuous=False)


# LAPACK does not converge on a NaN A / d, so the expander suite's dense spectrum reads NaN
_NAN_ADJACENCY = property(lambda graph: np.full((graph.n, graph.n), np.nan))


# (module or class whose binding the fold's caller reads, patched name, replacement, suite config,
#  check whose worst-value fold meets the NaN)
FOLD_CASES = {
    "tensor_props": (runner_mod, "hermitian_eig", _nan_eigenvalues, TENSOR_PROPS, "trace_vs_eigenvalue_sum"),
    "expander": (runner_mod, "spectral_expansion", _nan_expansion, EXPANDER, "expansion_certificate"),
    "expander_dense": (graphs.RegularGraph, "adjacency", _NAN_ADJACENCY, EXPANDER, "expansion_certificate"),
    "chernoff_sweep": (chernoff, "corollary_bound", _nan_corollary, CHERNOFF_K4, "corollary_vs_theorem_rel_err"),
}


@pytest.mark.parametrize("suite", sorted(FOLD_CASES))
def test_nan_fails_the_runner_folds(monkeypatch, suite):
    # Python's max(0.0, nan) is 0.0, so a fold written with it would pass here
    module, attr, replacement, config, name = FOLD_CASES[suite]
    monkeypatch.setattr(module, attr, replacement)
    check = _checks(config)[name]
    assert math.isnan(check.lhs) and not check.passed


def test_weakened_log_form_fails_the_suite_and_criterion_4_verifier(monkeypatch):
    original = PowerProductSpectrum.forms

    def shrunk(self, f, k):
        log, linear = original(self, f, k)
        return dataclasses.replace(log, value=log.value * 1e-3, error_bound=0.0), linear

    monkeypatch.setattr(PowerProductSpectrum, "forms", shrunk)
    checks = _checks(INEQUALITIES)
    assert not checks["multivariate_log_form_violations"].passed
    assert checks["multivariate_linear_form_violations"].passed
    rng = np.random.default_rng(404)
    tuples = _positive_tuples(rng, count=3)
    flags = [multivariate_violations(tuples, 2, f, QUAD) for f in FS]
    assert [log_bad.tolist() for log_bad, _ in flags] == [[True]] * len(FS)
    assert [lin_bad.tolist() for _, lin_bad in flags] == [[False]] * len(FS)


def test_zero_expectation_bound_fails_the_sandwich_for_both_callers(monkeypatch):
    monkeypatch.setattr(chernoff, "expectation_bound", lambda *args: 0.0)
    checks = _checks(CHERNOFF_PAST_DENSE)
    sandwich = checks["transfer_expectation_below_bound"]
    assert not sandwich.passed and not sandwich.detail.startswith("skipped")
    assignment, lam = _k4_assignment()
    admissible, worst_gap = expectation_sandwich(assignment, 4, lam, [(0.05, 1.0, 0.0)])
    assert admissible == 1 and worst_gap > 0.0


# ---------------------------------------------------------------------------
# Batched verifiers: one bad trial in a stack must show
# ---------------------------------------------------------------------------

def _poison_lhs(monkeypatch, owner, attr, index, value):
    """Replace ``owner.attr`` by a wrapper that sets entry ``index`` of every 1-d result to ``value``.

    The left sides of the Hölder, Ky Fan sum and discrete-average checks are
    the 1-d (one per trial) results of the patched function; their right
    sides are 2-d and stay as they are.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        out = np.array(original(*args, **kwargs), dtype=np.float64)
        if out.ndim == 1:
            out[index] = value
        return out

    monkeypatch.setattr(owner, attr, wrapper)


def _batch_flags(check, batch: int):
    """Per-trial failure flags of one batched verifier on ``batch`` valid trials."""
    rng = np.random.default_rng(2024)
    if check == "holder":
        vecs = np.sort(rng.uniform(0.0, 4.0, size=(batch, 3, 5)), axis=-1)[..., ::-1]
        return holder_gauge_violations(vecs, rng.dirichlet(np.ones(3), size=batch), rng.integers(1, 6, size=batch))
    if check == "kyfan":
        mats = rng.standard_normal((batch, 3, 3, 3)) + 1j * rng.standard_normal((batch, 3, 3, 3))
        return ~check_kyfan_sum_inequality(mats, 2.0, rng.integers(1, 4, size=batch)).holds
    if check == "discrete":
        spectra = np.sort(rng.uniform(-2.0, 3.0, size=(batch, 2, 3)), axis=-1)[..., ::-1]
        w = rng.dirichlet(np.ones(2), size=batch)
        bases = [haar_unitary(np.array([ginibre(rng, 3) for _ in range(batch)])) for _ in range(2)]
        c, atoms = constructed_premise_trial(bases[0], spectra, w, bases[1], "strong")
        rep = verify_discrete_average_majorization(c, atoms, w, np.exp, 2, "strong")
        assert rep.premise_holds.all()
        return rep.violated
    if check == "multivariate":
        log_bad, lin_bad = multivariate_violations(_positive_tuples(rng, batch), 2, FS[0], QUAD)
        return log_bad | lin_bad
    return ~(commuting_equality_excess(_commuting_tuples(rng, batch), 2, FS[0], QUAD) <= 0.0)


# (patched owner, attribute) whose 1-d result is each check's left side, and the
# suite check it feeds
LHS_SITES = {
    "holder": (norms, "gauge_rho", "holder_gauge_violations"),
    "kyfan": (majorization, "ky_fan_from_eigenvalues", "kyfan_sum_inequality_violations"),
    "discrete": (inequalities, "ky_fan_from_eigenvalues", "discrete_average_majorization_violations"),
    "multivariate": (PowerProductSpectrum, "lhs", "multivariate_log_form_violations"),
    "commuting": (PowerProductSpectrum, "lhs", "multivariate_commuting_equality_excess"),
}


@pytest.mark.parametrize("check", sorted(LHS_SITES))
def test_nan_in_the_last_trial_fails_the_batched_verifier_and_the_runner(monkeypatch, check):
    # an all() or Python-max fold over the stack would hide the last trial
    owner, attr, name = LHS_SITES[check]
    assert not _batch_flags(check, 6).any()
    _poison_lhs(monkeypatch, owner, attr, -1, math.nan)
    assert _batch_flags(check, 6).tolist() == [False] * 5 + [True]
    assert not _checks(INEQUALITIES)[name].passed


@pytest.mark.parametrize("check", sorted(LHS_SITES))
def test_one_violating_trial_among_200_is_counted_once(monkeypatch, check):
    # far above every right side, and finite: an infinite left side also makes the slack infinite
    owner, attr, _ = LHS_SITES[check]
    _poison_lhs(monkeypatch, owner, attr, 137, 1e6)
    flags = _batch_flags(check, 200)
    assert np.count_nonzero(flags) == 1 and flags[137]


def test_concave_f_in_one_trial_violates_the_discrete_theorem_once():
    # a real counterexample, not a patched value: sqrt is concave, so the
    # strong-mode conclusion fails for the one trial that uses it
    rng = np.random.default_rng(77)
    spectra = np.sort(rng.uniform(0.3, 3.0, size=(200, 2, 3)), axis=-1)[..., ::-1]
    w = np.full((200, 2), 0.5)
    bases = [haar_unitary(np.array([ginibre(rng, 3) for _ in range(200)])) for _ in range(2)]
    c, atoms = constructed_premise_trial(bases[0], spectra, w, bases[1], "strong")
    fs = [np.exp] * 200
    fs[137] = np.sqrt
    rep = verify_discrete_average_majorization(c, atoms, w, fs, 3, "strong")
    assert rep.premise_holds.all()
    assert np.flatnonzero(rep.violated).tolist() == [137]


# ---------------------------------------------------------------------------
# One f per trial: a sequence as long as the stack, each trial under its own f
# ---------------------------------------------------------------------------

def _discrete_trials(rng, batch: int):
    """``batch`` valid strong-mode trials: C, atoms and weights."""
    spectra = np.sort(rng.uniform(0.3, 3.0, size=(batch, 2, 3)), axis=-1)[..., ::-1]
    w = rng.dirichlet(np.ones(2), size=batch)
    bases = [haar_unitary(np.array([ginibre(rng, 3) for _ in range(batch)])) for _ in range(2)]
    return (*constructed_premise_trial(bases[0], spectra, w, bases[1], "strong"), w)


# each verifier on 3 trials with a sequence of fs: (name, call)
WRONG_LENGTH_CASES = {
    "discrete": lambda rng, fs: verify_discrete_average_majorization(*_discrete_trials(rng, 3), fs, 2, "strong"),
    "multivariate": lambda rng, fs: multivariate_violations(_positive_tuples(rng, 3), 2, fs, QUAD),
    "commuting": lambda rng, fs: commuting_equality_excess(_commuting_tuples(rng, 3), 2, fs, QUAD),
}


@pytest.mark.parametrize("count", [2, 4])
@pytest.mark.parametrize("verifier", sorted(WRONG_LENGTH_CASES))
def test_a_wrong_length_f_sequence_is_an_error(verifier, count):
    # a missing f must not index past the end, nor a surplus one go unused
    call = WRONG_LENGTH_CASES[verifier]
    call(np.random.default_rng(5), [FS[0]] * 3)
    with pytest.raises(ArgumentError, match=f"need one f per trial, 3 of them, got {count}$"):
        call(np.random.default_rng(5), [FS[0]] * count)


# each verifier on 3 trials with one k (or mode) per trial: (name, argument, call)
WRONG_LENGTH_ARGUMENTS = {
    "discrete-k": ("k", lambda rng, k: verify_discrete_average_majorization(
        *_discrete_trials(rng, 3), FS[0], k, "strong")),
    "discrete-mode": ("mode", lambda rng, mode: verify_discrete_average_majorization(
        *_discrete_trials(rng, 3), FS[0], 2, mode)),
    "multivariate-k": ("k", lambda rng, k: multivariate_violations(_positive_tuples(rng, 3), k, FS[0], QUAD)),
    "commuting-k": ("k", lambda rng, k: commuting_equality_excess(_commuting_tuples(rng, 3), k, FS[0], QUAD)),
}


@pytest.mark.parametrize("count", [2, 4])
@pytest.mark.parametrize("case", sorted(WRONG_LENGTH_ARGUMENTS))
def test_a_wrong_length_k_or_mode_is_an_argument_error(case, count):
    # not numpy's broadcast ValueError: the error names the argument and the trial count
    name, call = WRONG_LENGTH_ARGUMENTS[case]
    value = {"k": [1, 2, 2, 1], "mode": ["strong", "weak", "strong", "weak"]}[name]
    call(np.random.default_rng(5), value[:3])
    with pytest.raises(ArgumentError, match=f"need one {name} per trial, 3 of them, got {count}$"):
        call(np.random.default_rng(5), value[:count])


def test_per_tuple_fs_give_the_same_bits_on_a_stack_and_on_its_halves():
    # each tuple keeps its own f and k, whichever stack it is verified in
    rng = np.random.default_rng(2718)
    ks = rng.integers(1, 4, size=9)
    fs = [FS[i] for i in rng.integers(len(FS), size=9)]
    halves = (slice(None, 4), slice(4, None))
    assert all(len({id(f) for f in fs[h]}) > 1 for h in halves)
    for cs, verifier in ((_positive_tuples(rng, 9, count=3), multivariate_violations),
                         (_commuting_tuples(rng, 9), commuting_equality_excess)):
        whole = np.array(verifier(cs, ks, fs, QUAD))
        split = np.concatenate([np.array(verifier(cs[h], ks[h], fs[h], QUAD)) for h in halves], axis=-1)
        assert whole.shape[-1] == 9 and np.array_equal(whole, split)
        # the flags are mostly False, so compare the values they are read from too
        spectrum, parts = PowerProductSpectrum(cs, QUAD), [PowerProductSpectrum(cs[h], QUAD) for h in halves]
        lhs = spectrum.lhs(fs, ks)
        assert lhs.tolist() == [spectrum.lhs(f, ks)[i] for i, f in enumerate(fs)]  # each tuple under its own f
        assert np.array_equal(lhs, np.concatenate([p.lhs(fs[h], ks[h]) for p, h in zip(parts, halves)]))
        split_forms = zip(*(p.forms(fs[h], ks[h]) for p, h in zip(parts, halves)))
        for got, want in zip(spectrum.forms(fs, ks), split_forms):
            for field in ("value", "error_bound", "truncation_bound", "quadrature_error"):
                assert np.array_equal(getattr(got, field), np.concatenate([getattr(w, field) for w in want])), field


# ---------------------------------------------------------------------------
# The runner's own draws through the batched path and the per-trial oracles
# ---------------------------------------------------------------------------

def _premise_held(check) -> int:
    return int(check.detail.rsplit(" ", 1)[1])


@pytest.mark.parametrize("seed", [3, 41])
def test_runner_draws_match_the_per_trial_oracles(seed):
    trials = 40
    quad = QuadratureSpec(truncation=6.0, node_count=64)
    config = (
        f"[experiment]\nsuite = inequalities\nseed = {seed}\ntrials = {trials}\n"
        "[quadrature]\ntruncation = 6.0\nnodes = 64\n"
    )
    checks = _checks(config)
    rng = stream(seed, DOMAIN_SUITE, runner_mod._SUITE_IDS["inequalities"])
    holder = runner_mod._holder_draws(rng, trials)
    kyfan = runner_mod._kyfan_draws(rng, trials)
    premise = runner_mod._premise_draws(rng, trials)
    multivariate = runner_mod._multivariate_draws(rng, 20)
    commuting = runner_mod._commuting_draws(rng, 5)

    # each stack row is one trial; its own vectors, matrices or atoms are the ones of nonzero weight or within its count
    assert checks["holder_gauge_violations"].lhs == sum(
        trial_holder_gauge_violated(v[w > 0], w[w > 0], int(k)) for stack in holder for v, w, k in zip(*stack)
    )
    assert checks["kyfan_sum_inequality_violations"].lhs == sum(
        not trial_kyfan_sum_holds(mats[:m], float(s), int(k)) for stack in kyfan for mats, m, s, k in zip(*stack)
    )

    held = violated = 0
    for stack in premise:
        for mode, z, spectra, w, f, k in zip(*stack):
            own, u = w > 0, haar_unitary(z)
            c, atoms = constructed_premise_trial(u[None, 0], spectra[None, own], w[None, own], u[None, 1], mode)
            ok, bad = trial_discrete_average_majorization(c[0], atoms[0], w[own], f, int(k), str(mode))
            held += ok
            violated += bad
    check = checks["discrete_average_majorization_violations"]
    assert (check.lhs, _premise_held(check)) == (violated, held)

    log_bad = lin_bad = 0
    for zs, vals, ks, which in multivariate:
        stacked = diagonal_in(haar_unitary(zs), vals)
        rows = [trial_multivariate_violations(tensors.hermitian_part(cs), int(k), [runner_mod._MULTIVARIATE_FS[i]], quad)
                for cs, k, i in zip(stacked, ks, which)]
        # per tuple: the stack's one call, each tuple under its own f, flags what the oracle flags
        fs = [runner_mod._MULTIVARIATE_FS[i] for i in which]
        flags = multivariate_violations(stacked, ks, fs, quad)
        assert [(int(log), int(lin)) for log, lin in zip(*flags)] == rows
        log_bad += sum(log for log, _ in rows)
        lin_bad += sum(lin for _, lin in rows)
    assert checks["multivariate_log_form_violations"].lhs == log_bad
    assert checks["multivariate_linear_form_violations"].lhs == lin_bad

    # per tuple, bit for bit: the same tuples one at a time and as one stack
    want = []
    for z, spectra, ks in commuting:
        stacked = diagonal_in(haar_unitary(z)[:, None], spectra)
        rows = [trial_commuting_equality_excess(tensors.hermitian_part(cs), int(k), [lambda x: x], quad)
                for cs, k in zip(stacked, ks)]
        assert commuting_equality_excess(stacked, ks, lambda x: x, quad).tolist() == rows
        want += rows
    assert checks["multivariate_commuting_equality_excess"].lhs == max(0.0, max(want))


def test_one_power_product_spectrum_per_stack(monkeypatch):
    # the spectrum does not depend on f, so the suite builds one per (dim, m) stack and one per commuting stack
    seed, trials = 3, 400
    rng = stream(seed, DOMAIN_SUITE, runner_mod._SUITE_IDS["inequalities"])
    for draws in (runner_mod._holder_draws, runner_mod._kyfan_draws, runner_mod._premise_draws):
        draws(rng, trials)
    stacks = runner_mod._multivariate_draws(rng, trials // 10)  # the suite's counts at 400 trials: 40 and 5
    commuting = runner_mod._commuting_draws(rng, 5)
    assert sum(len(set(which.tolist())) > 1 for *_, which in stacks) >= 3  # stacks that mix fs
    built = []
    original = PowerProductSpectrum.__init__

    def counted(self, cs, quad=None):
        built.append(len(cs))
        original(self, cs, quad)

    monkeypatch.setattr(PowerProductSpectrum, "__init__", counted)
    checks = _checks(f"[experiment]\nsuite = inequalities\nseed = {seed}\ntrials = {trials}\n"
                     "[quadrature]\ntruncation = 6.0\nnodes = 64\n")
    assert all(check.passed for check in checks.values())
    assert built == [len(which) for *_, which in stacks] + [len(ks) for *_, ks in commuting]


@pytest.mark.parametrize("seed", [3, 41])
def test_runner_weights_are_zero_on_padding_and_sum_to_one(seed):
    rng = stream(seed, DOMAIN_SUITE, runner_mod._SUITE_IDS["inequalities"])
    holder = runner_mod._holder_draws(rng, 200)
    runner_mod._kyfan_draws(rng, 200)
    premise = runner_mod._premise_draws(rng, 200)
    for w, counts in [(w, range(2, 5)) for _, w, _ in holder] + [(w, range(1, 4)) for _, _, _, w, _, _ in premise]:
        own = np.count_nonzero(w, axis=1)
        assert set(own.tolist()) <= set(counts) and own.max() == w.shape[1]  # padded to the group's largest
        assert np.array_equal(w > 0, np.arange(w.shape[1]) < own[:, None])  # the padding is exactly 0, at the end
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12


def _loop_holder_draws(rng, trials):
    n, r = rng.integers(2, 5, size=trials), rng.integers(2, 7, size=trials)
    k = rng.integers(1, r + 1)
    draws = []
    for width in sorted(set(r.tolist())):
        rows = [i for i in range(trials) if r[i] == width]
        top = max(n[rows])
        vecs = np.array([[np.sort(rng.uniform(0.0, 4.0, size=width))[::-1] for _ in range(top)] for _ in rows])
        e = [rng.standard_exponential(top)[: n[i]] for i in rows]
        w = np.array([np.concatenate([x / x.sum(), np.zeros(top - x.size)]) for x in e])
        draws.append((vecs, w, k[rows]))
    return draws


def _loop_kyfan_draws(rng, trials):
    dim, m = rng.integers(2, 4, size=trials), rng.integers(1, 5, size=trials)
    k, s = rng.integers(1, dim + 1), rng.choice([1.0, 2.0, 3.0], size=trials)
    draws = []
    for d in sorted(set(dim.tolist())):
        rows = [i for i in range(trials) if dim[i] == d]
        mats = np.array([[ginibre(rng, d) / np.sqrt(2.0) for _ in range(max(m[rows]))] for _ in rows])
        draws.append((mats, m[rows], s[rows], k[rows]))
    return draws


# (batched draw, its one-row-at-a-time loop), each called with a generator
BATCHED_DRAWS = {
    "holder_draws": (lambda rng: runner_mod._holder_draws(rng, 30), lambda rng: _loop_holder_draws(rng, 30)),
    "kyfan_draws": (lambda rng: runner_mod._kyfan_draws(rng, 30), lambda rng: _loop_kyfan_draws(rng, 30)),
    "commuting_spectra": (
        lambda rng: commuting_spectra(rng, 5, 3, -2.0, 3.0),
        lambda rng: np.array([np.sort(rng.uniform(-2.0, 3.0, size=3))[::-1] for _ in range(5)]),
    ),
    "ginibre": (
        lambda rng: ginibre(rng, 3, 2, 4),
        lambda rng: np.array([[ginibre(rng, 3) for _ in range(4)] for _ in range(2)]),
    ),
}


def _flat(draws):
    return [np.asarray(x) for d in draws for x in (d if isinstance(d, tuple) else (d,))]


@pytest.mark.parametrize("name", sorted(BATCHED_DRAWS))
def test_batched_draws_match_their_per_row_loops(name):
    batched, loop = BATCHED_DRAWS[name]
    rng_a, rng_b = np.random.default_rng(2718), np.random.default_rng(2718)
    got, want = _flat(batched(rng_a)), _flat(loop(rng_b))
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
    assert rng_a.standard_normal() == rng_b.standard_normal()  # the stream continues where the loop's does
