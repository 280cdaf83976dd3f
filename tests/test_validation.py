import math
import re
import types

import numpy as np
import pytest

import photonboost.beams as beams
import photonboost.cli as cli
import photonboost.entanglement as entanglement
import photonboost.lorentz as lorentz
import photonboost.validation as validation
import photonboost.wigner as wigner
from photonboost.validation import validate

EXPECTED_GROUPS = {
    "metric",
    "wigner_oracle",
    "d_form_equivalence",
    "composition_laws",
    "rho_sanity",
    "ln_rotation_invariance",
    "omega_independence",
    "convergence",
}


def test_fresh_build_passes_every_group():
    report = validate()
    assert {g.name for g in report.groups} == EXPECTED_GROUPS
    failures = [g for g in report.groups if not g.passed]
    assert not failures, f"failing groups: {[(g.name, g.detail) for g in failures]}"
    assert report.passed


def _run_group(name, seed=validation.DEFAULT_SEED):
    groups = {name: (fn, cases) for name, fn, cases in validation._GROUPS}
    fn, cases = groups[name]
    return fn(validation._group_rng(seed, name), cases)


def _omega_group():
    return _run_group("omega_independence")


@pytest.mark.parametrize("seed", range(40))
def test_every_group_passes_across_seeds(seed):
    failures = [(g.name, g.detail) for g in validate(seed).groups if not g.passed]
    assert not failures


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_validate_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed}")):
        validate(seed)


def test_cli_validate_negative_seed_exits_1_naming_the_seed(capsys):
    assert cli.main(["validate", "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be a non-negative integer, got -1\n"


def test_report_serializes():
    report = validate()
    d = report.to_dict()
    assert d["passed"] is True
    assert set(d["groups"]) == EXPECTED_GROUPS
    for entry in d["groups"].values():
        assert set(entry) == {"passed", "detail"}


def test_sign_flip_in_rotation_angle_rule_trips_wigner_group(monkeypatch):
    real = wigner._rot_y_angle

    def flipped(gamma, frame, frame_out):
        # the angle of R(out)^T R_y(-gamma) R(in): R_y(gamma) with its sign flipped
        return real(-gamma, frame, frame_out)

    monkeypatch.setattr(wigner, "_rot_y_angle", flipped)
    report = validate()
    by_name = {g.name: g for g in report.groups}
    assert not by_name["wigner_oracle"].passed
    monkeypatch.setattr(wigner, "_rot_y_angle", real)
    assert validate().passed


def test_wrong_order_compose_trips_the_factor_clause(monkeypatch):
    # the product b * a under the factor table of a * b
    real = lorentz.compose

    def wrong_order(a, b):
        table = real(a, b)
        return lorentz.TransformStack(table.kinds, table.params, b.matrices @ a.matrices)

    monkeypatch.setattr(lorentz, "compose", wrong_order)
    result = _run_group("composition_laws")
    assert not result.passed
    assert float(result.detail.rpartition("factors ")[2]) > 1e-12


def _on_paired_vectors(monkeypatch, replacement):
    """Route beams.transport calls with (k, 4, 1 + m, n) vectors to replacement.

    Only d_form_equivalence pairs its vectors with the boosts; every state
    and the omega_independence transport clause map one node set by all
    boosts, and keep the real transport.
    """
    real = beams.transport

    def transport(boosts, vectors):
        return (replacement if np.ndim(vectors) == 4 else real)(boosts, vectors)

    monkeypatch.setattr(beams, "transport", transport)


def test_missing_gauge_term_trips_form_equivalence(monkeypatch):
    def gauge_without_subtraction(boosts, vectors):
        k, _, cols, n = vectors.shape
        lv = (boosts @ vectors.reshape(k, 4, cols * n)).reshape(k, 4, cols, n)
        return lv[:, 1:, 1:]

    _on_paired_vectors(monkeypatch, gauge_without_subtraction)
    failed = [g.name for g in validate().groups if not g.passed]
    assert failed == ["d_form_equivalence"]


def test_flipped_in_plane_product_trips_form_equivalence(monkeypatch, capsys):
    # the t C b products (row 5 of _aberration_tables' (6, 2, n) table)
    # with their sign flipped: single prints 0.458840595 instead of
    # 0.482574042 and exits 0, and the states on validate's 32^2 and 64^2
    # grids fail only the positivity guard; the in-plane clause compares
    # the pass itself with the rotation form
    real = beams._aberration_tables

    def flipped(frame, grid):
        for table, t2 in real(frame, grid):
            table = table.copy()
            table.reshape(6, 2, -1)[5] *= -1.0
            yield table, t2

    monkeypatch.setattr(beams, "_aberration_tables", flipped)
    assert cli.main(["single", "--alpha", "1.2", "--xi", "1.5", "--sigma-theta", "1.0"]) == 0
    assert capsys.readouterr().out == "0.458840595\n"
    result = _run_group("d_form_equivalence")
    assert not result.passed
    assert float(result.detail.rpartition("in-plane moments gap ")[2]) > 1e-10


def test_raw_trace_gap_trips_rho_sanity_only(monkeypatch):
    # moments 1e-13 too large put the trace 2e-13 off: under the 1e-12
    # guard, over the 1e-13 clause, and gone once the state is normalized
    real = beams.transported_moments
    monkeypatch.setattr(beams, "transported_moments", lambda b, g: real(b, g) * (1.0 + 1e-13))
    failed = {g.name: g.detail for g in validate().groups if not g.passed}
    assert list(failed) == ["rho_sanity"]
    assert float(failed["rho_sanity"].split(",")[0].removeprefix("trace ")) > 1e-13


def _drifting_rotation_form(monkeypatch):
    real = wigner.d_rotation_form_stack

    def drifting(stack, momenta, eps):
        # a transport that depends on the photon frequency p^0 by one part in 1e9
        return real(stack, momenta, eps) * (1.0 + 1e-9 * np.log(momenta[0]))

    monkeypatch.setattr(wigner, "d_rotation_form_stack", drifting)


def _nan_production_transport(monkeypatch):
    monkeypatch.setattr(beams, "transport", lambda boosts, vectors: np.full(
        (len(boosts), 3, vectors.shape[1] - 1, vectors.shape[2]), np.nan
    ))


@pytest.mark.parametrize("inject", [_drifting_rotation_form, _nan_production_transport])
def test_transport_clause_trips_omega_independence(monkeypatch, inject):
    base = _omega_group()
    assert base.passed
    inject(monkeypatch)
    result = _omega_group()
    assert not result.passed
    # the angle clause uses neither transport: the transport clause tripped
    angle, _, transport = result.detail.partition(", transport ")
    assert angle == base.detail.partition(", transport ")[0]
    assert not float(transport) <= validation._OMEGA_TRANSPORT_TOL


def _nan_factors(monkeypatch):
    monkeypatch.setattr(lorentz, "factor_residuals", lambda stack: np.full(len(stack), np.nan))


def _nan_oracle_angles(monkeypatch):
    monkeypatch.setattr(
        wigner, "wigner_angle_oracle_stack", lambda stack, p: np.full(np.shape(p)[1], np.nan)
    )


def _nan_gauge_form(monkeypatch):
    _on_paired_vectors(monkeypatch, lambda boosts, vectors: np.full(
        (len(boosts), 3, vectors.shape[2] - 1, vectors.shape[3]), np.nan
    ))


def _nan_composed_angles(monkeypatch):
    # the closed-form angle of every composed transform reads NaN
    compose, angles = lorentz.compose, wigner.wigner_angle_stack
    composed = []

    def recorded(a, b):
        composed.append(compose(a, b))
        return composed[-1]

    def nan_for_composed(stack, p):
        if any(stack is c for c in composed):
            return np.full(np.shape(p)[1], np.nan)
        return angles(stack, p)

    monkeypatch.setattr(lorentz, "compose", recorded)
    monkeypatch.setattr(wigner, "wigner_angle_stack", nan_for_composed)


def _nan_metric_residuals(monkeypatch):
    # only validate's own call reads NaN: the stack guard, inside lorentz,
    # keeps the real residuals
    proxy = types.ModuleType(lorentz.__name__)
    proxy.__dict__.update(vars(lorentz))
    proxy.metric_residuals = lambda m: np.full(len(m), np.nan)
    monkeypatch.setattr(validation, "lorentz", proxy)


def _nan_min_eigenvalue(monkeypatch):
    # only rho_sanity evaluates one boost at a time
    real = beams.density_states

    def nan_for_one_boost(boosts, grid):
        states, min_eig, gap, spectra = real(boosts, grid)
        return states, min_eig if len(boosts) > 1 else np.full(1, np.nan), gap, spectra

    monkeypatch.setattr(beams, "density_states", nan_for_one_boost)


def _nan_log_negativity(monkeypatch):
    monkeypatch.setattr(
        entanglement, "log_negativity", lambda rho: np.full(np.shape(rho)[:-2], np.nan)
    )


def _nan_angle_budget(monkeypatch):
    monkeypatch.setattr(validation, "frequency_angle_tolerance", lambda L: np.nan)


def _nan_fine_grid_state(monkeypatch):
    # only the convergence group builds 128^2 grids, stored as 128 x 65 nodes
    real = beams.density_states

    def nan_on_fine_grid(boosts, grid):
        states, min_eig, gap, spectra = real(boosts, grid)
        if len(grid) == 128 * (128 // 2 + 1):
            states = np.full_like(states, np.nan)
        return states, min_eig, gap, spectra

    monkeypatch.setattr(beams, "density_states", nan_on_fine_grid)


def _nan_trace_gap(monkeypatch):
    # only rho_sanity reads the trace gap
    real = beams.density_states

    def nan_gap(boosts, grid):
        states, min_eig, gap, spectra = real(boosts, grid)
        return states, min_eig, np.full_like(gap, np.nan), spectra

    monkeypatch.setattr(beams, "density_states", nan_gap)


@pytest.mark.parametrize(
    "group, inject",
    [
        ("metric", _nan_metric_residuals),
        ("wigner_oracle", _nan_oracle_angles),
        ("d_form_equivalence", _nan_gauge_form),
        ("composition_laws", _nan_composed_angles),
        ("composition_laws", _nan_factors),
        ("rho_sanity", _nan_min_eigenvalue),
        ("rho_sanity", _nan_trace_gap),
        ("ln_rotation_invariance", _nan_log_negativity),
        ("omega_independence", _nan_angle_budget),
        ("convergence", _nan_fine_grid_state),
    ],
)
def test_nan_residual_fails_only_its_group(monkeypatch, group, inject):
    # Python's max(0.0, nan) is 0.0: a fold that drops NaN reads it as a pass
    inject(monkeypatch)
    failed = {g.name: g.detail for g in validate().groups if not g.passed}
    assert list(failed) == [group]
    assert "nan" in failed[group]


@pytest.mark.parametrize("seed", range(10))
def test_drawn_factor_lists_fold_to_random_transform_bit_for_bit(seed):
    # each row of a drawn table holds 1 to max_factors true factors, then
    # PAD, within its bounds, and folds in the padded many-row stack to the
    # same floats as its own factor list alone
    rng = np.random.default_rng(seed)
    max_factors, max_rapidity = 1 + seed % 5, 0.2 + 0.1 * seed
    stack = validation._draw_stack(rng, 60, max_factors, max_rapidity)
    assert stack.kinds.shape == (60, max_factors)
    counts = stack.factor_counts
    assert counts.min() >= 1 and counts.max() <= max_factors
    if max_factors > 1:
        assert counts.min() < counts.max()
    true = np.arange(max_factors) < counts[:, None]
    assert np.array_equal(stack.kinds == lorentz.PAD, ~true)
    assert np.all(stack.params[~true] == 0.0)
    boosts = stack.kinds == lorentz.BOOST_Z
    assert np.all(np.abs(stack.params[boosts]) <= max_rapidity)
    assert np.all(np.abs(stack.params[true & ~boosts]) <= math.pi)
    assert {lorentz.BOOST_Z, lorentz.ROT_Y, lorentz.ROT_Z} <= set(stack.kinds[true].tolist())
    for kinds, params, m in zip(stack.kinds, stack.params, stack.matrices):
        factors = [(k, p) for k, p in zip(kinds.tolist(), params.tolist()) if k != lorentz.PAD]
        assert m.tobytes() == lorentz.stack_from_factors([factors]).matrix.tobytes()
