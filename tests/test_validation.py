import math
import re
import types

import numpy as np
import pytest

import photonboost.beams as beams
import photonboost.cli as cli
import photonboost.entanglement as entanglement
import photonboost.lorentz as lorentz
import photonboost.sweep as sweep
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


@pytest.mark.filterwarnings("error")
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


@pytest.mark.filterwarnings("error")
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


def test_wrong_order_compose_trips_the_angle_and_transport_clauses(monkeypatch):
    # the factor rows joined in the wrong order: b * a where a * b was asked
    real = lorentz.compose
    monkeypatch.setattr(lorentz, "compose", lambda a, b: real(b, a))
    result = _run_group("composition_laws")
    assert not result.passed
    angle, transport = (float(c.rpartition(" ")[2]) for c in result.detail.split(", "))
    assert angle > 1e-9 and transport > 1e-9


def _on_tables(monkeypatch, replacement, on_form_grid=False):
    """Route the table pass (beams._aberration_tables) through replacement(table, t2), which returns the table to sum.

    With on_form_grid, only the passes on d_form_equivalence's grid are
    routed: it is the one group that builds a grid of _FORM_NODES thetas
    and phis, and every other group keeps the real pass.
    """
    real = beams._aberration_tables
    form = (validation._FORM_NODES, validation._FORM_NODES // 2 + 1)

    def tables(axis, grid):
        routed = not on_form_grid or (len(grid.thetas), len(grid.phis)) == form
        for table, t2 in real(axis, grid):
            yield (replacement(table.copy(), t2) if routed else table), t2

    monkeypatch.setattr(beams, "_aberration_tables", tables)


def _flipped(rows):
    """A replacement for _on_tables that flips the sign of the node products in these rows."""

    def flip(table, t2):
        table[rows] *= -1.0
        return table

    return flip


def test_missing_gauge_term_trips_form_equivalence(monkeypatch):
    # the C^2 products dropped: the transported vectors lose their part
    # along m, -s' C, as the gauge form without its subtraction keeps one
    # along the momentum
    def without_m_part(table, t2):
        table[6:8] = 0.0
        return table

    _on_tables(monkeypatch, without_m_part, on_form_grid=True)
    failed = [g.name for g in validate().groups if not g.passed]
    assert failed == ["d_form_equivalence"]


def test_flipped_in_plane_product_trips_form_equivalence(monkeypatch, capsys):
    # the t C b products (row 5 of the table's 6 products of each parity)
    # with their sign flipped: single prints 0.458840595 instead of
    # 0.482574042 and exits 0, and the states on validate's 32^2 and 64^2
    # grids fail only the positivity guard; the moments clause compares
    # the pass itself with the rotation form
    _on_tables(monkeypatch, _flipped([10, 11]))
    assert cli.main(["single", "--alpha", "1.2", "--xi", "1.5", "--sigma-theta", "1.0"]) == 0
    assert capsys.readouterr().out == "0.458840595\n"
    result = _run_group("d_form_equivalence")
    assert not result.passed
    assert float(result.detail.split()[3]) > 1e-10


@pytest.mark.parametrize("seed", [validation.DEFAULT_SEED, *range(5)])
def test_wrong_sign_of_the_label_turn_trips_form_equivalence(monkeypatch, seed):
    # transported_moments reads a boost along R_z(beta) m0 as the pass
    # about m0 conjugated by R_z(beta) (x) R(beta), R(beta) the turn of the
    # h/v labels.  With R(-beta) there instead, each such row's moments
    # are the production ones conjugated by I3 (x) R(-2 beta); two of every
    # three drawn transforms have an axis off the x-z plane
    result = _run_group("d_form_equivalence", seed)
    assert result.passed
    assert int(result.detail.split(", ")[1].split()[0]) >= 2
    real = beams.transported_moments

    def wrong_sign(stack, grid):
        beta = -2.0 * validation._axis_azimuths(stack.matrices)
        c, s = np.cos(beta), np.sin(beta)
        turn = np.zeros((len(stack), 3, 2, 3, 2))
        for i in range(3):
            turn[:, i, :, i, :] = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
        turn = turn.reshape(-1, 6, 6)
        return turn @ real(stack, grid) @ turn.swapaxes(1, 2)

    monkeypatch.setattr(beams, "transported_moments", wrong_sign)
    result = _run_group("d_form_equivalence", seed)
    assert not result.passed
    assert float(result.detail.split()[3]) > 1e-10


def test_raw_trace_gap_trips_rho_sanity_only(monkeypatch):
    # moments 1e-13 too large put the trace 2e-13 off: under the 1e-12
    # guard, over the 1e-13 clause, and gone once the state is normalized;
    # every route to the moments runs the axis pass
    real = beams.axis_moments
    monkeypatch.setattr(beams, "axis_moments", lambda *args: (m * (1.0 + 1e-13) for m in real(*args)))
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
    _on_tables(monkeypatch, lambda table, t2: np.full_like(table, np.nan))


@pytest.mark.parametrize("inject", [_drifting_rotation_form, _nan_production_transport])
def test_transport_clause_trips_omega_independence(monkeypatch, inject):
    base = _omega_group()
    assert base.passed
    inject(monkeypatch)
    result = _omega_group()
    assert not result.passed
    # the angle clause uses neither transport: the moments clause tripped
    angle, _, moments = result.detail.partition(", moments ")
    assert angle == base.detail.partition(", moments ")[0]
    assert not float(moments) <= validation._OMEGA_MOMENTS_TOL


def _nan_oracle_angles(monkeypatch):
    monkeypatch.setattr(
        wigner, "wigner_angle_oracle_stack", lambda stack, p: np.full(np.shape(p)[1], np.nan)
    )


def _nan_gauge_form(monkeypatch):
    _on_tables(monkeypatch, lambda table, t2: np.full_like(table, np.nan), on_form_grid=True)


def _nan_for_composed(monkeypatch, name):
    """Make wigner's route called name return NaN for every composed transform."""
    compose, route = lorentz.compose, getattr(wigner, name)
    composed = []

    def recorded(a, b):
        composed.append(compose(a, b))
        return composed[-1]

    def nan_for_composed(stack, p, *eps):
        if any(stack is c for c in composed):
            return np.full(np.shape(route(stack, p, *eps)), np.nan)
        return route(stack, p, *eps)

    monkeypatch.setattr(lorentz, "compose", recorded)
    monkeypatch.setattr(wigner, name, nan_for_composed)


def _nan_composed_angles(monkeypatch):
    # the closed-form angle of every composed transform reads NaN
    _nan_for_composed(monkeypatch, "wigner_angle_stack")


def _nan_composed_transport(monkeypatch):
    # the rotation-form transport by every composed transform reads NaN
    _nan_for_composed(monkeypatch, "d_rotation_form_stack")


def _in_validation(monkeypatch, module, **replacements):
    """Give validation a copy of module with these functions replaced.

    module itself, and the code inside the package that calls it, keep
    the real ones.
    """
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(vars(module))
    proxy.__dict__.update(replacements)
    monkeypatch.setattr(validation, module.__name__.rpartition(".")[2], proxy)


def _nan_metric_residuals(monkeypatch):
    # only validate's own call reads NaN: the stack guard, inside lorentz,
    # keeps the real residuals
    _in_validation(monkeypatch, lorentz, metric_residuals=lambda m: np.full(len(m), np.nan))


def _nan_reading(monkeypatch, index):
    """Make reading index of validate's own entanglement.state_readings calls NaN.

    Only rho_sanity calls the state stage itself; density_states, inside
    beams, keeps the real readings.
    """
    real = entanglement.state_readings

    def nan_reading(moments):
        readings = list(real(moments))
        readings[index] = np.full_like(readings[index], np.nan)
        return tuple(readings)

    _in_validation(monkeypatch, entanglement, state_readings=nan_reading)


def _nan_min_eigenvalue(monkeypatch):
    _nan_reading(monkeypatch, 1)


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
    _nan_reading(monkeypatch, 2)


@pytest.mark.parametrize(
    "group, inject",
    [
        ("metric", _nan_metric_residuals),
        ("wigner_oracle", _nan_oracle_angles),
        ("d_form_equivalence", _nan_gauge_form),
        ("composition_laws", _nan_composed_angles),
        ("composition_laws", _nan_composed_transport),
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


def test_validate_builds_each_of_its_four_rule_sizes_once():
    # mechanism pin (rule cache, ROADMAP item 14): 8, 32, 64 and 128
    # theta nodes, over about twenty grids
    beams._gauss_legendre.cache_clear()
    validate(validation.DEFAULT_SEED)
    assert beams._gauss_legendre.cache_info().misses == 4


@pytest.mark.parametrize("seed", [0, 5, 17, validation.DEFAULT_SEED])
def test_rho_sanity_reads_the_states_of_the_boost_stack_route_bit_for_bit(monkeypatch, seed):
    # mechanism pin (rho_sanity on the sweep path, ROADMAP item 14): the
    # group reads each drawn beam and boost as a sweep reads its rows and
    # runs the state stage once; every case gives the gap, smallest
    # eigenvalue and state of density_states(boost_stack(alpha, [xi]), grid)
    seen = {}

    def recorded(name):
        real = getattr(entanglement, name)

        def call(moments):
            seen[name] = real(moments)
            return seen[name]

        return call

    names = ("state_readings", "pair_states")
    _in_validation(monkeypatch, entanglement, **{name: recorded(name) for name in names})
    assert _run_group("rho_sanity", seed).passed
    tr, min_eig, gap, _ = seen["state_readings"]
    states = seen["pair_states"] / tr[:, None, None]
    # the group's draws, in its order: the beam's spread, alpha, xi
    rng = validation._group_rng(seed, "rho_sanity")
    assert len(gap) == 12
    for i in range(len(gap)):
        grid = beams.build_grid(beams.BeamSpec(rng.uniform(0.05, 1.3)), 32, 32)
        stack = sweep.boost_stack(rng.uniform(0.0, math.pi / 2), [rng.uniform(-2.0, 2.0)])
        (rho,), want_eig, want_gap, _ = beams.density_states(stack, grid)
        assert gap[i:i + 1].tobytes() == want_gap.tobytes()
        assert min_eig[i:i + 1].tobytes() == want_eig.tobytes()
        assert states[i].tobytes() == rho.tobytes()
