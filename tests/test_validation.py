import math
import types

import numpy as np
import pytest

import photonboost.beams as beams
import photonboost.entanglement as entanglement
import photonboost.lorentz as lorentz
import photonboost.polarization as polarization
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


def _omega_group(seed=validation.DEFAULT_SEED):
    return _run_group("omega_independence", seed)


@pytest.mark.parametrize("seed", [5, 15, 17, 18, 21, 22])
def test_omega_independence_holds_across_seeds(seed):
    # these seeds draw angle gaps of 4 to 8 ulp(pi), which a fixed 1e-15
    # bound rejected although the fold is frequency independent
    result = _omega_group(seed)
    assert result.passed, result.detail


@pytest.mark.parametrize("seed", range(40))
def test_every_group_passes_across_seeds(seed):
    failures = [(g.name, g.detail) for g in validate(seed).groups if not g.passed]
    assert not failures


def test_report_serializes():
    report = validate()
    d = report.to_dict()
    assert d["passed"] is True
    assert set(d["groups"]) == EXPECTED_GROUPS
    for entry in d["groups"].values():
        assert set(entry) == {"passed", "detail"}


def test_sign_flip_in_rotation_angle_rule_trips_wigner_group(monkeypatch):
    real = wigner._rot_y_angle

    def flipped(gamma, cos_theta, sin_theta, phi):
        a = np.sin(gamma) * np.sin(phi)
        # flipped sign on the second term of the denominator
        b = np.sin(gamma) * cos_theta * np.cos(phi) - np.cos(gamma) * sin_theta
        return np.arctan2(a, b)

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


def test_missing_gauge_term_trips_form_equivalence(monkeypatch):
    def gauge_without_subtraction(stack, momenta, eps):
        return stack.apply(np.asarray(eps, dtype=complex))

    monkeypatch.setattr(polarization, "d_gauge_form_stack", gauge_without_subtraction)
    report = validate()
    by_name = {g.name: g for g in report.groups}
    assert not by_name["d_form_equivalence"].passed


def _drifting_rotation_form(monkeypatch):
    real = polarization.d_rotation_form_stack

    def drifting(stack, momenta, eps):
        # a transport that depends on the photon frequency p^0 by one part in 1e9
        return real(stack, momenta, eps) * (1.0 + 1e-9 * np.log(momenta[0]))

    monkeypatch.setattr(polarization, "d_rotation_form_stack", drifting)


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
    monkeypatch.setattr(
        polarization, "d_gauge_form_stack", lambda stack, p, eps: np.full(np.shape(eps), np.nan)
    )


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
        states, min_eig = real(boosts, grid)
        return states, min_eig if len(boosts) > 1 else np.full(1, np.nan)

    monkeypatch.setattr(beams, "density_states", nan_for_one_boost)


def _nan_log_negativity(monkeypatch):
    monkeypatch.setattr(
        entanglement, "log_negativity", lambda rho: np.full(np.shape(rho)[:-2], np.nan)
    )


def _nan_angle_budget(monkeypatch):
    monkeypatch.setattr(validation, "frequency_angle_tolerance", lambda L: np.nan)


def _nan_fine_grid_state(monkeypatch):
    # only the convergence group builds 128^2 grids
    real = beams.density_states

    def nan_on_fine_grid(boosts, grid):
        states, min_eig = real(boosts, grid)
        if len(grid) == 128 * 128:
            states = np.full_like(states, np.nan)
        return states, min_eig

    monkeypatch.setattr(beams, "density_states", nan_on_fine_grid)


@pytest.mark.parametrize(
    "group, inject",
    [
        ("metric", _nan_metric_residuals),
        ("wigner_oracle", _nan_oracle_angles),
        ("d_form_equivalence", _nan_gauge_form),
        ("composition_laws", _nan_composed_angles),
        ("composition_laws", _nan_factors),
        ("rho_sanity", _nan_min_eigenvalue),
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


# The draws of the case loop that validate ran before its groups were
# stacked, written out call by call: the stacked groups must consume their
# generators in exactly this order, so validate --seed N reports what it
# always reported.


def _scalar_transform(rng, max_factors=5, max_rapidity=0.6):
    for _ in range(int(rng.integers(1, max_factors + 1))):
        boost = int(rng.integers(0, 3)) == 0
        bound = max_rapidity if boost else math.pi
        rng.uniform(-bound, bound)


def _scalar_direction(rng):
    rng.uniform(-1.0, 1.0)
    rng.uniform(0.0, 2.0 * math.pi)


def _scalar_momentum(rng):
    rng.uniform(math.log(0.5), math.log(2.0))
    _scalar_direction(rng)


def _scalar_polarization(rng):
    rng.normal(size=2)
    rng.normal(size=2)


def _scalar_draws_metric(rng, cases):
    for _ in range(cases):
        _scalar_transform(rng)
        _scalar_momentum(rng)


def _scalar_draws_d_forms(rng, cases):
    for _ in range(cases):
        _scalar_transform(rng)
        _scalar_direction(rng)
        rng.uniform(np.log(0.5), np.log(2.0))
        _scalar_polarization(rng)


def _scalar_draws_composition(rng, cases):
    for _ in range(cases):
        _scalar_transform(rng, max_factors=3)
        _scalar_transform(rng, max_factors=3)
        _scalar_momentum(rng)
        _scalar_polarization(rng)


def _scalar_draws_omega(rng, cases):
    for _ in range(cases):
        _scalar_transform(rng)
        _scalar_direction(rng)
    rng.choice(32 * 32, validation._OMEGA_NODES, replace=False)
    _scalar_transform(rng)


@pytest.mark.parametrize(
    "group, scalar_draws",
    [
        ("metric", _scalar_draws_metric),
        ("wigner_oracle", _scalar_draws_metric),
        ("d_form_equivalence", _scalar_draws_d_forms),
        ("composition_laws", _scalar_draws_composition),
        ("omega_independence", _scalar_draws_omega),
    ],
)
def test_stacked_group_draws_what_the_case_loop_drew(group, scalar_draws):
    # the stacked group consumes its generator exactly as the one-case-at-a-
    # time loop did
    cases = {name: n for name, _, n in validation._GROUPS}[group]
    for seed in (0, validation.DEFAULT_SEED):
        stacked = validation._group_rng(seed, group)
        {name: fn for name, fn, _ in validation._GROUPS}[group](stacked, cases)
        scalar = validation._group_rng(seed, group)
        scalar_draws(scalar, cases)
        assert stacked.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("seed", range(10))
def test_drawn_factor_lists_fold_to_random_transform_bit_for_bit(seed):
    # a drawn list folds to the same floats in a padded many-row stack as
    # alone, and the draw itself is the case loop's
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    lists = [validation._draw_factors(a, max_factors=1 + i % 5) for i in range(60)]
    for i in range(60):
        _scalar_transform(b, max_factors=1 + i % 5)
    assert a.bit_generator.state == b.bit_generator.state
    stack = lorentz.stack_from_factors(lists)
    for factors, m in zip(lists, stack.matrices):
        assert m.tobytes() == lorentz.stack_from_factors([factors]).matrix.tobytes()
