"""Property tests: the config parser, the composition invariants and the
rotation and frequency invariants of the boosted state, on generated inputs.

Hypothesis draws the inputs; deadline=None because the wall time of one
example says nothing about correctness and drifts with the host's CPU speed.
"""
import math
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import angle_gap, concatenated
from oracles import rule_of
from photonboost.beams import BeamSpec, build_grid, density_states, transported_moments
from photonboost.entanglement import log_negativity
from photonboost.lorentz import (
    BOOST_Z,
    POLE_TOL,
    ROT_Y,
    ROT_Z,
    compose,
    direction_angles,
    null_momenta,
    rot_y,
    rot_z,
    stack_from_factors,
)
from photonboost.sweep import ConfigError, SweepConfig, boost_stack
from photonboost.wigner import (
    d_rotation_form_stack,
    h_vec_stack,
    v_vec_stack,
    wigner_angle_oracle_stack,
    wigner_angle_stack,
)

# numbers, including ints beyond the float range that JSON can carry
_NUMBERS = (
    st.integers(-20, 600)
    | st.floats(-20.0, 20.0)
    | st.floats()
    | st.integers()
    | st.integers(10**308, 10**400).map(lambda n: n * (-1) ** n)
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_FIELDS = [f.name for f in fields(SweepConfig)]
_FIELD_VALUES = _NUMBERS | _JSON
_DOCUMENTS = (
    st.fixed_dictionaries(
        {"alpha": st.floats(-4.0, 4.0), "sigma_theta": st.floats(0.01, 3.2)},
        optional={n: _NUMBERS for n in _FIELDS if n not in ("alpha", "sigma_theta")},
    )
    | st.fixed_dictionaries(
        {"alpha": _FIELD_VALUES, "sigma_theta": _FIELD_VALUES},
        optional={n: _FIELD_VALUES for n in _FIELDS if n not in ("alpha", "sigma_theta")},
    )
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=12), _JSON, max_size=10)
    | _JSON
)

_FACTOR = st.tuples(st.just(BOOST_Z), st.floats(-0.6, 0.6)) | st.tuples(
    st.sampled_from((ROT_Y, ROT_Z)), st.floats(-math.pi, math.pi)
)
_FACTOR_LISTS = st.lists(_FACTOR, max_size=3)
_MOMENTA = st.builds(
    lambda theta, phi, magnitude: null_momenta(theta, phi, magnitude)[:, None],
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.5, 2.0),
)


@settings(deadline=None, max_examples=400)
@given(_DOCUMENTS)
def test_from_mapping_returns_a_config_or_raises_config_error(raw):
    try:
        cfg = SweepConfig.from_mapping(raw)
    except ConfigError:
        return
    assert isinstance(cfg, SweepConfig)
    assert len(cfg.xi_values()) == cfg.xi_steps


@settings(deadline=None, max_examples=200)
@given(_FACTOR_LISTS, _FACTOR_LISTS)
def test_from_factors_of_a_concatenation_is_the_composition(f1, f2):
    whole = stack_from_factors([f1 + f2])
    parts = compose(stack_from_factors([f1]), stack_from_factors([f2]))
    assert whole.kinds.tolist() == parts.kinds.tolist()
    assert whole.params.tolist() == parts.params.tolist()
    assert np.abs(whole.matrix - parts.matrix).max() <= 1e-12


@settings(deadline=None, max_examples=200)
@given(_FACTOR_LISTS, _FACTOR_LISTS, _MOMENTA)
# L2's last R_y carries L1 p onto +z, where phi = 0 by convention and only
# rounding gives the momentum an azimuth; the oracle gives pi
@example([(ROT_Y, 1.0), (ROT_Y, 0.5)], [(ROT_Y, 1.0), (ROT_Y, 0.5), (ROT_Z, math.pi)],
         null_momenta(0.0, 0.0, 1.0)[:, None])
# sin(theta) at POLE_TOL: rounding moves the R_z chain's momenta, and
# L1 p, across the pole test; the oracle gives 0.5
@example([(ROT_Z, 0.25), (ROT_Z, 0.25)], [(ROT_Y, 1.0)], null_momenta(1e-12, 0.0, 1.25)[:, None])
# L p is back within 1e-9 of +z, where its rounding turns the azimuth by
# 2e-8: the fold reads that last turn as the oracle does
@example([], [(ROT_Y, 1.0), (ROT_Z, math.pi), (ROT_Y, 1.0)], null_momenta(1e-9, 1.0, 1.0)[:, None])
# sin(theta) at POLE_TOL: L p rounds onto the pole and L2 (L1 p) off it, so
# their frames differ; composed 1.5 and stepped 0, from the oracle too
@example([(ROT_Z, 0.75)], [(ROT_Z, 0.75)], null_momenta(1e-12, 0.0, 1.0)[:, None])
def test_wigner_angles_add_under_composition(f1, f2, p):
    L1, L2 = stack_from_factors([f1]), stack_from_factors([f2])
    L = compose(L2, L1)
    composed = wigner_angle_stack(L, p)
    stepped = wigner_angle_stack(L2, L1.apply(p)) + wigner_angle_stack(L1, p)
    assert angle_gap(composed, wigner_angle_oracle_stack(L, p))[0] <= 1e-9
    # Theta ends in the frame of its image, so the plain law holds only
    # where the two roundings of L2 L1 p take one frame: the same pole
    # decision and the same azimuth; elsewhere the fold follows the oracle
    (theta, phi), (theta_2, phi_2) = (direction_angles(q[1:]) for q in (L.apply(p), L2.apply(L1.apply(p))))
    if (np.sin(theta) < POLE_TOL) == (np.sin(theta_2) < POLE_TOL) and angle_gap(phi, phi_2)[0] <= 1e-9:
        assert angle_gap(composed, stepped)[0] <= 1e-9
    else:
        oracle = wigner_angle_oracle_stack(L2, L1.apply(p)) + wigner_angle_oracle_stack(L1, p)
        assert angle_gap(stepped, oracle)[0] <= 1e-9


_ANGLES = st.floats(-math.pi, math.pi)
_GRID_SIDES = st.integers(16, 24)


@settings(deadline=None, max_examples=60)
@given(
    _ANGLES, _ANGLES, st.floats(0.0, math.pi / 2), st.floats(-3.0, 3.0),
    st.floats(0.1, 1.3), _GRID_SIDES, _GRID_SIDES,
)
# the boost read from its factor row and the same boost read from the
# rotated matrix must land on one rule: on an odd phi rule, turning a row
# by the azimuth of its axis end with xi >= 0 put them 6.2e-7 apart
@example(a=0.0, b=0.0, alpha=1.0, xi=-1.0, sigma=1.0, n_theta=16, n_phi=17)
def test_log_negativity_is_rotation_invariant(a, b, alpha, xi, sigma, n_theta, n_phi):
    # a rotation after the boost acts on each photon as the same local
    # orthogonal map, which no entanglement measure can see
    grid = build_grid(BeamSpec(sigma), n_theta, n_phi)
    boost = boost_stack(alpha, [xi])
    rotated = compose(compose(rot_z(a), rot_y(b)), boost)
    states = density_states(concatenated([boost, rotated]), grid)[0]
    ln = log_negativity(states)
    assert abs(ln[1] - ln[0]) <= 1e-9


@settings(deadline=None, max_examples=60)
@given(_FACTOR_LISTS, st.floats(-3.0, 3.0))
def test_rotation_form_at_any_frequency_matches_production_transport(factors, log10_omega):
    # the production table pass never sees a frequency; the rotation form
    # goes through the Wigner angle at omega * p-hat.  The pass's moments
    # are the Gram of the rotation form's vectors over the whole rule,
    # turned about z by the azimuth of L's boost axis
    grid = build_grid(BeamSpec(1.0), 16, 16)
    L = stack_from_factors([factors])
    thetas, phis, weights = rule_of(L, grid)
    p = null_momenta(thetas, phis, 10.0**log10_omega)
    basis = (h_vec_stack(thetas, phis), v_vec_stack(thetas, phis))
    x = np.stack([d_rotation_form_stack(L, p, e)[1:] for e in basis], axis=1).reshape(6, -1)
    x *= np.sqrt(weights)
    assert np.abs(transported_moments(L, grid)[0] - x @ x.T).max() <= 1e-12
