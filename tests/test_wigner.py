import cmath
import math

import numpy as np
import pytest

import photonboost.wigner as wigner
from conftest import angle_gap
from oracles import random_directions, random_momenta, random_stack, wigner_angle_generator
from photonboost.lorentz import (
    BOOST_Z,
    ROT_Y,
    ROT_Z,
    boost_z,
    compose,
    identity,
    null_momenta,
    rot_y,
    rot_z,
)
from photonboost.validation import frequency_angle_tolerance
from photonboost.wigner import (
    REFERENCE_MOMENTUM,
    LittleGroupError,
    boost_helicity_state,
    wigner_angle_oracle_stack,
    wigner_angle_stack,
)

K = REFERENCE_MOMENTUM
Y_DIR = null_momenta(math.pi / 2, math.pi / 2, 1.0)


def _angle(stack, p):
    """Closed-form angle of the one transform of stack at the (4,) momentum p."""
    return float(wigner_angle_stack(stack, p[:, None])[0])


def _oracle(stack, p):
    return float(wigner_angle_oracle_stack(stack, p[:, None])[0])


def test_reference_momentum_is_read_only():
    assert K.tolist() == [1.0, 0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        K[0] = 2.0


def test_boost_generator_angle_vanishes(rng):
    for p in random_momenta(rng, 50).T:
        assert wigner_angle_generator(BOOST_Z, rng.uniform(-2, 2), p) == 0.0


def test_rot_z_on_axis_gives_gamma():
    assert wigner_angle_generator(ROT_Z, 0.8, K) == 0.8


def test_rot_z_off_axis_gives_zero(rng):
    for p in random_momenta(rng, 50).T:
        if abs(p[3]) / p[0] > 1.0 - 1e-9:
            continue
        assert wigner_angle_generator(ROT_Z, rng.uniform(-3, 3), p) == 0.0


def test_rot_y_at_y_direction_gives_gamma(rng):
    # A = sin(gamma), B = cos(gamma) at theta = phi = pi/2
    for g in rng.uniform(-math.pi, math.pi, size=20):
        assert abs(wigner_angle_generator(ROT_Y, g, Y_DIR) - g) < 1e-14


def test_rot_y_on_axis_gives_zero():
    for g in (0.2, 1.0, 2.5):
        assert wigner_angle_generator(ROT_Y, g, K) == 0.0


def test_empty_factor_list_gives_zero(rng):
    assert np.all(wigner_angle_stack(identity(), random_momenta(rng, 20)) == 0.0)


def test_conjugated_boost_on_axis_aligned_beam():
    L = compose(compose(rot_y(0.0), boost_z(1.1)), rot_y(-0.0))
    assert _angle(L, K) == 0.0


def test_closed_form_pins_phi_at_the_poles():
    # at a pole the standard frame takes phi = 0; the fold once read phi
    # off atan2 there, so a signed zero gave pi and a residual azimuth
    # below POLE_TOL gave that azimuth, where the oracle gives 0
    poles = np.array([
        [1.0, -0.0, 0.0, 1.0],
        [1.0, -0.0, -0.0, -1.0],
        null_momenta(1e-13, 2.0, 1.0),
        null_momenta(math.pi - 1e-13, -2.5, 3.0),
    ]).T
    for gamma in (1.0, -1.0, 2.5):
        L = rot_y(gamma)
        gap = angle_gap(wigner_angle_stack(L, poles), wigner_angle_oracle_stack(L, poles))
        assert gap.max() < 1e-9


def test_oracle_boost_on_reference():
    assert abs(_oracle(boost_z(0.9), K)) < 1e-12


def test_oracle_rot_z_on_axis():
    assert abs(_oracle(rot_z(0.6), K) - 0.6) < 1e-12


def test_oracle_rot_y_at_y_direction():
    assert abs(_oracle(rot_y(0.75), Y_DIR) - 0.75) < 1e-12


def test_closed_form_matches_oracle(rng):
    L, p = random_stack(rng, 500), random_momenta(rng, 500)
    assert angle_gap(wigner_angle_stack(L, p), wigner_angle_oracle_stack(L, p)).max() < 1e-9


def test_composition_law(rng):
    L1 = random_stack(rng, 300, max_factors=3)
    L2 = random_stack(rng, 300, max_factors=3)
    p = random_momenta(rng, 300)
    combined = wigner_angle_stack(compose(L2, L1), p)
    stepped = wigner_angle_stack(L2, L1.apply(p)) + wigner_angle_stack(L1, p)
    assert angle_gap(combined, stepped).max() < 1e-9


def test_frequency_independence_closed_form(rng):
    L = random_stack(rng, 100)
    thetas, phis = random_directions(rng, 100)
    base = wigner_angle_stack(L, null_momenta(thetas, phis, 1.0))
    for omega in (0.1, 10.0):
        gap = angle_gap(wigner_angle_stack(L, null_momenta(thetas, phis, omega)), base)
        assert np.all(gap <= frequency_angle_tolerance(L))


def test_frequency_independence_oracle(rng):
    L = random_stack(rng, 100)
    thetas, phis = random_directions(rng, 100)
    base = wigner_angle_oracle_stack(L, null_momenta(thetas, phis, 1.0))
    for omega in (0.1, 10.0):
        gap = angle_gap(wigner_angle_oracle_stack(L, null_momenta(thetas, phis, omega)), base)
        assert gap.max() < 1e-10


def test_helicity_phase_for_pure_boost(rng):
    p = random_momenta(rng, 10)
    q, phase = boost_helicity_state(boost_z(1.7), p, +1)
    assert np.all(phase == 1.0)
    assert np.abs(q[0] - math.cosh(1.7) * p[0] - math.sinh(1.7) * p[3]).max() < 1e-12


def test_helicity_phase_for_axis_rotation():
    _, phase = boost_helicity_state(rot_z(0.5), K[:, None], +1)
    assert abs(phase[0] - cmath.exp(-0.5j)) < 1e-15


def test_opposite_helicities_conjugate(rng):
    L, p = random_stack(rng, 50), random_momenta(rng, 50)
    _, plus = boost_helicity_state(L, p, +1)
    _, minus = boost_helicity_state(L, p, -1)
    assert np.abs(plus - minus.conj()).max() < 1e-15


def test_phase_unitarity(rng):
    _, phase = boost_helicity_state(random_stack(rng, 100), random_momenta(rng, 100), +1)
    assert np.abs(np.abs(phase) - 1.0).max() < 1e-15


def test_invalid_helicity_rejected():
    with pytest.raises(ValueError):
        boost_helicity_state(identity(), K[:, None], 0)


def test_non_null_momentum_rejected():
    massive = np.array([1.0, 0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        _angle(boost_z(0.3), massive)
    with pytest.raises(ValueError):
        _oracle(boost_z(0.3), massive)


def test_non_finite_momentum_batch_rejected():
    momenta = np.array([[1.0, 1.0], [0.0, np.nan], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        wigner_angle_stack(identity(), momenta)


def test_past_pointing_momentum_rejected():
    past = np.array([-1.0, 0.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        wigner_angle_generator(BOOST_Z, 0.2, past)


def test_little_group_guard_detects_broken_standard_boost(monkeypatch, rng):
    # corrupting one of the two standard boosts destroys W k = k (scaling
    # both only conjugates W by a z boost, which k survives)
    real = wigner.standard_boosts
    calls = [0]

    def crooked(momenta):
        calls[0] += 1
        scale = 1.001 if calls[0] % 2 else 1.0
        return real(momenta * scale)

    monkeypatch.setattr(wigner, "standard_boosts", crooked)
    with pytest.raises(LittleGroupError):
        wigner_angle_oracle_stack(boost_z(0.4), random_momenta(rng, 5))


def test_angles_reported_on_principal_branch(rng):
    a = wigner_angle_stack(random_stack(rng, 100), random_momenta(rng, 100))
    assert np.all((-math.pi < a) & (a <= math.pi))
