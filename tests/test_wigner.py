import cmath
import math

import numpy as np
import pytest

import photonboost.wigner as wigner
from conftest import angle_gap
from oracles import wigner_angle_generator
from photonboost.lorentz import (
    BOOST_Z,
    ROT_Y,
    ROT_Z,
    Direction,
    FourVector,
    boost_z,
    compose,
    identity,
    null_momentum,
    rot_y,
    rot_z,
)
from photonboost.validation import (
    frequency_angle_tolerance,
    random_direction,
    random_null_momentum,
    random_transform,
)
from photonboost.wigner import (
    LittleGroupError,
    boost_helicity_state,
    wigner_angle,
    wigner_angle_oracle,
)

K = FourVector(1.0, 0.0, 0.0, 1.0)
Y_DIR = null_momentum(Direction(math.pi / 2, math.pi / 2))


def test_boost_generator_angle_vanishes(rng):
    for _ in range(50):
        p = random_null_momentum(rng)
        assert wigner_angle_generator(BOOST_Z, rng.uniform(-2, 2), p) == 0.0


def test_rot_z_on_axis_gives_gamma():
    assert wigner_angle_generator(ROT_Z, 0.8, K) == 0.8


def test_rot_z_off_axis_gives_zero(rng):
    for _ in range(50):
        p = random_null_momentum(rng)
        if abs(p.z) / p.t > 1.0 - 1e-9:
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
    assert wigner_angle(identity(), random_null_momentum(rng)) == 0.0


def test_conjugated_boost_on_axis_aligned_beam():
    L = compose(compose(rot_y(0.0), boost_z(1.1)), rot_y(-0.0))
    assert wigner_angle(L, K) == 0.0


def test_oracle_boost_on_reference():
    assert abs(wigner_angle_oracle(boost_z(0.9), K)) < 1e-12


def test_oracle_rot_z_on_axis():
    assert abs(wigner_angle_oracle(rot_z(0.6), K) - 0.6) < 1e-12


def test_oracle_rot_y_at_y_direction():
    assert abs(wigner_angle_oracle(rot_y(0.75), Y_DIR) - 0.75) < 1e-12


def test_closed_form_matches_oracle(rng):
    worst = 0.0
    for _ in range(500):
        L = random_transform(rng)
        p = random_null_momentum(rng)
        worst = max(worst, float(angle_gap(wigner_angle(L, p), wigner_angle_oracle(L, p))))
    assert worst < 1e-9


def test_composition_law(rng):
    for _ in range(300):
        L1 = random_transform(rng, max_factors=3)
        L2 = random_transform(rng, max_factors=3)
        p = random_null_momentum(rng)
        combined = wigner_angle(compose(L2, L1), p)
        stepped = wigner_angle(L2, L1.apply(p)) + wigner_angle(L1, p)
        assert angle_gap(combined, stepped) < 1e-9


def test_frequency_independence_closed_form(rng):
    for _ in range(100):
        L = random_transform(rng)
        d = random_direction(rng)
        base = wigner_angle(L, null_momentum(d, 1.0))
        for omega in (0.1, 10.0):
            gap = angle_gap(wigner_angle(L, null_momentum(d, omega)), base)
            assert gap <= frequency_angle_tolerance(L)


def test_frequency_independence_oracle(rng):
    for _ in range(100):
        L = random_transform(rng)
        d = random_direction(rng)
        base = wigner_angle_oracle(L, null_momentum(d, 1.0))
        for omega in (0.1, 10.0):
            assert angle_gap(wigner_angle_oracle(L, null_momentum(d, omega)), base) < 1e-10


def test_helicity_phase_for_pure_boost(rng):
    p = random_null_momentum(rng)
    q, phase = boost_helicity_state(boost_z(1.7), p, +1)
    assert phase == 1.0
    assert abs(q.t - math.cosh(1.7) * p.t - math.sinh(1.7) * p.z) < 1e-12


def test_helicity_phase_for_axis_rotation():
    _, phase = boost_helicity_state(rot_z(0.5), K, +1)
    assert abs(phase - cmath.exp(-0.5j)) < 1e-15


def test_opposite_helicities_conjugate(rng):
    for _ in range(50):
        L = random_transform(rng)
        p = random_null_momentum(rng)
        _, plus = boost_helicity_state(L, p, +1)
        _, minus = boost_helicity_state(L, p, -1)
        assert abs(plus - minus.conjugate()) < 1e-15


def test_phase_unitarity(rng):
    for _ in range(100):
        L = random_transform(rng)
        p = random_null_momentum(rng)
        _, phase = boost_helicity_state(L, p, +1)
        assert abs(abs(phase) - 1.0) < 1e-15


def test_invalid_helicity_rejected(rng):
    with pytest.raises(ValueError):
        boost_helicity_state(identity(), K, 0)


def test_non_null_momentum_rejected():
    massive = FourVector(1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        wigner_angle(boost_z(0.3), massive)
    with pytest.raises(ValueError):
        wigner_angle_oracle(boost_z(0.3), massive)


def test_non_finite_momentum_batch_rejected():
    momenta = np.array([[1.0, 1.0], [0.0, np.nan], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        wigner.wigner_angles(identity(), momenta)


def test_past_pointing_momentum_rejected():
    past = FourVector(-1.0, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        wigner_angle_generator(BOOST_Z, 0.2, past)


def test_little_group_guard_detects_broken_standard_boost(monkeypatch, rng):
    # corrupting one of the two standard boosts destroys W k = k (scaling
    # both only conjugates W by a z boost, which k survives)
    real = wigner.standard_boost
    calls = [0]

    def crooked(d, magnitude):
        calls[0] += 1
        scale = 1.001 if calls[0] % 2 else 1.0
        return real(d, magnitude * scale)

    monkeypatch.setattr(wigner, "standard_boost", crooked)
    with pytest.raises(LittleGroupError):
        wigner_angle_oracle(boost_z(0.4), random_null_momentum(rng))


def test_angles_reported_on_principal_branch(rng):
    for _ in range(100):
        L = random_transform(rng)
        a = wigner_angle(L, random_null_momentum(rng))
        assert -math.pi < a <= math.pi
