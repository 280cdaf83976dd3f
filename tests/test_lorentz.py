import functools
import math

import numpy as np
import pytest

from photonboost.lorentz import (
    BOOST_Z,
    MAX_RAPIDITY,
    ROT_Y,
    ROT_Z,
    Direction,
    FourVector,
    LorentzTransform,
    boost_z,
    compose,
    from_factors,
    identity,
    minkowski_dot,
    null_momentum,
    require_metric,
    rot_y,
    rot_z,
    rotation_to,
    standard_boost,
)
from photonboost.validation import random_null_momentum, random_transform, validate

K = FourVector(1.0, 0.0, 0.0, 1.0)


def test_boost_z_zero_rapidity_is_identity():
    assert np.abs(boost_z(0.0).matrix - np.eye(4)).max() == 0.0


def test_boost_z_ln2_doubles_reference_momentum():
    # cosh(ln 2) = 5/4 and sinh(ln 2) = 3/4, so k -> (2, 0, 0, 2)
    out = boost_z(math.log(2.0)).apply(K)
    assert np.abs(out.as_array() - [2.0, 0.0, 0.0, 2.0]).max() < 1e-14


def test_boost_z_inverse_cancels():
    prod = compose(boost_z(1.3), boost_z(-1.3))
    assert np.abs(prod.matrix - np.eye(4)).max() < 1e-14


def test_rot_y_quarter_turn_maps_z_to_x():
    out = rot_y(math.pi / 2).apply(K)
    assert np.abs(out.as_array() - [1.0, 1.0, 0.0, 0.0]).max() < 1e-15


def test_rot_z_fixes_z_axis():
    out = rot_z(0.9).apply(K)
    assert np.abs(out.as_array() - K.as_array()).max() < 1e-15


def test_rot_y_full_turn_is_identity():
    assert np.abs(rot_y(2 * math.pi).matrix - np.eye(4)).max() < 1e-12


def test_compose_with_identity():
    L = rot_y(0.4)
    assert np.abs(compose(identity(), L).matrix - L.matrix).max() == 0.0


def test_rot_z_composition_is_additive():
    assert np.abs(compose(rot_z(0.3), rot_z(0.9)).matrix - rot_z(1.2).matrix).max() < 1e-12


def test_compose_concatenates_factors():
    assert compose(boost_z(0.5), rot_y(0.2)).factors == ((BOOST_Z, 0.5), (ROT_Y, 0.2))


def test_minkowski_dot_null_reference():
    assert minkowski_dot(K, K) == 0.0


def test_minkowski_dot_timelike_unit():
    e0 = FourVector(1.0, 0.0, 0.0, 0.0)
    assert minkowski_dot(e0, e0) == 1.0


def test_minkowski_dot_invariance(rng):
    for _ in range(200):
        L = random_transform(rng)
        u = random_null_momentum(rng)
        v = FourVector.from_array(rng.normal(size=4))
        before = minkowski_dot(u, v)
        after = minkowski_dot(L.apply(u), L.apply(v))
        assert abs(after - before) < 1e-10


def test_rotation_to_pole_is_identity():
    assert np.abs(rotation_to(Direction(0.0, 0.0)).matrix - np.eye(4)).max() == 0.0


def test_rotation_to_equator_x():
    out = rotation_to(Direction(math.pi / 2, 0.0)).apply(FourVector(0, 0, 0, 1))
    assert np.abs(out.as_array() - [0.0, 1.0, 0.0, 0.0]).max() < 1e-15


def test_rotation_to_equator_y():
    out = rotation_to(Direction(math.pi / 2, math.pi / 2)).apply(FourVector(0, 0, 0, 1))
    assert np.abs(out.as_array() - [0.0, 0.0, 1.0, 0.0]).max() < 1e-15


def test_standard_boost_unit_along_z_is_identity():
    assert np.abs(standard_boost(Direction(0.0), 1.0).matrix - np.eye(4)).max() == 0.0


def test_standard_boost_magnitude_two():
    out = standard_boost(Direction(0.0), 2.0).apply(K)
    assert np.abs(out.as_array() - [2.0, 0.0, 0.0, 2.0]).max() < 1e-14


def test_standard_boost_pure_rotation_case(rng):
    for _ in range(20):
        d = Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        out = standard_boost(d, 1.0).apply(K)
        want = np.concatenate([[1.0], d.unit_vector()])
        assert np.abs(out.as_array() - want).max() < 1e-14


def test_standard_boost_maps_reference_to_momentum(rng):
    for _ in range(200):
        d = Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        m = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        got = standard_boost(d, m).apply(K).as_array()
        want = np.concatenate([[m], m * d.unit_vector()])
        assert np.abs(got - want).max() < 1e-10


def test_metric_preservation_and_factor_consistency(rng):
    for _ in range(300):
        L = random_transform(rng)
        assert L.metric_residual() < 1e-12
        assert L.factor_residual() < 1e-12


def test_null_vectors_stay_null(rng):
    for _ in range(300):
        L = random_transform(rng)
        q = L.apply(random_null_momentum(rng))
        assert abs(minkowski_dot(q, q)) < 1e-10


def test_inverse_reverses_and_negates_factors():
    L = compose(compose(rot_y(0.3), boost_z(0.7)), rot_z(-0.2))
    inv = L.inverse()
    assert inv.factors == (("rot_z", 0.2), ("boost_z", -0.7), ("rot_y", -0.3))
    assert np.abs(inv.matrix @ L.matrix - np.eye(4)).max() < 1e-12


def test_inverse_roundtrip_random(rng):
    for _ in range(100):
        L = random_transform(rng)
        assert np.abs(L.inverse().matrix @ L.matrix - np.eye(4)).max() < 1e-11


def test_direction_pole_pins_phi_to_zero():
    assert Direction(0.0, 1.2).phi == 0.0
    assert Direction(math.pi, 5.0).phi == 0.0


def test_direction_wraps_phi():
    d = Direction(1.0, 2 * math.pi + 0.25)
    assert abs(d.phi - 0.25) < 1e-12


def test_direction_unit_vector_normalized(rng):
    for _ in range(100):
        d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(np.linalg.norm(d.unit_vector()) - 1.0) < 1e-12


def test_direction_from_vector_roundtrip(rng):
    for _ in range(100):
        d = Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        d2 = Direction.from_vector(d.unit_vector())
        assert abs(d.theta - d2.theta) < 1e-12
        assert abs(d.phi - d2.phi) < 1e-10


def test_direction_rejects_bad_theta():
    with pytest.raises(ValueError):
        Direction(-0.1, 0.0)
    with pytest.raises(ValueError):
        Direction(math.pi + 0.1, 0.0)


def test_four_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        FourVector(math.inf, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        FourVector(math.nan, 0.0, 0.0, 0.0)


def test_boost_z_rejects_non_finite():
    with pytest.raises(ValueError):
        boost_z(math.inf)


def test_standard_boost_rejects_non_positive_magnitude():
    with pytest.raises(ValueError):
        standard_boost(Direction(0.0), 0.0)
    with pytest.raises(ValueError):
        standard_boost(Direction(0.0), -1.0)


def test_null_momentum_rejects_non_positive_magnitude():
    with pytest.raises(ValueError):
        null_momentum(Direction(0.3, 0.1), 0.0)


def test_transform_guard_rejects_non_lorentz_matrix():
    with pytest.raises(ValueError):
        LorentzTransform(2.0 * np.eye(4), ())


def _with_entry(matrix, index, value):
    m = np.array(matrix)
    m[index] = value
    return m


_ROTATION = rot_y(0.7).matrix


@pytest.mark.parametrize(
    "matrix, factors, message",
    [
        (_with_entry(np.eye(4), (1, 2), math.nan), (), "non-finite"),
        (_with_entry(np.eye(4), (0, 0), math.inf), (), "non-finite"),
        (_with_entry(np.eye(4), (3, 1), -math.inf), (), "non-finite"),
        (np.eye(3), (), "4x4"),
        (np.eye(4), (("boost_x", 0.1),), "unknown generator kind"),
        (np.eye(4), ((ROT_Y, math.nan),), "must be finite"),
        (np.eye(4), ((BOOST_Z, 15.5),), "rapidity"),
        (_with_entry(_ROTATION, (1, 3), _ROTATION[1, 3] + 1e-6), ((ROT_Y, 0.7),), "metric"),
        (1e200 * np.eye(4), (), "metric"),
    ],
    ids=[
        "nan", "+inf", "-inf", "3x3", "unknown-kind", "nan-factor", "rapidity-factor",
        "perturbed-rotation",
        "overflowing-residual",
    ],
)
def test_transform_guard_rejects_each_defect(matrix, factors, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        LorentzTransform(matrix, factors)


def test_stack_guard_rejects_an_overflowing_residual():
    stack = np.stack([np.eye(4), 1e200 * np.eye(4)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="metric"):
        require_metric(stack)


def test_transform_guard_accepts_the_largest_rapidity():
    for xi in (MAX_RAPIDITY, -MAX_RAPIDITY):
        for L in (boost_z(xi), from_factors(((ROT_Y, 0.4), (BOOST_Z, xi), (ROT_Y, -0.4)))):
            assert L.factor_residual() == 0.0
    with pytest.raises(ValueError):
        boost_z(math.nextafter(MAX_RAPIDITY, math.inf))


def test_from_factors_rejects_unknown_kind_and_non_finite_parameter():
    with pytest.raises(ValueError):
        from_factors(((ROT_Y, 0.1), ("boost_x", 0.2)))
    with pytest.raises(ValueError):
        from_factors(((ROT_Z, math.inf),))


def test_from_factors_matches_the_compose_chain_bit_for_bit(rng):
    generators = {BOOST_Z: boost_z, ROT_Y: rot_y, ROT_Z: rot_z}
    for _ in range(300):
        factors = random_transform(rng, max_rapidity=3.0).factors
        chain = functools.reduce(
            compose, (generators[k](par) for k, par in factors), identity()
        )
        L = from_factors(factors)
        assert L.factors == chain.factors
        assert L.matrix.tobytes() == chain.matrix.tobytes()


def test_transform_matrix_is_a_read_only_copy():
    m = np.eye(4)
    L = LorentzTransform(m, ())
    m[0, 0] = 2.0
    assert L.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        L.matrix[0, 0] = 3.0


def test_validate_builds_at_most_8000_transforms(monkeypatch):
    # one guarded construction per transform, not one per generator
    # factor: validate built 23,545 before from_factors and 7,481 after
    built = [0]
    real = LorentzTransform.__post_init__

    def counted(self):
        built[0] += 1
        real(self)

    monkeypatch.setattr(LorentzTransform, "__post_init__", counted)
    assert validate().passed
    assert 0 < built[0] <= 8000
