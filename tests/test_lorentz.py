import functools
import math

import numpy as np
import pytest

from oracles import random_directions, random_momenta, random_stack
from photonboost.lorentz import (
    BOOST_Z,
    MAX_RAPIDITY,
    PAD,
    METRIC,
    ROT_Y,
    ROT_Z,
    TransformStack,
    boost_z,
    compose,
    direction_angles,
    factor_residuals,
    factor_table,
    identity,
    metric_residuals,
    null_momenta,
    require_metric,
    rot_y,
    rot_z,
    rotations_to,
    stack_from_factors,
    standard_boosts,
    unit_vectors,
)
from photonboost.validation import validate
from photonboost.wigner import wigner_angle_stack

K = np.array([1.0, 0.0, 0.0, 1.0])
Z = np.array([0.0, 0.0, 0.0, 1.0])


def _column(v):
    return np.asarray(v, dtype=float)[:, None]


def _minkowski(u, v):
    """Minkowski products of paired columns of two (4, n) arrays."""
    return np.einsum("in,ij,jn->n", u, METRIC, v)


def test_boost_z_zero_rapidity_is_identity():
    assert np.abs(boost_z(0.0).matrix - np.eye(4)).max() == 0.0


def test_boost_z_ln2_doubles_reference_momentum():
    # cosh(ln 2) = 5/4 and sinh(ln 2) = 3/4, so k -> (2, 0, 0, 2)
    out = boost_z(math.log(2.0)).apply(_column(K))[:, 0]
    assert np.abs(out - [2.0, 0.0, 0.0, 2.0]).max() < 1e-14


def test_boost_z_inverse_cancels():
    prod = compose(boost_z(1.3), boost_z(-1.3))
    assert np.abs(prod.matrix - np.eye(4)).max() < 1e-14


def test_rot_y_quarter_turn_maps_z_to_x():
    out = rot_y(math.pi / 2).apply(_column(K))[:, 0]
    assert np.abs(out - [1.0, 1.0, 0.0, 0.0]).max() < 1e-15


def test_rot_z_fixes_z_axis():
    out = rot_z(0.9).apply(_column(K))[:, 0]
    assert np.abs(out - K).max() < 1e-15


def test_rot_y_full_turn_is_identity():
    assert np.abs(rot_y(2 * math.pi).matrix - np.eye(4)).max() < 1e-12


def test_compose_with_identity():
    L = rot_y(0.4)
    assert np.abs(compose(identity(), L).matrix - L.matrix).max() == 0.0


def test_rot_z_composition_is_additive():
    assert np.abs(compose(rot_z(0.3), rot_z(0.9)).matrix - rot_z(1.2).matrix).max() < 1e-12


def test_compose_concatenates_factors():
    L = compose(boost_z(0.5), rot_y(0.2))
    assert L.kinds.tolist() == [[BOOST_Z, ROT_Y]]
    assert L.params.tolist() == [[0.5, 0.2]]


def test_minkowski_dot_invariance(rng):
    L = random_stack(rng, 200)
    u = random_momenta(rng, 200)
    v = rng.normal(size=(4, 200))
    assert np.abs(_minkowski(L.apply(u), L.apply(v)) - _minkowski(u, v)).max() < 1e-10


def test_rotation_to_pole_is_identity():
    assert np.abs(rotations_to(0.0, 0.0).matrix - np.eye(4)).max() == 0.0


def test_rotation_to_equator_x():
    out = rotations_to(math.pi / 2, 0.0).apply(_column(Z))[:, 0]
    assert np.abs(out - [0.0, 1.0, 0.0, 0.0]).max() < 1e-15


def test_rotation_to_equator_y():
    out = rotations_to(math.pi / 2, math.pi / 2).apply(_column(Z))[:, 0]
    assert np.abs(out - [0.0, 0.0, 1.0, 0.0]).max() < 1e-15


def test_standard_boost_unit_along_z_is_identity():
    assert np.abs(standard_boosts(_column(K)).matrix - np.eye(4)).max() == 0.0


def test_standard_boost_magnitude_two():
    out = standard_boosts(_column(2.0 * K)).apply(_column(K))[:, 0]
    assert np.abs(out - [2.0, 0.0, 0.0, 2.0]).max() < 1e-14


def _images_of_k(stack):
    """Each transform of the stack applied to the reference momentum, as (4, k) columns."""
    return (stack.matrices @ K).T


def test_standard_boost_pure_rotation_case(rng):
    thetas, phis = random_directions(rng, 20)
    p = null_momenta(thetas, phis, 1.0)
    assert np.abs(_images_of_k(standard_boosts(p)) - p).max() < 1e-14


def test_standard_boost_maps_reference_to_momentum(rng):
    p = random_momenta(rng, 200)
    assert np.abs(_images_of_k(standard_boosts(p)) - p).max() < 1e-10


def test_metric_preservation_and_factor_consistency(rng):
    L = random_stack(rng, 300)
    assert metric_residuals(L.matrices).max() < 1e-12
    assert factor_residuals(L).max() < 1e-12


def test_transform_stack_compares_and_hashes_by_identity():
    L = rot_y(0.1)
    assert L == L and L != rot_y(0.1) and boost_z(1.0) != boost_z(1.0)
    assert {L: 1}[L] == 1


def test_null_vectors_stay_null(rng):
    L = random_stack(rng, 300)
    q = L.apply(random_momenta(rng, 300))
    assert np.abs(_minkowski(q, q)).max() < 1e-10


def test_inverse_reverses_and_negates_factors():
    L = compose(compose(rot_y(0.3), boost_z(0.7)), rot_z(-0.2))
    inv = L.inverse()
    assert inv.kinds.tolist() == [[ROT_Z, BOOST_Z, ROT_Y]]
    assert inv.params.tolist() == [[0.2, -0.7, -0.3]]
    assert np.abs(inv.matrix @ L.matrix - np.eye(4)).max() < 1e-12


def test_inverse_roundtrip_random(rng):
    L = random_stack(rng, 100)
    assert np.abs(L.inverse().matrices @ L.matrices - np.eye(4)).max() < 1e-11


def test_direction_pole_pins_phi_to_zero():
    thetas, phis = direction_angles(np.array([[1e-14, 0.0], [1e-14, 0.0], [1.0, -1.0]]))
    assert thetas[1] == math.pi
    assert phis.tolist() == [0.0, 0.0]


def test_direction_wraps_phi():
    _, phis = direction_angles(unit_vectors(1.0, -0.25))
    assert abs(phis - (2 * math.pi - 0.25)) < 1e-12


def test_direction_unit_vector_normalized(rng):
    v = unit_vectors(rng.uniform(0, math.pi, 100), rng.uniform(0, 2 * math.pi, 100))
    assert np.abs(np.linalg.norm(v, axis=0) - 1.0).max() < 1e-12


def test_direction_from_vector_roundtrip(rng):
    thetas, phis = random_directions(rng, 100)
    t2, p2 = direction_angles(3.0 * unit_vectors(thetas, phis))
    assert np.abs(thetas - t2).max() < 1e-12
    assert np.abs(phis - p2).max() < 1e-10


def test_four_vector_rejects_non_finite():
    # a momentum with a non-finite component fails the routes' null-momentum guard
    bad = [[1.0, 0.0, x, 1.0] for x in (math.inf, -math.inf, math.nan)] + [[math.inf, 0, 0, math.inf]]
    for p in bad:
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="null and future"):
            wigner_angle_stack(identity(), _column(p))


def test_boost_z_rejects_non_finite():
    with pytest.raises(ValueError):
        boost_z(math.inf)


def test_standard_boost_rejects_non_positive_magnitude():
    with pytest.raises(ValueError):
        standard_boosts(_column([0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        standard_boosts(_column(-K))


def test_null_momentum_rejects_non_positive_magnitude():
    with pytest.raises(ValueError):
        null_momenta(0.3, 0.1, 0.0)


def _one(matrix, factors=()):
    """One-transform stack of the given matrix and factor list, through the stack guard."""
    return TransformStack(*factor_table([factors]), [matrix])


def test_transform_guard_rejects_non_lorentz_matrix():
    with pytest.raises(ValueError):
        _one(2.0 * np.eye(4))


def _with_entry(matrix, index, value):
    m = np.array(matrix)
    m[index] = value
    return m


_ROTATION = rot_y(0.7).matrix


@pytest.mark.parametrize(
    "matrix, factors, message",
    [
        (_with_entry(np.eye(4), (1, 2), math.nan), (), "metric"),
        (_with_entry(np.eye(4), (0, 0), math.inf), (), "metric"),
        (_with_entry(np.eye(4), (3, 1), -math.inf), (), "metric"),
        (np.eye(3), (), r"\(1, 4, 4\) matrices"),
        (np.eye(4), (("boost_x", 0.1),), "integer codes"),
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
    # the stack constructor is the only transform guard
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
        _one(matrix, factors)


def test_stack_guard_rejects_an_overflowing_residual():
    stack = np.stack([np.eye(4), 1e200 * np.eye(4)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="metric"):
        require_metric(stack)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [(0, 0), (0, 3), (2, 0), (1, 2), (3, 3)])
def test_require_metric_rejects_non_finite_entries(index, value):
    # rows 1-3 go through the metric's sign flip, row 0 does not
    stack = np.stack([np.eye(4), _with_entry(rot_y(0.3).matrix, index, value)])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="metric"):
        require_metric(stack)


def test_metric_residuals_match_the_matmul_form_bitwise(rng):
    matrices = np.concatenate([
        random_stack(rng, 200).matrices,
        stack_from_factors([((ROT_Y, 0.4), (BOOST_Z, xi), (ROT_Y, -0.4))
                            for xi in np.linspace(-MAX_RAPIDITY, MAX_RAPIDITY, 31)]).matrices,
        rng.normal(size=(50, 4, 4)),
    ])
    want = np.abs(np.swapaxes(matrices, 1, 2) @ (METRIC @ matrices) - METRIC).max(axis=(1, 2))
    assert np.array_equal(metric_residuals(matrices), want)


def test_transform_guard_accepts_the_largest_rapidity():
    for xi in (MAX_RAPIDITY, -MAX_RAPIDITY):
        conjugated = stack_from_factors([((ROT_Y, 0.4), (BOOST_Z, xi), (ROT_Y, -0.4))])
        for L in (boost_z(xi), conjugated):
            assert factor_residuals(L)[0] == 0.0
    with pytest.raises(ValueError):
        boost_z(math.nextafter(MAX_RAPIDITY, math.inf))


def test_from_factors_rejects_unknown_kind_and_non_finite_parameter():
    with pytest.raises(ValueError, match="integer codes"):
        stack_from_factors([((ROT_Y, 0.1),), ((ROT_Y, 0.1), ("boost_x", 0.2))])
    with pytest.raises(ValueError, match="must be finite"):
        stack_from_factors([((ROT_Z, math.inf),)])


def test_from_factors_matches_the_compose_chain_bit_for_bit(rng):
    generators = {BOOST_Z: boost_z, ROT_Y: rot_y, ROT_Z: rot_z}
    drawn = random_stack(rng, 300, max_rapidity=3.0)
    for kinds, params in zip(drawn.kinds, drawn.params):
        factors = [(int(k), float(p)) for k, p in zip(kinds, params) if k != PAD]
        chain = functools.reduce(compose, (generators[k](p) for k, p in factors), identity())
        L = stack_from_factors([factors])
        for name in ("kinds", "params", "matrices"):
            assert getattr(chain, name).tobytes() == getattr(L, name).tobytes()


def test_transform_matrix_is_a_read_only_copy():
    m = np.eye(4)
    L = _one(m)
    m[0, 0] = 2.0
    assert L.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        L.matrix[0, 0] = 3.0
    with pytest.raises(ValueError, match="one-transform"):
        stack_from_factors([(), ()]).matrix


def test_validate_builds_at_most_8000_transforms(monkeypatch):
    # every transform is a row of a guarded stack: validate builds 46
    # stacks of 7,819 rows in all.  Building one guarded
    # transform per generator factor, as this package once did, took
    # 23,545 constructions per run.
    built, rows = [0], [0]
    real = TransformStack.__post_init__

    def counted(self):
        real(self)
        built[0] += 1
        rows[0] += len(self)

    monkeypatch.setattr(TransformStack, "__post_init__", counted)
    assert validate().passed
    assert 0 < built[0] <= 400
    assert 0 < rows[0] <= 8000
