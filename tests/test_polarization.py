import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from oracles import (
    production_transport,
    random_cases,
    random_directions,
    random_polarizations,
    random_stack,
)
from photonboost.lorentz import (
    METRIC,
    boost_z,
    compose,
    identity,
    null_momenta,
    rot_y,
    rot_z,
)
from photonboost.wigner import d_rotation_form_stack, epsilon_stack, h_vec_stack, v_vec_stack

SQRT2 = math.sqrt(2.0)
K = np.array([[1.0], [0.0], [0.0], [1.0]])


def _spatial_norms(eps):
    return np.linalg.norm(eps[1:], axis=0)


def test_epsilon_at_pole():
    want_plus = np.array([0.0, 1.0, 1.0j, 0.0]) / SQRT2
    want_minus = np.array([0.0, 1.0, -1.0j, 0.0]) / SQRT2
    assert np.abs(epsilon_stack(0.0, 0.0, +1) - want_plus).max() < 1e-15
    assert np.abs(epsilon_stack(0.0, 0.0, -1) - want_minus).max() < 1e-15


def test_epsilon_at_equator_hand_value():
    got = epsilon_stack(math.pi / 2, 0.0, +1)
    want = np.array([0.0, 0.0, 1.0j, -1.0]) / SQRT2
    assert np.abs(got - want).max() < 1e-15


def test_epsilon_matches_independent_rotation_library(rng):
    # scipy's intrinsic z-then-y Euler rotation equals our frame rotation
    thetas, phis = random_directions(rng, 50)
    R = Rotation.from_euler("ZY", np.stack([phis, thetas], axis=1)).as_matrix()
    want = R @ (np.array([1.0, 1.0j, 0.0]) / SQRT2)
    got = epsilon_stack(thetas, phis, +1)
    assert np.abs(got[0]).max() < 1e-15
    assert np.abs(got[1:] - want.T).max() < 1e-13


def test_epsilon_invariants(rng):
    thetas, phis = random_directions(rng, 50)
    p = null_momenta(thetas, phis, 1.0)
    for lam in (+1, -1):
        eps = epsilon_stack(thetas, phis, lam)
        assert np.abs(eps[0]).max() < 1e-12
        assert np.abs(np.einsum("in,ij,jn->n", eps, METRIC, p)).max() < 1e-10
        assert np.abs(_spatial_norms(eps) - 1.0).max() < 1e-12


def test_h_vec_small_angle_limit():
    assert np.abs(h_vec_stack(0.0, 0.0) - np.array([0, 1.0, 0, 0])).max() < 1e-15


def test_v_vec_small_angle_limit():
    assert np.abs(v_vec_stack(0.0, 0.0) - np.array([0, 0, 1.0, 0])).max() < 1e-15


def test_h_v_orthonormal(rng):
    thetas, phis = random_directions(rng, 50)
    h, v = h_vec_stack(thetas, phis), v_vec_stack(thetas, phis)
    assert np.abs((h[1:].conj() * v[1:]).sum(axis=0)).max() < 1e-12
    assert np.abs(_spatial_norms(h) - 1.0).max() < 1e-12
    assert np.abs(_spatial_norms(v) - 1.0).max() < 1e-12


def test_h_v_real_components(rng):
    thetas, phis = random_directions(rng, 20)
    assert np.abs(h_vec_stack(thetas, phis).imag).max() < 1e-14
    assert np.abs(v_vec_stack(thetas, phis).imag).max() < 1e-14


def test_h_v_are_the_helicity_combinations_in_real_arithmetic(rng):
    # h = (e^{i g} eps_+ + e^{-i g} eps_-)/sqrt 2 and
    # v = -i (e^{i g} eps_+ - e^{-i g} eps_-)/sqrt 2, with g = phi off the
    # poles, and 0 at theta = 0 and 2 phi at theta = pi, where the frame
    # takes the azimuth 0; on drawn directions, both poles and a broadcast
    # (theta, phi) table
    thetas, phis = random_directions(rng, 200)
    poles = (np.array([0.0, math.pi]), np.array([0.7, -2.0]), np.array([0.0, -4.0]))
    cases = [(thetas, phis, phis), poles, (thetas[:5, None], phis[None, :7], phis[None, :7])]
    for t, f, g in cases:
        turn = np.exp(1j * g)
        plus, minus = epsilon_stack(t, f, +1), epsilon_stack(t, f, -1)
        h, v = h_vec_stack(t, f), v_vec_stack(t, f)
        assert h.dtype == v.dtype == np.float64
        assert np.abs(h - (turn * plus + turn.conj() * minus) / math.sqrt(2.0)).max() <= 1e-15
        assert np.abs(v + 1j * (turn * plus - turn.conj() * minus) / math.sqrt(2.0)).max() <= 1e-15


def test_h_v_take_their_meridian_limits_at_both_poles():
    # the frame's azimuth is pinned to 0 at a pole (sin theta < POLE_TOL),
    # and h and v keep the closed forms R_z(phi) R_y(theta) R_z(-phi) of
    # x-hat and y-hat there: x-hat and y-hat at theta = 0, whatever phi,
    # and -(cos 2 phi, sin 2 phi, 0) and (-sin 2 phi, cos 2 phi, 0) at
    # theta = pi.  Read with the frame's phi, theta = 0 gave
    # (0.540, -0.841, 0) for h at phi = 1
    phis = np.linspace(-3.0, 3.0, 13)
    for theta in (0.0, 1e-13, math.pi - 1e-13, math.pi):
        st, ct, sf, cf = math.sin(theta), math.cos(theta), np.sin(phis), np.cos(phis)
        want_h = np.stack([ct * cf * cf + sf * sf, (ct - 1.0) * sf * cf, -st * cf])
        want_v = np.stack([(ct - 1.0) * sf * cf, ct * sf * sf + cf * cf, -st * sf])
        thetas = np.full_like(phis, theta)
        assert np.abs(h_vec_stack(thetas, phis)[1:] - want_h).max() <= 1e-12, theta
        assert np.abs(v_vec_stack(thetas, phis)[1:] - want_v).max() <= 1e-12, theta
    assert np.abs(h_vec_stack(0.0, 1.0) - np.array([0, 1.0, 0, 0])).max() < 1e-15


def test_rotations_transport_by_plain_rotation(rng):
    for _ in range(20):
        rot = compose(rot_z(rng.uniform(-math.pi, math.pi)), rot_y(rng.uniform(-math.pi, math.pi)))
        thetas, phis = random_directions(rng, 5)
        eps = random_polarizations(rng, thetas, phis)
        p = null_momenta(thetas, phis, 1.0)
        assert np.abs(d_rotation_form_stack(rot, p, eps) - rot.matrix @ eps).max() < 1e-12
        assert np.abs(production_transport(rot, p, eps) - (rot.matrix @ eps)[1:]).max() < 1e-12


def test_identity_transport_is_identity(rng):
    thetas, phis = random_directions(rng, 10)
    eps = random_polarizations(rng, thetas, phis)
    p = null_momenta(thetas, phis, 1.0)
    assert np.abs(d_rotation_form_stack(identity(), p, eps) - eps).max() < 1e-13
    assert np.abs(production_transport(identity(), p, eps) - eps[1:]).max() < 1e-15


def test_gauge_form_boost_transverse_to_axis():
    # x-polarized light along z is untouched by a z boost
    eps = np.array([[0.0], [1.0], [0.0], [0.0]], dtype=complex)
    out = production_transport(boost_z(1.2), K, eps)
    assert np.abs(out - eps[1:]).max() < 1e-15


def test_transport_forms_agree(rng):
    k = 300
    L, p, eps = random_cases(rng, k, np.exp(rng.uniform(math.log(0.5), math.log(2.0), k)))
    rotated = d_rotation_form_stack(L, p, eps)
    assert np.abs(rotated[1:] - production_transport(L, p, eps)).max() < 1e-10


def test_transport_group_property(rng):
    L1, p, eps = random_cases(rng, 150, max_factors=3)
    L2 = random_stack(rng, 150, max_factors=3)
    stepped = d_rotation_form_stack(L2, L1.apply(p), d_rotation_form_stack(L1, p, eps))
    direct = d_rotation_form_stack(compose(L2, L1), p, eps)
    assert np.abs(stepped - direct).max() < 1e-9


def test_transport_outputs_zero_time_component(rng):
    L, p, eps = random_cases(rng, 100)
    # the production transport returns only the spatial part
    assert np.abs(d_rotation_form_stack(L, p, eps)[0]).max() < 1e-12


def test_transport_outputs_transverse(rng):
    L, p, eps = random_cases(rng, 100)
    out = d_rotation_form_stack(L, p, eps)
    q = L.apply(p)
    assert np.abs((out[1:] * q[1:]).sum(axis=0)).max() < 1e-9


def test_transport_preserves_norm(rng):
    L, p, eps = random_cases(rng, 100)
    out = d_rotation_form_stack(L, p, eps)
    assert np.abs(_spatial_norms(out) - _spatial_norms(eps)).max() < 1e-10


def test_gauge_form_frequency_independent(rng):
    L = random_stack(rng, 100)
    thetas, phis = random_directions(rng, 100)
    eps = random_polarizations(rng, thetas, phis)
    base = production_transport(L, null_momenta(thetas, phis, 1.0), eps)
    for omega in (0.1, 10.0):
        out = production_transport(L, null_momenta(thetas, phis, omega), eps)
        assert np.abs(out - base).max() < 1e-12


def test_non_transverse_input_rejected():
    # the production transport takes only the grid's own vectors and has no guard
    with pytest.raises(ValueError):
        d_rotation_form_stack(identity(), K, np.array([[0.0], [0.0], [0.0], [1.0]], dtype=complex))
    with pytest.raises(ValueError):
        d_rotation_form_stack(identity(), K, np.array([[0.5], [1.0], [0.0], [0.0]], dtype=complex))
