import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from oracles import (
    deep_boost_limit_density,
    direct_double_sum_density,
    helicity_route_density,
    pair_kernel,
    rotation_form_density,
    rotation_form_pair_basis,
)
from photonboost import beams
from photonboost.beams import (
    BeamSpec,
    angular_weight,
    build_grid,
    reduced_density,
    transport,
    transported_moments,
)
from photonboost.entanglement import log_negativity
from oracles import random_directions, random_stack, transported_hv
from photonboost.lorentz import identity, null_momenta, rot_z
from photonboost.polarization import h_vec_stack, v_vec_stack
from photonboost.sweep import SweepConfig, make_boost, run_sweep

BELL_KERNEL = np.zeros(9)
BELL_KERNEL[0] = 1 / math.sqrt(2)  # x (x) x
BELL_KERNEL[4] = -1 / math.sqrt(2)  # y (x) y
BELL_RHO = np.outer(BELL_KERNEL, BELL_KERNEL)


def test_angular_weight_vanishes_at_poles():
    spec = BeamSpec(0.7)
    assert angular_weight(0.0, spec) == 0.0
    assert abs(angular_weight(math.pi, spec)) < 1e-15


def test_angular_weight_direct_value():
    assert abs(angular_weight(1.0, BeamSpec(1.0)) - math.exp(-1.0) * math.sin(1.0)) < 1e-15


def test_grid_weights_normalized():
    for sigma in (0.01, 0.5, 1.3):
        grid = build_grid(BeamSpec(sigma), 32, 16)
        assert abs(grid.weights.sum() - 1.0) < 1e-12
        # narrow beams underflow the Gaussian to exact zeros off axis
        assert np.all(grid.weights >= 0.0)
        assert grid.weights.max() > 0.0


def test_grid_node_count():
    grid = build_grid(BeamSpec(1.0), 12, 7)
    assert len(grid) == 12 * 7
    assert len(grid.weights) == len(grid.thetas) == len(grid.phis) == 12 * 7
    assert grid.vectors.shape == (4, 3, 12 * 7)


def test_grid_rejects_degenerate_counts():
    with pytest.raises(ValueError):
        build_grid(BeamSpec(1.0), 1, 16)
    with pytest.raises(ValueError):
        build_grid(BeamSpec(1.0), 16, 1)


def test_grid_rejects_unresolvable_beam():
    with pytest.raises(ValueError, match="underflow"):
        build_grid(BeamSpec(1e-8), 16, 8)


def test_grid_mean_theta_matches_dense_integral():
    # independent oracle: brute-force dense quadrature of the same density
    sigma = 0.01
    spec = BeamSpec(sigma)
    theta = np.linspace(0.0, math.pi, 1_000_001)
    w = angular_weight(theta, spec)
    dense_mean = trapezoid(theta * w, theta) / trapezoid(w, theta)
    grid = build_grid(spec, 256, 4)
    grid_mean = float(grid.weights @ grid.thetas)
    assert abs(grid_mean - dense_mean) < 1e-9
    # small-spread closed form sigma*sqrt(pi)/2 up to O(sigma^2)
    assert abs(grid_mean / (sigma * math.sqrt(math.pi) / 2.0) - 1.0) < 1e-3


def test_grid_doubling_stability_of_mean_cos_theta():
    spec = BeamSpec(0.5)
    coarse = build_grid(spec, 64, 8)
    fine = build_grid(spec, 128, 16)
    a = float(coarse.weights @ np.cos(coarse.thetas))
    b = float(fine.weights @ np.cos(fine.thetas))
    assert abs(a - b) < 1e-10


def _random_direction(rng):
    thetas, phis = random_directions(rng, 1)
    return thetas[0], phis[0]


def test_pair_kernel_bell_limit():
    got = pair_kernel(identity(), (0.0, 0.0), (0.0, 0.0), 1.0)
    assert np.abs(got - BELL_KERNEL).max() < 1e-14


def test_pair_kernel_unit_norm(rng):
    for _ in range(30):
        L = random_stack(rng, 1)
        got = pair_kernel(L, _random_direction(rng), _random_direction(rng), 1.0)
        assert abs(np.linalg.norm(got) - 1.0) < 1e-10


def test_pair_kernel_rotation_factorizes(rng):
    for _ in range(20):
        gamma = rng.uniform(-math.pi, math.pi)
        rot = rot_z(gamma)
        r3 = rot.matrix[1:, 1:]
        p_dir, q_dir = _random_direction(rng), _random_direction(rng)
        base = pair_kernel(identity(), p_dir, q_dir, 1.0)
        got = pair_kernel(rot, p_dir, q_dir, 1.0)
        assert np.abs(got - np.kron(r3, r3) @ base).max() < 1e-12


def _blocks(moments):
    """M_hh, M_hv, M_vh, M_vv of one 6x6 moment block (index 2i + a)."""
    return {a + b: moments[ia::2, ib::2] for ia, a in enumerate("hv") for ib, b in enumerate("hv")}


def test_moment_matrix_collapses_to_x_projector():
    spec = BeamSpec(0.001)
    grid = build_grid(spec, 64, 16)
    m = _blocks(transported_moments(identity().matrices, grid)[0])["hh"]
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert np.abs(m - want).max() < 1e-5


def test_moment_matrix_conjugate_symmetry(rng):
    spec = BeamSpec(0.9)
    grid = build_grid(spec, 24, 24)
    blocks = _blocks(transported_moments(make_boost(0.6, 1.1).matrices, grid)[0])
    for a in "hv":
        for b in "hv":
            assert np.abs(blocks[a + b].T - blocks[b + a]).max() < 1e-14


def test_moment_matrix_traces_are_unit():
    # unit-norm transported vectors against normalized weights give each
    # like-basis moment matrix unit trace (this is what makes the assembled
    # pair state come out with trace one)
    spec = BeamSpec(1.2)
    grid = build_grid(spec, 24, 24)
    blocks = _blocks(transported_moments(make_boost(1.0, -0.8).matrices, grid)[0])
    for label in ("hh", "vv"):
        assert abs(np.trace(blocks[label]) - 1.0) < 1e-12
    assert abs(np.trace(blocks["hv"])) < 1e-12


def test_reduced_density_bell_limit():
    spec = BeamSpec(0.01)
    grid = build_grid(spec, 64, 64)
    rho = reduced_density(identity(), grid, spec)
    assert np.abs(rho - BELL_RHO).max() < 1e-3


def test_reduced_density_rotation_conjugation():
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 32, 32)
    base = reduced_density(identity(), grid, spec)
    gamma = 0.77
    rot = rot_z(gamma)
    r9 = np.kron(rot.matrix[1:, 1:], rot.matrix[1:, 1:])
    got = reduced_density(rot, grid, spec)
    assert np.abs(got - r9 @ base @ r9.T).max() < 1e-10


def test_reduced_density_invariants(rng):
    for _ in range(5):
        spec = BeamSpec(rng.uniform(0.05, 1.3))
        grid = build_grid(spec, 24, 24)
        rho = reduced_density(make_boost(rng.uniform(0, math.pi / 2), rng.uniform(-2, 2)), grid, spec)
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.abs(rho - rho.T).max() < 1e-10
        assert np.linalg.eigvalsh(rho)[0] >= -1e-9


def test_reduced_density_is_the_read_only_one_row_case_of_density_states():
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 64, 64)
    L = make_boost(0.0, 2.0)
    rho = reduced_density(L, grid, spec)
    assert rho.shape == (9, 9) and rho.dtype == float
    assert not rho.flags.writeable
    states, _ = beams.density_states(L.matrices, grid)
    assert rho.tobytes() == states[0].tobytes()


def test_factorized_matches_direct_double_sum():
    spec = BeamSpec(0.8)
    grid = build_grid(spec, 4, 4)
    L = make_boost(0.9, 0.7)
    fast = reduced_density(L, grid, spec)
    slow = direct_double_sum_density(L, grid, 1.0)
    assert np.abs(fast - slow).max() < 1e-10


def test_helicity_route_matches_hv_route():
    spec = BeamSpec(1.1)
    grid = build_grid(spec, 12, 12)
    L = make_boost(1.1, -0.9)
    hv = reduced_density(L, grid, spec)
    hel = helicity_route_density(L, grid, 1.0)
    assert np.abs(hv - hel).max() < 1e-10


def test_bulk_transport_matches_scalar_rotation_form(rng):
    # the production gauge-form transport and the oracle's written-out
    # rotation form both against polarization.d_rotation_form_stack, called
    # node by node
    for _ in range(5):
        L = random_stack(rng, 1)
        thetas, phis = random_directions(rng, 20)
        p = null_momenta(thetas, phis, 1.0)
        vectors = np.stack([p, h_vec_stack(thetas, phis).real, v_vec_stack(thetas, phis).real], axis=1)
        (xh, xv), = transport(L.matrices, vectors).transpose(0, 2, 1, 3)
        rh, rv = rotation_form_pair_basis(L, thetas, phis, 1.0)
        for i in range(len(thetas)):
            want_h, want_v = transported_hv(L, thetas[i], phis[i], 1.0)
            for got_h, got_v in ((xh, xv), (rh, rv)):
                assert np.abs(got_h[:, i] - want_h[:, 0]).max() < 1e-12
                assert np.abs(got_v[:, i] - want_v[:, 0]).max() < 1e-12


def test_grid_vectors_are_weighted_closed_form_h_v():
    spec = BeamSpec(0.9)
    grid = build_grid(spec, 6, 5)
    amp = np.sqrt(grid.weights)
    thetas, phis = grid.thetas, grid.phis
    assert np.abs(grid.vectors[:, 0] - null_momenta(thetas, phis, 1.0)).max() < 1e-15
    assert np.abs(grid.vectors[:, 1] - amp * h_vec_stack(thetas, phis)).max() < 1e-15
    assert np.abs(grid.vectors[:, 2] - amp * v_vec_stack(thetas, phis)).max() < 1e-15


def test_ln_matches_rotation_form_route_up_to_rapidity_12():
    # the production sweep on the fig3 sigma = 1.3 preset grid, where the
    # wide beam makes the transport do the most work, against the rotation
    # form; the gap stays below 5e-13 on this range
    cfg = SweepConfig(alpha=2 * math.pi / 5, sigma_theta=1.3, xi_min=-12.0, xi_max=12.0,
                      xi_steps=25, n_theta=96, n_phi=96)
    spec = BeamSpec(cfg.sigma_theta)
    grid = build_grid(spec, cfg.n_theta, cfg.n_phi)
    for row in run_sweep(cfg):
        want = log_negativity(rotation_form_density(make_boost(cfg.alpha, row.xi), grid, 1.0))
        assert abs(row.log_negativity - want) < 1e-12, row.xi


def test_trace_guard_fires_on_a_broken_transport():
    raw = np.zeros((3, 9, 9))
    raw[:, 0, 0] = 1.0
    raw[1, 0, 0] = 1.0 + 2e-8
    with pytest.raises(np.linalg.LinAlgError, match="trace"):
        beams._guarded_states(raw)
    raw[1, 0, 0] = 1.0 + 5e-9
    beams._guarded_states(raw)


def test_psd_guard_fires_below_minus_1e_9():
    raw = np.zeros((2, 9, 9))
    raw[:, 0, 0] = 1.0
    raw[1, 0, 0], raw[1, 4, 4] = 1.0 + 2e-9, -2e-9
    with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
        beams._guarded_states(raw.copy())
    raw[1, 0, 0], raw[1, 4, 4] = 1.0 + 5e-10, -5e-10
    _, min_eig = beams._guarded_states(raw)
    assert min_eig[1] == pytest.approx(-5e-10, abs=1e-15)


def test_missing_gauge_term_trips_the_trace_guard(monkeypatch):
    # boosting e without the gauge subtraction leaves a time component and
    # the wrong spatial norm, which the unnormalized trace exposes
    def raw_boost(boosts, vectors):
        k, (_, cols, n) = len(boosts), vectors.shape
        lv = (boosts @ vectors.reshape(4, cols * n)).reshape(k, 4, cols, n)
        return np.ascontiguousarray(lv[:, 1:, 1:])

    monkeypatch.setattr(beams, "transport", raw_boost)
    spec = BeamSpec(1.0)
    with pytest.raises(np.linalg.LinAlgError, match="trace"):
        reduced_density(make_boost(0.7, 1.5), build_grid(spec, 16, 16), spec)


def test_density_grid_doubling_within_moderate_rapidity():
    # entrywise stability of the 64 -> 128 refinement; |xi| <= 2 keeps the
    # boosted integrand resolved (acceptance covers |xi| = 3 in LN terms)
    for sigma in (0.5, 1.0, 1.3):
        spec = BeamSpec(sigma)
        coarse = build_grid(spec, 64, 64)
        fine = build_grid(spec, 128, 128)
        for xi in (0.0, 2.0, -2.0):
            L = make_boost(2 * math.pi / 5, xi)
            a = reduced_density(L, coarse, spec)
            b = reduced_density(L, fine, spec)
            assert np.abs(a - b).max() < 1e-6


@pytest.mark.parametrize("sigma", [1.0, 1.3])
@pytest.mark.parametrize("n", [64, 96])
def test_deep_boost_converges_to_closed_form_limit(sigma, n):
    # the transported vectors approach their limit like e^xi, so at
    # xi = -12 every entry sits within about 4e-6 of the limiting state
    alpha = 2 * math.pi / 5
    spec = BeamSpec(sigma)
    grid = build_grid(spec, n, n)
    rho = reduced_density(make_boost(alpha, -12.0), grid, spec)
    assert np.abs(rho - deep_boost_limit_density(alpha, grid)).max() < 1e-5


def test_density_frequency_independence():
    # reduced_density never sees a frequency, so comparing it at two
    # frequencies shows nothing; the rotation-form oracle transports at
    # momenta omega * p-hat through the Wigner angle, where a frequency
    # dependence would show
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 32, 32)
    L = make_boost(0.8, 1.3)
    a = reduced_density(L, grid, spec)
    for omega in (0.1, 10.0):
        b = rotation_form_density(L, grid, omega)
        assert np.abs(a - b).max() < 1e-12


def test_beam_spec_validation():
    with pytest.raises(ValueError):
        BeamSpec(0.0)
    with pytest.raises(ValueError):
        BeamSpec(3.5)
    with pytest.raises(TypeError):
        BeamSpec(1.0, p0=1.0)  # the shell momentum is not a beam parameter
