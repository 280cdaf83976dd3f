import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import trapezoid

from conftest import concatenated
from oracles import (
    deep_boost_limit_density,
    direct_double_sum_density,
    expanded_rule,
    helicity_route_density,
    narrow_beam_coefficient,
    pair_kernel,
    rotation_form_density,
    rotation_form_pair_basis,
)
from photonboost import beams
from photonboost.beams import (
    BeamSpec,
    QuadratureGrid,
    angular_weight,
    build_grid,
    reduced_density,
    transport,
    transported_moments,
)
from photonboost.entanglement import log_negativity, log_negativity_from_spectrum
from oracles import random_directions, random_stack, transported_hv
from photonboost.lorentz import TransformStack, compose, identity, null_momenta, rot_y, rot_z
from photonboost.sweep import SweepConfig, boost_stack, make_boost, run_sweep
from photonboost.wigner import h_vec_stack, v_vec_stack

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
    # phi_j for j = 0 ... n_phi // 2 are stored; the rest are images
    grid = build_grid(BeamSpec(1.0), 12, 7)
    assert len(grid) == 12 * (7 // 2 + 1)
    assert len(grid.weights) == len(grid.thetas) == len(grid.phis) == 12 * 4
    assert grid.vectors.shape == (4, 3, 12 * 4)
    assert len(expanded_rule(grid)[0]) == 2 * 12 * 4


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


_RULE_SIZES = [*range(2, 21), 64, 96, 128, 192, 384]


@pytest.mark.parametrize("n", _RULE_SIZES)
def test_gauss_legendre_rule_matches_leggauss(n):
    x, w = beams._gauss_legendre(n)
    want_x, want_w = leggauss(n)
    assert np.abs(x - want_x).max() < 1e-15
    assert np.abs(w - want_w).max() < 1e-13


@pytest.mark.parametrize("n", _RULE_SIZES)
def test_gauss_legendre_rule_is_symmetric_and_exact_to_degree_2n_minus_1(n):
    x, w = beams._gauss_legendre(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert abs(w.sum() - 2.0) < 1e-15
    j = np.arange(n)
    moments = (x[:, None] ** (2 * j)).T @ w
    assert np.abs(moments - 2.0 / (2 * j + 1)).max() < 1e-15


def test_gauss_legendre_rule_memory_stays_bounded():
    # leggauss(4096) solves a dense 4096 x 4096 companion matrix and peaks at 135 MB
    tracemalloc.start()
    try:
        x, w = beams._gauss_legendre(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert abs(w.sum() - 2.0) < 1e-15 and np.all(np.diff(x) > 0.0)


def _full_rule(spec, n_theta, n_phi):
    """The whole n_theta x n_phi rule, every phi_j once, built without build_grid."""
    x, w = beams._gauss_legendre(n_theta)
    thetas = (x + 1.0) * (math.pi / 2.0)
    weights = np.outer(w * angular_weight(thetas, spec), np.ones(n_phi)).ravel()
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    return QuadratureGrid(weights / weights.sum(), np.repeat(thetas, n_phi), np.tile(phis, n_theta))


@pytest.mark.parametrize("n_phi", [7, 5, 16])
def test_grid_stores_the_half_rule_with_mirror_plane_nodes_once(n_phi):
    spec = BeamSpec(0.9)
    full = _full_rule(spec, 6, n_phi)
    grid = build_grid(spec, 6, n_phi)
    kept = n_phi // 2 + 1
    j = np.arange(kept)
    images = np.where((j == 0) | (2 * j == n_phi), 1.0, 2.0)
    want = full.weights.reshape(6, n_phi)[:, :kept] * images
    assert np.abs(grid.weights.reshape(6, kept) - want).max() < 1e-16
    assert np.array_equal(grid.phis.reshape(6, kept), full.phis.reshape(6, n_phi)[:, :kept])
    assert np.array_equal(grid.thetas, np.repeat(full.thetas[::n_phi], kept))


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
    m = _blocks(transported_moments(identity(), grid)[0])["hh"]
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert np.abs(m - want).max() < 1e-5


def test_moment_matrix_conjugate_symmetry(rng):
    spec = BeamSpec(0.9)
    grid = build_grid(spec, 24, 24)
    blocks = _blocks(transported_moments(make_boost(0.6, 1.1), grid)[0])
    for a in "hv":
        for b in "hv":
            assert np.abs(blocks[a + b].T - blocks[b + a]).max() < 1e-14


def test_moment_matrix_traces_are_unit():
    # unit-norm transported vectors against normalized weights give each
    # like-basis moment matrix unit trace (this is what makes the assembled
    # pair state come out with trace one)
    spec = BeamSpec(1.2)
    grid = build_grid(spec, 24, 24)
    blocks = _blocks(transported_moments(make_boost(1.0, -0.8), grid)[0])
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
    states = beams.density_states(L, grid)[0]
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
    # rotation form both against wigner.d_rotation_form_stack, called
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
    assert grid.vectors.shape == (4, 3, 6 * (5 // 2 + 1))
    amp = np.sqrt(grid.weights)
    thetas, phis = grid.thetas, grid.phis
    assert np.abs(grid.vectors[:, 0] - null_momenta(thetas, phis, 1.0)).max() < 1e-15
    assert np.abs(grid.vectors[:, 1] - amp * h_vec_stack(thetas, phis)).max() < 1e-15
    assert np.abs(grid.vectors[:, 2] - amp * v_vec_stack(thetas, phis)).max() < 1e-15


def _mirrored_vectors(grid):
    """The stored node vectors of the images (theta, -phi): y components and v negated."""
    out = grid.vectors * np.array([1.0, 1.0, -1.0, 1.0])[:, None, None]
    out[:, 2] *= -1.0
    return out


def _gram(stack, vectors):
    x = transport(stack.matrices, vectors).reshape(len(stack), 6, vectors.shape[-1])
    return x @ np.swapaxes(x, 1, 2)


@pytest.mark.parametrize("n_phi", [7, 16])
def test_fold_of_x_z_plane_boosts_is_the_gram_of_the_mirrored_vectors(n_phi):
    # these boosts commute with y -> -y, so the images need no transport
    # of their own; the fold must still equal transporting them, bit for bit
    grid = build_grid(BeamSpec(1.1), 10, n_phi)
    mirrored = _mirrored_vectors(grid)
    amp, thetas, phis = np.sqrt(grid.weights), grid.thetas, -grid.phis
    assert np.abs(mirrored[:, 0] - null_momenta(thetas, phis, 1.0)).max() < 1e-15
    assert np.abs(mirrored[:, 1] - amp * h_vec_stack(thetas, phis)).max() < 1e-15
    assert np.abs(mirrored[:, 2] - amp * v_vec_stack(thetas, phis)).max() < 1e-15
    xis = np.linspace(-12.0, 12.0, 9)
    for boosts in (
        boost_stack(0.7, xis),
        boost_stack(-2.9, xis),
        concatenated([make_boost(a, xi) for a in (0.0, 1.2, 3.0) for xi in xis]),
    ):
        want = 0.5 * (_gram(boosts, grid.vectors) + _gram(boosts, mirrored))
        assert transported_moments(boosts, grid).tobytes() == want.tobytes()


_ROTATIONS = (rot_z(0.4), rot_z(-2.5), compose(rot_z(1.1), rot_y(0.8)))


def _fold_cases(rng):
    """Rotations that mix y with x, then random one-transform stacks."""
    drawn = random_stack(rng, 5)
    rows = [
        TransformStack(drawn.kinds[i:i + 1], drawn.params[i:i + 1], drawn.matrices[i:i + 1])
        for i in range(len(drawn))
    ]
    return list(_ROTATIONS) + rows


@pytest.mark.parametrize("n_phi", [7, 5, 16])
def test_fold_of_general_stacks_matches_the_expanded_rule_double_sum(rng, n_phi):
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 6, n_phi)
    full = _full_rule(spec, 6, n_phi)
    cases = _fold_cases(rng)
    states = beams.density_states(concatenated(cases), grid)[0]
    for L, rho in zip(cases, states):
        # the expanded rule of the stored grid, and the whole rule built
        # independently, on which the mirror-plane nodes appear once
        assert np.abs(rho - direct_double_sum_density(L, grid, 1.0)).max() <= 1e-13
        assert np.abs(rho - direct_double_sum_density(L, full, 1.0)).max() <= 1e-13


def test_transport_count_is_half_the_rule_for_sweeps_and_doubles_otherwise(monkeypatch, rng):
    rows, nodes = [], []
    real = beams.transport

    def counting(boosts, vectors):
        rows.append(len(boosts))
        nodes.append(vectors.shape[-1])
        return real(boosts, vectors)

    monkeypatch.setattr(beams, "transport", counting)
    cfg = SweepConfig(alpha=0.9, sigma_theta=1.0, xi_steps=61, n_theta=24, n_phi=17)
    run_sweep(cfg)
    assert sum(rows) == 61 and set(nodes) == {24 * (17 // 2 + 1)}
    rows.clear()
    grid = build_grid(BeamSpec(1.0), 24, 16)
    beams.density_states(make_boost(0.3, 1.0), grid)
    assert sum(rows) == 1
    rows.clear()
    rotations = concatenated(_ROTATIONS)
    beams.density_states(rotations, grid)
    assert sum(rows) == 2 * len(rotations)
    # a drawn transform may commute with y -> -y (a lone rot_y, say): only
    # transforms whose y row or column is off the diagonal go twice
    rows.clear()
    drawn = random_stack(rng, 40)
    m = drawn.matrices
    mixes_y = (np.count_nonzero(m[:, 2], axis=1) + np.count_nonzero(m[:, :, 2], axis=1)) > 2
    beams.density_states(drawn, grid)
    assert sum(rows) == len(drawn) + np.count_nonzero(mixes_y)
    assert np.count_nonzero(mixes_y) > len(drawn) // 2


def test_density_states_frees_each_transported_array_before_the_next():
    # from 64^2 up each _gram step transports one boost; holding the last
    # step's array while the next is built peaked at 2.2 times the grid's
    # stored vectors, freeing it first peaks at 1.7 times
    grid = build_grid(BeamSpec(1.0), 384, 384)
    stack = boost_stack(0.7, np.linspace(-1.0, 1.0, 3))
    tracemalloc.start()
    try:
        beams.density_states(stack, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * grid.vectors.nbytes


def test_grid_compares_and_hashes_by_identity():
    grid = build_grid(BeamSpec(1.0), 8, 8)
    assert grid == grid and grid != build_grid(BeamSpec(1.0), 8, 8)
    assert {grid: 1}[grid] == 1


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


def test_trace_gap_is_read_before_normalization():
    raw = np.zeros((2, 9, 9))
    raw[:, 0, 0] = 1.0
    raw[1, 0, 0] = 1.0 + 5e-9
    states, _, gap, _ = beams._guarded_states(raw)
    assert gap[0] == 0.0 and gap[1] == pytest.approx(5e-9, rel=1e-6)
    assert np.trace(states[1]) == 1.0


def test_psd_guard_fires_below_minus_1e_9():
    raw = np.zeros((2, 9, 9))
    raw[:, 0, 0] = 1.0
    raw[1, 0, 0], raw[1, 4, 4] = 1.0 + 2e-9, -2e-9
    with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
        beams._guarded_states(raw.copy())
    raw[1, 0, 0], raw[1, 4, 4] = 1.0 + 5e-10, -5e-10
    _, min_eig, _, _ = beams._guarded_states(raw)
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


@pytest.fixture(scope="module")
def narrow_beam_deficits():
    """1 - LN from production density_states on 256 x 32 grids, keyed (alpha, xi, sigma).

    The closed forms of narrow_beam_coefficient: alpha in {0, pi/2} at
    xi in {-2, ..., 2}, and xi = 0 at alpha = 2 pi/5.
    """
    curves = {0.0: range(-2, 3), math.pi / 2: range(-2, 3), 2 * math.pi / 5: [0]}
    deficits = {}
    for sigma in (0.005, 0.01):
        grid = build_grid(BeamSpec(sigma), 256, 32)
        for alpha, xis in curves.items():
            spectra = beams.density_states(boost_stack(alpha, list(xis)), grid)[3]
            for xi, ln in zip(xis, log_negativity_from_spectrum(spectra)):
                deficits[alpha, xi, sigma] = 1.0 - ln
    return deficits


def test_narrow_beam_deficit_richardson_limit_is_the_closed_form(narrow_beam_deficits):
    # D / sigma^2 = c + c4 sigma^2 + ..., so the Richardson combination of
    # sigma = 0.005 and 0.01 cancels the O(sigma^4) term of D; the rest is
    # at most 2.4e-6 relative (alpha = 0, xi = -2, where the boost widens
    # the beam to about sigma e^2) and 4e-8 elsewhere
    d = narrow_beam_deficits
    for alpha, xi, sigma in d:
        if sigma == 0.005:
            c = narrow_beam_coefficient(float(xi), alpha)
            c_r = (4.0 * d[alpha, xi, 0.005] / 0.005**2 - d[alpha, xi, 0.01] / 0.01**2) / 3.0
            assert abs(c_r / c - 1.0) < 1e-5, (alpha, xi, c_r, c)


def test_narrow_beam_deficit_is_c_sigma_squared(narrow_beam_deficits):
    # the raw deficit at sigma = 0.005 differs from c sigma^2 only by its
    # O(sigma^4) term: at most 6.8e-4 relative, at alpha = 0, xi = -2
    for (alpha, xi, sigma), deficit in narrow_beam_deficits.items():
        if sigma == 0.005:
            c = narrow_beam_coefficient(float(xi), alpha)
            assert abs(deficit / sigma**2 / c - 1.0) < 1e-3, (alpha, xi, deficit, c)


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
