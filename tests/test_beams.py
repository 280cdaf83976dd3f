import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import trapezoid

from conftest import concatenated
from oracles import (
    aberration_tables,
    deep_boost_limit_density,
    direct_double_sum_density,
    expanded_rule,
    helicity_route_density,
    narrow_beam_coefficient,
    node_vectors,
    pair_kernel,
    rotation_form_density,
    rotation_form_pair_basis,
)
from photonboost import beams, entanglement
from photonboost.beams import (
    ROWS_PER_BLOCK,
    BeamSpec,
    QuadratureGrid,
    angular_weight,
    build_grid,
    reduced_density,
    transported_moments,
)
from photonboost.entanglement import log_negativity, log_negativity_from_spectrum, state_readings
from oracles import (
    closed_form_vectors,
    gauge_form_moments,
    gauge_form_transport,
    random_directions,
    random_momenta,
    random_polarizations,
    random_stack,
    stored_rule,
    transport,
    transported_hv,
)
from photonboost.lorentz import (
    TransformStack,
    boost_z,
    compose,
    direction_angles,
    identity,
    rot_y,
    rot_z,
)
from photonboost.sweep import SweepConfig, boost_stack, make_boost, run_sweep, run_sweeps

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
        weights = stored_rule(grid)[2]
        assert abs(weights.sum() - 1.0) < 1e-12
        for rule in (grid.theta_weights, grid.phi_weights):
            assert abs(rule.sum() - 1.0) < 1e-12
        # narrow beams underflow the Gaussian to exact zeros off axis
        assert np.all(weights >= 0.0)
        assert weights.max() > 0.0


@pytest.mark.parametrize("sigma", [0.05, 0.1])
def test_narrow_beam_tables_hold_no_subnormal_entry(sigma):
    # with the theta weights below sqrt(tiny) kept, fig3's sigma = 0.1 on
    # 64^2 put 411 subnormal entries in its table (and 0.05 four), and
    # each matrix product of the node sums over it took about four times
    # as long as over a table of normal numbers
    grid = build_grid(BeamSpec(sigma), 64, 64)
    tiny = np.finfo(float).tiny
    assert abs(grid.theta_weights.sum() - 1.0) <= 1e-12
    assert not np.any((grid.theta_weights > 0.0) & (grid.theta_weights < math.sqrt(tiny)))
    for alpha in (0.0, 0.7, 2 * math.pi / 5, math.pi / 2):
        for table, t2 in beams._aberration_tables(beams.in_plane_axes(alpha), grid):
            for entries in (table, t2):
                assert not np.any((entries != 0.0) & (np.abs(entries) < tiny)), alpha


def test_grid_node_count():
    # phi_j for j = 0 ... n_phi // 2 are stored; the rest are images
    grid = build_grid(BeamSpec(1.0), 12, 7)
    assert len(grid) == 12 * (7 // 2 + 1)
    assert grid.thetas.shape == grid.theta_weights.shape == (12,)
    assert grid.phis.shape == grid.phi_weights.shape == (4,)
    # the grid is its two 1-d rules and keeps nothing derived from them
    assert [f.name for f in dataclasses.fields(QuadratureGrid)] == [
        "thetas", "theta_weights", "phis", "phi_weights"
    ]
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
    grid_mean = float(grid.theta_weights @ grid.thetas)
    assert abs(grid_mean - dense_mean) < 1e-9
    # small-spread closed form sigma*sqrt(pi)/2 up to O(sigma^2)
    assert abs(grid_mean / (sigma * math.sqrt(math.pi) / 2.0) - 1.0) < 1e-3


def test_grid_doubling_stability_of_mean_cos_theta():
    spec = BeamSpec(0.5)
    coarse = build_grid(spec, 64, 8)
    fine = build_grid(spec, 128, 16)
    a = float(coarse.theta_weights @ np.cos(coarse.thetas))
    b = float(fine.theta_weights @ np.cos(fine.thetas))
    assert abs(a - b) < 1e-10


# 255 ... 257 and 511 ... 513 straddle a change of n.bit_length(), and with
# it of the split that keeps each frequency's angle exact
_RULE_SIZES = [*range(2, 21), 64, 96, 128, 192, 255, 256, 257, 384, 511, 512, 513, 1024]


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
    # leggauss(4096) solves a dense 4096 x 4096 companion matrix and peaks at 135 MB;
    # the rule is built afresh, past the cache
    tracemalloc.start()
    try:
        x, w = beams._gauss_legendre.__wrapped__(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert abs(w.sum() - 2.0) < 1e-15 and np.all(np.diff(x) > 0.0)


def test_gauss_legendre_384_peaks_under_half_a_mib():
    # the series is summed for blocks of roots in arrays of at most 64 KiB,
    # a 0.14 MiB peak; whole (roots x terms) arrays of each Newton step
    # peaked at 1.5 MiB.  Both builds go past the cache
    beams._gauss_legendre.__wrapped__(384)
    tracemalloc.start()
    try:
        beams._gauss_legendre.__wrapped__(384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_gauss_legendre_4096_takes_at_most_4_n_to_the_1_5_cosines_and_sines(monkeypatch):
    # each frequency is split in two, so a Newton step takes about
    # 2 sqrt(n / 2) angles per root (392,302 elements in all here); a
    # cosine and a sine per root and frequency took 8,745,130
    counted = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def cos(self, x, *args, **kwargs):
            counted.append(np.size(x))
            return np.cos(x, *args, **kwargs)

        def sin(self, x, *args, **kwargs):
            counted.append(np.size(x))
            return np.sin(x, *args, **kwargs)

    monkeypatch.setattr(beams, "np", CountingNumpy())
    x, w = beams._gauss_legendre.__wrapped__(4096)
    assert sum(counted) <= 4 * 4096**1.5
    assert abs(w.sum() - 2.0) < 1e-15 and np.all(np.diff(x) > 0.0)


def test_gauss_legendre_rule_is_kept_read_only_per_size():
    beams._gauss_legendre.cache_clear()
    x, w = beams._gauss_legendre(64)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    again = beams._gauss_legendre(64)
    assert again[0] is x and again[1] is w
    info = beams._gauss_legendre.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, beams._RULE_CACHE)
    fresh_x, fresh_w = beams._gauss_legendre.__wrapped__(64)
    assert np.array_equal(fresh_x, x) and np.array_equal(fresh_w, w)


def test_gauss_legendre_cache_keeps_only_the_sizes_used_last():
    beams._gauss_legendre.cache_clear()
    for n in range(2, 2 + beams._RULE_CACHE + 3):
        beams._gauss_legendre(n)
    assert beams._gauss_legendre.cache_info().currsize == beams._RULE_CACHE


def test_unconverged_gauss_legendre_rule_is_not_kept(monkeypatch):
    beams._gauss_legendre.cache_clear()
    monkeypatch.setattr(beams, "_NEWTON_CAP", 0)
    with pytest.raises(np.linalg.LinAlgError):
        beams._gauss_legendre(48)
    assert beams._gauss_legendre.cache_info().currsize == 0
    monkeypatch.undo()
    x, w = beams._gauss_legendre(48)
    assert beams._gauss_legendre.cache_info().misses == 2
    assert abs(w.sum() - 2.0) < 1e-15 and np.all(np.diff(x) > 0.0)


def test_grids_from_a_cold_and_a_warm_rule_cache_are_identical():
    def grids():
        return [build_grid(BeamSpec(sigma), n_theta, n_phi)
                for sigma, n_theta, n_phi in ((0.1, 64, 64), (0.5, 64, 64), (1.0, 64, 64),
                                              (1.3, 96, 96), (1.0, 9, 8), (3.14159, 8, 8))]

    beams._gauss_legendre.cache_clear()
    cold = grids()
    assert beams._gauss_legendre.cache_info().misses == 4
    warm = grids()
    assert beams._gauss_legendre.cache_info().misses == 4
    for a, b in zip(cold, warm):
        for name in ("thetas", "theta_weights", "phis", "phi_weights"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


# weights of the n-point Gauss-Legendre rule at root indices 0, 1, 2 (the
# three nearest x = -1, mirrored at n - 1, n - 2, n - 3 nearest x = +1),
# n // 4 and n // 2 (the first root above x = 0), to 34 digits: Newton's
# method on P_n's three-term recurrence at 45 digits with mpmath
_REFERENCE_WEIGHTS = {
    192: (
        "2.002510147471267303712312450255909e-4",
        "4.660944855912469603944432543932119e-4",
        "7.322075666250185328339640008748602e-4",
        "1.165702129621415246785292850221956e-2",
        "1.631936345670150508355623929347409e-2",
    ),
    384: (
        "5.019410348692173752939580444474545e-5",
        "1.168390665730188627954282573513176e-4",
        "1.835749193551260444766282687846523e-4",
        "5.806904095492834992840479525720097e-3",
        "8.170516986711110739980316957776575e-3",
    ),
    1024: (
        "7.070076410182589871295805175639999e-6",
        "1.645772757989686810680579875671041e-5",
        "2.58591246764618586715766963671602e-5",
        "2.172469110212858171971971740703101e-3",
        "3.066460309243908211551278492051044e-3",
    ),
    4096: (
        "4.422038513909486725230689275684237e-7",
        "1.029366140415132914918384411030143e-6",
        "1.617397251702019286777149988686328e-6",
        "5.425377657755921771129688030110902e-4",
        "7.668967165215304046895329928523429e-4",
    ),
}


@pytest.mark.parametrize("n", sorted(_REFERENCE_WEIGHTS))
def test_gauss_legendre_weights_match_34_digit_references_to_1e_14(n):
    _, w = beams._gauss_legendre(n)
    for i, want in zip((0, 1, 2, n // 4, n // 2), map(float, _REFERENCE_WEIGHTS[n])):
        for j in {i, n - 1 - i}:
            assert abs(w[j] - want) <= 1e-14 * want, (i, j)


def _full_rule(spec, n_theta, n_phi):
    """The whole n_theta x n_phi rule, every phi_j once, built without build_grid."""
    x, w = beams._gauss_legendre(n_theta)
    thetas = (x + 1.0) * (math.pi / 2.0)
    weights = w * angular_weight(thetas, spec)
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    return QuadratureGrid(thetas, weights / weights.sum(), phis, np.full(n_phi, 1.0 / n_phi))


@pytest.mark.parametrize("n_phi", [7, 5, 16])
def test_grid_stores_the_half_rule_with_mirror_plane_nodes_once(n_phi):
    spec = BeamSpec(0.9)
    full = _full_rule(spec, 6, n_phi)
    grid = build_grid(spec, 6, n_phi)
    kept = n_phi // 2 + 1
    j = np.arange(kept)
    images = np.where((j == 0) | (2 * j == n_phi), 1.0, 2.0)
    want = stored_rule(full)[2].reshape(6, n_phi)[:, :kept] * images
    assert np.abs(stored_rule(grid)[2].reshape(6, kept) - want).max() < 1e-16
    assert np.array_equal(grid.phis, full.phis[:kept])
    assert np.array_equal(grid.thetas, full.thetas)


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


def test_an_empty_block_of_boosts_has_an_empty_block_of_moments():
    grid = build_grid(BeamSpec(1.0), 8, 8)
    for alpha in (0.5, -2.5, math.pi):
        axis, sign = beams.line_ends(beams.in_plane_axes(alpha))
        assert sign == (-1.0 if alpha < 0.0 else 1.0) and axis[0] >= 0.0
        blocks = list(beams.axis_moments(axis, [np.empty(0), np.array([2.0])], grid))
        assert [b.shape for b in blocks] == [(0, 6, 6), (1, 6, 6)]
    # the pass reads its axis as the upper end of its line in the x-z
    # plane; transported_moments turns an axis off it into the plane, and
    # reads the other end of a line with x < 0 or on -z
    for bad in ([0.6, 0.48, 0.64], beams.in_plane_axes(-2.5), [0.0, 0.0, -1.0]):
        with pytest.raises(ValueError, match="x-z plane with x >= 0, and not on -z"):
            list(beams.axis_moments(np.array(bad), [np.array([2.0])], grid))


def test_an_empty_stack_has_empty_states_and_readings():
    grid = build_grid(BeamSpec(1.0), 8, 8)
    states, min_eig, gap, spectra = beams.density_states(boost_stack(0.5, []), grid)
    assert (states.shape, min_eig.shape, gap.shape, spectra.shape) == ((0, 9, 9), (0,), (0,), (0, 9))


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
    # the node-by-node aberration map (oracles.transport) and the oracle's
    # written-out rotation form both against wigner.d_rotation_form_stack,
    # called node by node
    for _ in range(5):
        L = random_stack(rng, 1)
        thetas, phis = random_directions(rng, 20)
        vectors = closed_form_vectors(thetas, phis, 1.0)
        (xh, xv), = transport(L.matrices, vectors).transpose(0, 2, 1, 3)
        rh, rv = rotation_form_pair_basis(L, thetas, phis, 1.0)
        for i in range(len(thetas)):
            want_h, want_v = transported_hv(L, thetas[i], phis[i], 1.0)
            for got_h, got_v in ((xh, xv), (rh, rv)):
                assert np.abs(got_h[:, i] - want_h[:, 0]).max() < 1e-12
                assert np.abs(got_v[:, i] - want_v[:, 0]).max() < 1e-12


def test_node_blocks_are_the_weighted_closed_forms_across_every_block_edge():
    # the node-by-node oracle's vectors: 9 x (13 // 2 + 1) = 63 stored
    # nodes in rows of 7, cut in blocks of 10: blocks start and end mid
    # row, and the last one is short
    grid = build_grid(BeamSpec(0.9), 9, 13)
    blocks = [node_vectors(grid, lo, lo + 10) for lo in range(0, len(grid), 10)]
    assert [b.shape for b in blocks] == [(3, 3, 10)] * 6 + [(3, 3, 3)]
    got = np.concatenate(blocks, axis=-1)
    want = closed_form_vectors(*stored_rule(grid))[1:]
    assert np.abs(got - want).max() < 1e-15
    # every node alone, and the two nodes either side of each block edge,
    # are cut bit for bit from the same rows
    for i in range(len(grid)):
        assert np.array_equal(node_vectors(grid, i, i + 1), got[:, :, i:i + 1])
    for edge in range(10, len(grid), 10):
        assert np.array_equal(node_vectors(grid, edge - 2, edge + 2), got[:, :, edge - 2:edge + 2])


def _mirrored_vectors(grid):
    """Closed-form node 4-vectors of the stored nodes' images (theta, -phi)."""
    thetas, phis, weights = stored_rule(grid)
    return closed_form_vectors(thetas, -phis, weights)


def _gram(stack, vectors):
    x = transport(stack.matrices, vectors).reshape(len(stack), 6, vectors.shape[-1])
    return x @ np.swapaxes(x, 1, 2)


@pytest.mark.parametrize("n_phi", [7, 16])
def test_x_z_plane_moments_are_the_gram_of_the_stored_and_mirrored_vectors(n_phi):
    # these boosts commute with y -> -y, so the images need no transport of
    # their own; the summed moments must still equal transporting every
    # stored and mirrored vector node by node, to rounding.  transport reads
    # each boost from its matrix, which costs eps cosh(xi), so |xi| <= 3
    grid = build_grid(BeamSpec(1.1), 10, n_phi)
    stored = closed_form_vectors(*stored_rule(grid))
    mirrored = _mirrored_vectors(grid)
    xis = np.linspace(-3.0, 3.0, 9)
    for boosts in (
        boost_stack(0.7, xis),
        boost_stack(-2.9, xis),
        concatenated([make_boost(a, xi) for a in (0.0, 1.2, 3.0) for xi in xis]),
        concatenated([compose(rot_y(a), boost_z(xi)) for a in (0.4, -2.0) for xi in xis]),
    ):
        want = 0.5 * (_gram(boosts, stored) + _gram(boosts, mirrored))
        assert np.abs(transported_moments(boosts, grid) - want).max() <= 1e-14


_ROTATIONS = (rot_z(0.4), rot_z(-2.5), compose(rot_z(1.1), rot_y(0.8)))


def _fold_cases(rng):
    """Rotations that mix y with x, then random one-transform stacks."""
    drawn = random_stack(rng, 5)
    rows = [
        TransformStack(drawn.kinds[i:i + 1], drawn.params[i:i + 1])
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


def test_small_blocks_keep_both_moment_paths_on_the_expanded_rule_double_sum(monkeypatch, rng):
    # blocks of 25 nodes, whole rows of 9 of the 6 x 9 = 54 stored nodes,
    # and theta factors formed 4 rows at a time, for the pass of an axis in
    # the x-z plane and that of an axis off it, turned into the plane
    monkeypatch.setattr(beams, "_SUM_NODES", 25)
    monkeypatch.setattr(beams, "_BLOCK_BYTES", 8 * 24 * 4)
    grid = build_grid(BeamSpec(1.0), 6, 16)
    cases = [make_boost(0.7, 1.0), compose(make_boost(0.7, 1.0), rot_z(0.4)), *_fold_cases(rng)]
    stack = concatenated(cases)
    # the boost along R_z(0.4)^T m has an axis off the x-z plane
    assert stack.matrices[1, 0, 2] != 0.0
    states = beams.density_states(stack, grid)[0]
    for L, rho in zip(cases, states):
        assert np.abs(rho - direct_double_sum_density(L, grid, 1.0)).max() <= 1e-13


def test_sweeps_sum_each_node_once_per_axis_and_off_plane_axes_once_per_turned_axis(monkeypatch, rng):
    tabled, products = [], []
    real_tables = beams._aberration_tables

    def counting_tables(axis, grid):
        for table, t2 in real_tables(axis, grid):
            tabled.append(len(t2))
            products.append(len(table))
            yield table, t2

    monkeypatch.setattr(beams, "_aberration_tables", counting_tables)
    # a sweep's rows share one axis: every stored node enters one table once
    cfg = SweepConfig(alpha=0.9, sigma_theta=1.0, xi_steps=61, n_theta=24, n_phi=17)
    run_sweep(cfg)
    assert sum(tabled) == 24 * (17 // 2 + 1) and set(products) == {12}
    grid = build_grid(BeamSpec(1.0), 24, 16)
    tabled.clear()
    beams.density_states(make_boost(0.3, 1.0), grid)
    assert sum(tabled) == len(grid)
    # rotations are boosts with xi = 0 along +z: they share one table
    tabled.clear()
    beams.density_states(concatenated(_ROTATIONS), grid)
    assert sum(tabled) == len(grid)
    # a drawn transform is R B(xi, m): one table per axis, where an axis
    # off the x-z plane is read turned into it about z, as
    # (hypot(m_x, m_y), 0, m_z); every table has the 12 in-plane products,
    # and no row is transported node by node
    drawn = random_stack(rng, 40)
    axes = beams._boost_parts(drawn)[1]
    off_plane = axes[:, 1] != 0.0
    read = {(math.hypot(x, y) if y else x, z) for x, y, z in axes}
    tabled.clear()
    products.clear()
    beams.density_states(drawn, grid)
    assert sum(tabled) == len(read) * len(grid) and set(products) == {12}
    assert off_plane.any() and not off_plane.all()
    assert not hasattr(beams, "transport")
    # rows R B(m) after one off-plane boost share its axis whatever R,
    # and so one table
    boost = compose(compose(rot_z(0.4), make_boost(0.7, 1.0)), rot_z(-0.4))
    tabled.clear()
    beams.density_states(concatenated([compose(rot_z(g), boost) for g in (0.0, 1.0, -2.0)]), grid)
    assert sum(tabled) == len(grid)


def test_density_states_peaks_within_2_mb_of_its_inputs_on_384_squared():
    # the nodes are summed a block of _SUM_NODES at a time, so no array of
    # the grid's size is made: 3 rows on 384^2 peak at 1.14 MiB, where
    # transporting a whole boosted copy of the grid's 7.1 MB of stored
    # vectors peaked at 11.9 MB
    grid = build_grid(BeamSpec(1.0), 384, 384)
    stack = boost_stack(0.7, np.linspace(-1.0, 1.0, 3))
    tracemalloc.start()
    try:
        beams.density_states(stack, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def _allocations_over_64_kib_per_block(monkeypatch, run):
    """The lines of beams that allocated more than 64 KiB at once while run() ran, after the first node block.

    Traced memory is read at every line of beams: a line whose peak
    exceeds what was held when it began, by more than 64 KiB, allocated
    that much, whatever it freed; the line is counted once the table pass
    has formed its first block.  numpy's ufunc buffers, which numpy may
    allocate per call for a broadcast operand and which are at most 64 KiB
    whatever the block, are cut to 16 elements, so that only the pass's
    own arrays count.
    """
    real, state, big = beams._aberration_tables, {"formed": False, "held": 0}, []

    def tables(axis, grid):
        for block in real(axis, grid):
            state["formed"] = True
            yield block

    def lines(frame, event, arg):
        if state["formed"] and tracemalloc.get_traced_memory()[1] - state["held"] > 64 * 2**10:
            big.append((frame.f_code.co_name, frame.f_lineno))
        tracemalloc.reset_peak()
        state["held"] = tracemalloc.get_traced_memory()[0]
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == beams.__file__ else None

    monkeypatch.setattr(beams, "_aberration_tables", tables)
    previous = sys.gettrace()
    with np.errstate():
        np.setbufsize(16)
        tracemalloc.start()
        sys.settrace(calls)
        try:
            run()
        finally:
            sys.settrace(previous)
            tracemalloc.stop()
    monkeypatch.undo()
    return big


def test_table_pass_allocations_over_64_kib_do_not_grow_with_its_node_blocks(monkeypatch):
    # each pass forms every block in one workspace, and every block's
    # weights in one buffer, both allocated before its first block: 3 rows
    # on 384^2, 12 node blocks, allocate no more over 64 KiB once the first
    # block is formed than on 128^2, 2 blocks: nothing.  With a fresh
    # (12, nodes) table and fresh temporaries per block, each of the 55
    # blocks of 1,365 nodes on 384^2 allocated a 131 KB table
    stack = boost_stack(0.7, np.linspace(-1.0, 1.0, 3))
    big, blocks = {}, {}
    for n in (128, 384):
        grid = build_grid(BeamSpec(1.0), n, n)
        big[n] = _allocations_over_64_kib_per_block(monkeypatch, lambda: beams.density_states(stack, grid))
        blocks[n] = sum(1 for _ in beams._aberration_tables(beams.in_plane_axes(0.7), grid))
    assert blocks[384] > 4 * blocks[128] > 4
    assert len(big[384]) <= len(big[128]) == 0, big


def test_density_states_on_the_widest_grid_under_the_node_cap_peaks_under_5_mb(monkeypatch):
    # 8 x 32768 stores 16,385 nodes in each theta row, more than a block of
    # the in-plane sums takes (_SUM_NODES), so each row is cut into parts
    # and the per-phi factors are built a part at a time: 3 rows peak at
    # 3.3 MiB, 1 MiB of it the factors of a part of 5,462 phis, where
    # the theta-hat route's node vectors peaked at 4.05 MB
    grid = build_grid(BeamSpec(1.0), 8, 32768)
    stack = boost_stack(0.7, np.linspace(-1.0, 1.0, 3))
    widths, real = [], beams._aberration_tables

    def counting_tables(axis, grid):
        for table, t2 in real(axis, grid):
            widths.append(len(t2))
            yield table, t2

    monkeypatch.setattr(beams, "_aberration_tables", counting_tables)
    beams.density_states(stack, grid)
    parts = -(-len(grid.phis) // beams._SUM_NODES)
    assert sum(widths) == len(grid) and len(widths) == parts * len(grid.thetas) > len(grid.thetas)
    assert max(widths) <= beams._SUM_NODES
    monkeypatch.undo()
    tracemalloc.start()
    try:
        beams.density_states(stack, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_grid_keeps_its_two_1d_rules_and_builds_under_a_quarter_mib_on_384_squared():
    # the grid keeps only its theta and phi rules: 10.6 KB kept at 384^2
    # with a 0.14 MiB peak, the theta rule's working arrays, and 133 KB
    # kept with a 0.9 MB peak at 8192 x 8.  Ten factors per theta and nine
    # per phi kept 55.8 KB and 789 KB; per-node weights, thetas and phis
    # kept 1.74 MiB at 384^2.  The rule is built afresh, and the 16 n_theta
    # bytes of it that _gauss_legendre keeps for later grids are not the grid's
    build_grid(BeamSpec(1.3), 8, 8)
    cases = ((384, 384, 16 * 2**10, 2**18), (8192, 8, 160 * 2**10, 2**20))
    for n_theta, n_phi, kept_cap, peak_cap in cases:
        beams._gauss_legendre.cache_clear()
        tracemalloc.start()
        try:
            grid = build_grid(BeamSpec(1.3), n_theta, n_phi)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rule = sum(a.nbytes for a in beams._gauss_legendre(n_theta))
        assert rule == 16 * n_theta
        assert kept - rule < kept_cap, (n_theta, kept, rule)
        assert peak < peak_cap, (n_theta, peak)
        assert len(grid) == n_theta * (n_phi // 2 + 1)
        rules = (grid.thetas, grid.theta_weights, grid.phis, grid.phi_weights)
        assert not any(a.flags.writeable for a in rules)


def test_a_grid_keeps_read_only_copies_of_a_callers_rules():
    rules = [np.array([0.5, 1.0, 1.5]), np.full(3, 1 / 3), np.array([0.0, 1.0]), np.array([0.25, 0.75])]
    grid = QuadratureGrid(*rules)
    assert len(grid) == 6
    assert all(a.flags.writeable for a in rules)
    kept = (grid.thetas, grid.theta_weights, grid.phis, grid.phi_weights)
    assert not any(a.flags.writeable for a in kept)
    for a in rules:
        a[0] = 9.0
    assert [a[0] for a in kept] == [0.5, 1 / 3, 0.0, 0.25]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis, name", [(0, "theta"), (2, "phi")])
def test_grid_rejects_rules_that_are_not_normalized_nonnegative_1d(axis, name):
    rules = [np.array([0.5, 1.0, 1.5]), np.full(3, 1 / 3), np.array([0.0, 1.0]), np.array([0.25, 0.75])]

    def with_rule(nodes, weights):
        changed = list(rules)
        changed[axis:axis + 2] = nodes, weights
        return changed

    nodes, weights = rules[axis], rules[axis + 1]
    for bad, match in (
        ((nodes, weights[:-1]), "1-d arrays of one length"),
        ((nodes[None], weights[None]), "1-d arrays of one length"),
        ((nodes, np.append(weights[:-1], -weights[-1])), "nonnegative"),
        ((nodes, np.zeros_like(weights)), "positive total"),
        ((nodes, weights * (1.0 + 2e-12)), "sum to 1"),
        # a NaN weight passed the sum check and a non-finite phi node was
        # never checked: the pass then failed on a NaN trace or warned
        # from cos(inf); a NaN theta fails the [0, pi] check
        ((np.append(math.nan, nodes[1:]), weights), "finite|lie in"),
        ((np.append(-math.inf, nodes[1:]), weights), "finite|lie in"),
        ((nodes, np.append(math.nan, weights[1:])), "finite"),
        ((nodes, np.append(math.inf, weights[1:])), "finite"),
    ):
        with pytest.raises(ValueError, match=match) as err:
            QuadratureGrid(*with_rule(*bad))
        assert str(err.value).startswith(name)
    # a rule off one by rounding only is a rule
    assert len(QuadratureGrid(*with_rule(nodes, weights * (1.0 + 4e-16)))) == 6
    # the beam's theta rule can underflow as a whole; build_grid says so
    with pytest.raises(ValueError, match="every node weight underflowed"):
        build_grid(BeamSpec(1e-8), 16, 8)


def test_grid_rejects_polar_angles_outside_0_pi():
    # the in-plane sums take sin(theta) >= 0 and half angles of theta -+ b
    # in [0, pi]; a node at -0.1 or pi + 0.1 is a node of [0, pi] by another name
    phis, phi_weights = np.array([0.0, 1.0]), np.array([0.25, 0.75])
    for bad in (-0.1, math.pi + 0.1, math.nan):
        with pytest.raises(ValueError, match=r"theta nodes must lie in \[0, pi\]"):
            QuadratureGrid(np.array([0.5, 1.0, bad]), np.full(3, 1 / 3), phis, phi_weights)
    assert len(QuadratureGrid(np.array([0.0, 1.0, math.pi]), np.full(3, 1 / 3), phis, phi_weights)) == 6


_GUARD_CASES = {
    "x_z_plane": boost_stack(0.7, np.linspace(-15.0, 15.0, 7)),
    "off_plane": compose(make_boost(0.7, 1.0), rot_z(0.4)),
}


def _scaled_projections(monkeypatch, rows, factor):
    """Make _theta_factors scale the table pass's projections of these rows by factor."""
    real = beams._theta_factors

    def scaled(*args):
        out = real(*args)
        out[rows] *= factor
        return out

    monkeypatch.setattr(beams, "_theta_factors", scaled)


@pytest.mark.parametrize("case", sorted(_GUARD_CASES))
def test_trace_guard_trips_on_node_vectors_scaled_by_1_plus_5e_11(monkeypatch, case):
    # h and v scaled by 1 + 5e-11 move the trace by 2e-10, on the table
    # pass of an axis in the x-z plane and of an axis off it alike;
    # rounding moves it by at most 7e-15.  The pass reads h and v
    # only through m . (sqrt(w) h) and m . (sqrt(w) v), so those are what
    # is scaled
    _scaled_projections(monkeypatch, [2, 3], 1.0 + 5e-11)
    grid = build_grid(BeamSpec(1.0), 16, 16)
    with pytest.raises(np.linalg.LinAlgError, match="trace"):
        beams.density_states(_GUARD_CASES[case], grid)


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


def test_ln_matches_rotation_form_route_to_1e_14_up_to_rapidity_15():
    # the same curve over the whole accepted range: the aberration map has
    # no subtraction whose rounding grows like eps exp(|xi|), so the gap
    # and the trace gap before normalization stay at rounding level
    cfg = SweepConfig(alpha=2 * math.pi / 5, sigma_theta=1.3, xi_min=-15.0, xi_max=15.0,
                      xi_steps=31, n_theta=96, n_phi=96)
    grid = build_grid(BeamSpec(cfg.sigma_theta), cfg.n_theta, cfg.n_phi)
    for row in run_sweep(cfg):
        want = log_negativity(rotation_form_density(make_boost(cfg.alpha, row.xi), grid, 1.0))
        assert abs(row.log_negativity - want) <= 1e-14, row.xi
        assert row.trace_residual <= 1e-14, row.xi


@pytest.mark.filterwarnings("error")
def test_boost_axis_through_a_node_matches_the_gauge_oracle():
    # at alpha = pi/2 the stored node (pi/2, 0) of an odd theta rule lies
    # on the axis m, where s = 0, and the node (pi/2, pi) lies within
    # rounding of -m, where s = 1.7e-16 and t = tan(theta_m / 2) ~ 1e16
    alpha = math.pi / 2
    grid = build_grid(BeamSpec(1.0), 9, 8)
    m = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    e1 = np.array([math.cos(alpha), 0.0, -math.sin(alpha)])
    p = node_vectors(grid, 0, len(grid))[:, 0]
    thetas, phis, _ = stored_rule(grid)
    assert (thetas[20], phis[20]) == (math.pi / 2, 0.0)
    assert p[:, 20] @ e1 == 0.0 and p[1, 20] == 0.0
    assert (thetas[24], phis[24]) == (math.pi / 2, math.pi)
    assert 0.0 < math.hypot(p[:, 24] @ e1, p[1, 24]) < 2e-16 and p[:, 24] @ m == -1.0
    # the gauge form's rounding grows like eps exp(|xi|), so it is compared
    # on |xi| <= 3; over the whole range the moments stay finite
    stack = boost_stack(alpha, np.linspace(-3.0, 3.0, 7))
    want = gauge_form_moments(stack, grid)
    assert np.abs(transported_moments(stack, grid) - want).max() <= 1e-14
    # and node by node, the stored and mirrored vectors
    stored = closed_form_vectors(*stored_rule(grid))
    by_node = 0.5 * (_gram(stack, stored) + _gram(stack, _mirrored_vectors(grid)))
    assert np.abs(by_node - want).max() <= 1e-14
    deep = beams.density_states(boost_stack(alpha, np.linspace(-15.0, 15.0, 7)), grid)
    assert np.all(deep[2] <= 1e-14)


def test_an_off_plane_axis_takes_the_table_pass_to_the_node_by_node_moments():
    # the boost along R_z(0.4) (sin 0.7, 0, cos 0.7) = (0.593, 0.251, 0.765)
    # is read as the pass about (0.644, 0, 0.765), turned back; the gauge
    # form over the rule turned by 0.4 agrees to rounding, and over the
    # grid's own rule it is the 16-phi rule's error, 3.3e-9, away
    grid = build_grid(BeamSpec(1.0), 16, 16)
    stack = compose(compose(rot_z(0.4), make_boost(0.7, 1.0)), rot_z(-0.4))
    _, (axis,), _ = beams._polar_parts(stack.matrices)
    assert axis[1] > 0.25
    got = transported_moments(stack, grid)
    assert np.abs(got - gauge_form_moments(stack, grid)).max() <= 1e-14
    assert np.abs(got - gauge_form_moments(stack, grid, turned=False)).max() > 1e-9


def _azimuth_turn(beta):
    """U = R_z(beta) (x) R(beta) on index 2i + a: the turn of the spatial index and of the h/v labels."""
    c, s = math.cos(beta), math.sin(beta)
    return np.kron([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], [[c, -s], [s, c]])


def _turned_boosts(beta, alpha, xis):
    """R_z(beta) B(xi, m0) R_z(-beta) for each xi, m0 = (sin alpha, 0, cos alpha): boosts along R_z(beta) m0."""
    return concatenated([compose(compose(rot_z(beta), make_boost(alpha, xi)), rot_z(-beta)) for xi in xis])


_TURNS = [0.4, math.pi / 2, -math.pi / 2, -2.5, 3.0]


@pytest.mark.parametrize("n_theta, n_phi", [(8, 8), (9, 8)])
@pytest.mark.parametrize("beta", _TURNS)
def test_an_off_plane_boost_is_the_in_plane_pass_turned_about_z(beta, n_theta, n_phi):
    # on the rule turned by beta, the moments of a boost along R_z(beta) m0
    # are U M(m0) U^T exactly.  A line whose azimuth beta turns out of
    # [0, pi), beta < 0 here or m0 with alpha < 0, is read from its other
    # end at beta + pi, over the rule turned by beta + pi: on an even phi
    # rule the same rule.  The boosts are read from their matrices, which
    # costs eps cosh(xi)
    grid = build_grid(BeamSpec(1.0), n_theta, n_phi)
    xis = [-2.0, -0.5, 1.0, 2.5]
    u = _azimuth_turn(beta)
    for alpha in (0.7, 2.2, -1.1):
        plane = transported_moments(boost_stack(alpha, xis), grid)
        got = transported_moments(_turned_boosts(beta, alpha, xis), grid)
        assert np.abs(got - u @ plane @ u.T).max() <= 1e-14, alpha


@pytest.mark.parametrize("n_phi", [9, 15, 16])
def test_a_boost_turned_within_the_azimuths_of_its_line_turns_its_moments_on_any_phi_rule(n_phi):
    # a boost is read along the end of its axis line at the azimuth
    # beta in [0, pi), whatever the sign of its rapidity, so turning it by
    # such a beta turns its moments by U exactly on odd phi rules too.
    # Read by the end with xi >= 0, a boost with xi < 0 was integrated over
    # the rule turned by beta + pi, 4.6e-2 away at xi = -2 on 16 x 9
    grid = build_grid(BeamSpec(1.0), 16, n_phi)
    xis = [-2.0, -1.0, 1.0, 2.0]
    for alpha in (0.7, 2.2):
        plane = transported_moments(boost_stack(alpha, xis), grid)
        for beta in (0.0, 0.4, math.pi / 2, 2.0, 3.0):
            u = _azimuth_turn(beta)
            got = transported_moments(_turned_boosts(beta, alpha, xis), grid)
            assert np.abs(got - u @ plane @ u.T).max() <= 1e-14, (alpha, beta)


def test_both_rapidities_along_one_axis_line_share_one_table_pass(monkeypatch):
    # B(xi, m) = B(-xi, -m): boost_z(+-1) are boosts along +z, and the two
    # turned boosts along R_z(0.4) m0 are read along one end of their line,
    # so each pair takes one pass; read by the end with xi >= 0, each
    # took two
    grid = build_grid(BeamSpec(1.0), 8, 8)
    passes = []
    real = beams._aberration_tables

    def counting_tables(axis, grid):
        passes.append(tuple(axis))
        yield from real(axis, grid)

    monkeypatch.setattr(beams, "_aberration_tables", counting_tables)
    for stack in (concatenated([boost_z(1.0), boost_z(-1.0)]), _turned_boosts(0.4, 0.7, [1.0, -1.0])):
        passes.clear()
        transported_moments(stack, grid)
        assert len(passes) == 1, passes


@pytest.mark.parametrize("n", [8, 16, 64])
def test_off_plane_moments_match_the_gauge_form_over_the_turned_rule_to_2e_15(n):
    grid = build_grid(BeamSpec(1.0), n, n)
    stack = concatenated([_turned_boosts(beta, 0.7, [-2.0, -0.5, 1.0, 2.5]) for beta in _TURNS])
    assert np.abs(transported_moments(stack, grid) - gauge_form_moments(stack, grid)).max() <= 2e-15


def test_off_plane_moments_match_the_unturned_rule_once_its_phi_rule_has_converged():
    # 256 phis resolve |xi| <= 3 to about 5e-14, so turning the rule moves
    # the moments by less than 1e-13: the turned rule changes what a
    # coarse phi rule misses, not what the grid converges to
    grid = build_grid(BeamSpec(1.0), 16, 256)
    stack = concatenated([_turned_boosts(beta, 0.7, [-3.0, -1.0, 1.0, 3.0]) for beta in _TURNS])
    want = gauge_form_moments(stack, grid, turned=False)
    assert np.abs(transported_moments(stack, grid) - want).max() <= 1e-13


@pytest.mark.parametrize("n_phi", [16, 256])
def test_an_off_plane_boost_reads_differently_from_its_in_plane_turn(n_phi):
    # the moments of L_beta = R_z(beta) R_y(0.9) B_z(1) R_y(-0.9) R_z(-beta)
    # are U M(m0) U^T with U = R_z(beta) (x) R(beta).  The readings are
    # invariant under the spatial turn R_z(beta), but not under the turn
    # R(beta) of the h/v labels, which takes the pair state
    # (|hh> - |vv>)/sqrt 2 to another one: the log negativity moves with
    # beta by -7.03e-6 at 0.3 and -2.19e-5 at 0.8, on a converged phi rule
    # too, so a state off the x-z plane is solved on its own blocks.  The
    # sweep path's reading agrees with the gauge form over the turned rule
    grid = build_grid(BeamSpec(1.0), 48, n_phi)
    stack = concatenated([_turned_boosts(beta, 0.9, [1.0]) for beta in (0.0, 0.3, 0.8)])
    got = log_negativity_from_spectrum(beams.density_states(stack, grid)[3])
    states = entanglement.pair_states(gauge_form_moments(stack, grid))
    states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
    assert np.abs(got - log_negativity(states)).max() <= 1e-14
    assert np.all(np.abs(got[1:] - got[0]) > 5e-6)


def _y_axis_boosts(xis):
    """B(xi, m) R_z(-pi/2) for each xi, with m = R_z(pi/2) x-hat = (6e-17, 1, 6e-17), off the x-z plane."""
    return concatenated([compose(make_boost(math.pi / 2, xi), rot_z(-math.pi / 2)) for xi in xis])


@pytest.mark.filterwarnings("error")
def test_off_plane_boost_axis_through_a_node_matches_the_gauge_oracle():
    # the rule turned by m's azimuth, about pi/2, puts its node (pi/2, 0)
    # on m and (pi/2, pi) within rounding of -m: the pass about
    # m0 = (1, 0, m_z) reads the stored nodes (pi/2, 0) on m0, where
    # 1 - p . m0 = 0, and (pi/2, pi) on -m0, where 1 + p . m0 = 0
    grid = build_grid(BeamSpec(1.0), 9, 8)
    _, (m,), _ = beams._polar_parts(_y_axis_boosts([1.0]).matrices)
    assert m[1] == 1.0 and 0.0 < m[0] == m[2] < 1e-16
    m0 = np.array([math.hypot(m[0], m[1]), 0.0, m[2]])
    thetas, phis, _ = stored_rule(grid)
    p = node_vectors(grid, 0, len(grid))[:, 0]
    (on,) = np.flatnonzero((thetas == math.pi / 2) & (phis == 0.0))
    (behind,) = np.flatnonzero((thetas == math.pi / 2) & (phis == math.pi))
    assert 1.0 - p[:, on] @ m0 == 0.0 and 1.0 + p[:, behind] @ m0 == 0.0
    # the gauge form's rounding grows like eps exp(|xi|), so it is compared
    # on |xi| <= 3; over the whole range the states stay finite
    stack = _y_axis_boosts(np.linspace(-3.0, 3.0, 7))
    assert np.abs(transported_moments(stack, grid) - gauge_form_moments(stack, grid)).max() <= 1e-14
    states, _, gap, _ = beams.density_states(_y_axis_boosts(np.linspace(-15.0, 15.0, 7)), grid)
    assert np.isfinite(states).all() and np.all(gap <= 1e-14)


@pytest.mark.filterwarnings("error")
def test_off_plane_boost_axis_through_a_node_keeps_a_unit_trace_to_rapidity_15():
    # the library calls of a user: B(xi, m) R_z(-pi/2) boosts along
    # m = (6e-17, 1, 6e-17), whose turned 9 x 8 rule has a node on m and
    # one within rounding of -m, where the pass divides by the distance
    # from the axis; a warning, a non-finite state or a trace off by more
    # than 1e-14 fails
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 9, 8)
    for xi in (-15.0, 0.0, 15.0):
        rho = reduced_density(compose(make_boost(math.pi / 2, xi), rot_z(-math.pi / 2)), grid, spec)
        assert np.isfinite(rho).all() and abs(np.trace(rho) - 1.0) <= 1e-14, xi
        assert math.isfinite(log_negativity(rho)), xi


def _polar_row_grid(thetas, n_phi):
    """Two theta rows at weight 1/2 each and the stored phis 2 pi j / n_phi, j = 0 ... n_phi // 2, of a uniform rule."""
    j = np.arange(n_phi // 2 + 1)
    images = np.where((j == 0) | (2 * j == n_phi), 1.0, 2.0)
    return QuadratureGrid(thetas, [0.5, 0.5], j * (2.0 * math.pi / n_phi), images / n_phi)


@pytest.mark.parametrize("n_phi", [8, 4])
@pytest.mark.parametrize("xi", [-1.0, 1.0])
def test_a_node_at_theta_pi_takes_its_turning_h_on_the_axis_minus_z(xi, n_phi):
    # at theta = pi, h = -(cos 2 phi, sin 2 phi, 0) turns with phi.
    # boost_z(+-1) are both read along +z, the upper end of their axis
    # line, so no pass runs about -z, where these nodes would lie on the
    # axis: they lie within rounding of -m, each at its own azimuth.  A
    # node on the axis takes psi = 0, where C_h^2 = w and C_v = 0, which
    # was 0.25 from the node-by-node transport when the pass ran about -z.
    # On the 4-phi rule, h turning by phi instead of 2 phi gives other
    # moments
    grid = _polar_row_grid([1.0, math.pi], n_phi)
    stack = boost_z(xi)
    want = _gram(stack, closed_form_vectors(*expanded_rule(grid)))
    assert np.abs(transported_moments(stack, grid) - want).max() <= 1e-14


@pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi], ids=["0", "0_7", "pi"])
def test_a_theta_0_row_matches_the_gauge_oracle(alpha):
    # h and v at theta = 0 are x-hat and y-hat whatever phi; read with the
    # frame's phi they were turned by -phi there, and the gauge form of the
    # whole rule was 0.25 from the table pass even at rest
    grid = _polar_row_grid([0.0, 1.0], 8)
    stack = boost_stack(alpha, [-1.0, 0.0, 1.0])
    assert np.abs(transported_moments(stack, grid) - gauge_form_moments(stack, grid)).max() <= 1e-14


def _near_axis_grid(alpha, base):
    """base's rule plus theta rows 1e-3 ... 1e-12 either side of the polar angles of m and -m, and on them.

    base stores phi = 0 and pi, so a row at b + d, with b = atan2(|sin alpha|,
    cos alpha) the axis's polar angle, holds a node at distance |d| from m
    (at m's azimuth) and a row at pi - b + d one at |d| from -m.
    """
    b = math.atan2(abs(math.sin(alpha)), math.cos(alpha))
    offsets = [sign * d for d in (1e-3, 1e-6, 1e-9, 1e-12) for sign in (1.0, -1.0)] + [0.0]
    rows = [x for x in [b + d for d in offsets] + [math.pi - b + d for d in offsets] if 0.0 < x < math.pi]
    thetas = np.concatenate([base.thetas, rows])
    weights = np.concatenate([base.theta_weights, np.full(len(rows), 0.05)])
    return QuadratureGrid(thetas, weights / weights.sum(), base.phis, base.phi_weights)


def _ln_rows(stack, grid):
    return log_negativity_from_spectrum(state_readings(transported_moments(stack, grid))[3])


def test_closed_form_table_matches_the_theta_hat_oracle_near_the_axis(monkeypatch, rng):
    # p . e1 and m . h vanish at +-m; a product of the grid's plain factors
    # would keep only eps / s of their digits, s the node's distance from
    # the axis.  The closed form keeps them to rounding relative to s, so
    # its rows agree with the theta-hat route's, which reads the node
    # vectors, within 1e-14 (1.1e-15 measured) on axes with alpha < 0 and
    # alpha > pi/2 and nodes 1e-3 ... 1e-12 from m and -m
    base = build_grid(BeamSpec(1.0), 16, 16)
    cases = [
        (alpha, _near_axis_grid(alpha, base), np.linspace(-6.0, 6.0, 13))
        for alpha in [-2.5, -0.6, 0.4, 2.2, *rng.uniform(-math.pi, math.pi, 4)]
    ]
    for alpha, grid, _ in cases:
        m = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        p = node_vectors(grid, 0, len(grid))[:, 0]
        gap = np.minimum(np.linalg.norm(p - m[:, None], axis=0), np.linalg.norm(p + m[:, None], axis=0))
        for d in (1e-3, 1e-6, 1e-9, 1e-12):
            assert np.count_nonzero(np.abs(gap / d - 1.0) < 1e-3) >= 4, (alpha, d)
    # an odd theta rule at alpha = +-pi/2 stores a node on m and one within
    # rounding of -m (test_boost_axis_through_a_node_matches_the_gauge_oracle)
    on_axis = build_grid(BeamSpec(1.0), 17, 16)
    cases += [(alpha, on_axis, np.linspace(-15.0, 15.0, 7)) for alpha in (math.pi / 2, -math.pi / 2)]
    got = [_ln_rows(boost_stack(alpha, xis), grid) for alpha, grid, xis in cases]
    assert max(row.max() for row in got) > 0.1
    monkeypatch.setattr(beams, "_aberration_tables", aberration_tables)
    for (alpha, grid, xis), row in zip(cases, got):
        assert np.abs(row - _ln_rows(boost_stack(alpha, xis), grid)).max() <= 1e-14, alpha


@pytest.mark.parametrize("xi", [1.46e-159, -3e-170, 1e-300, 2.2250738585e-313, 5e-324])
def test_tiny_rapidity_read_from_a_matrix_is_a_unit_axis(xi):
    # sinh(xi) m read from the matrix squares to a subnormal or zero, or is
    # itself subnormal, where a tilted m loses its direction ((1, 0, 1) at
    # 5e-324); the axis must still be a unit vector, so the state is the
    # rotated rest state
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 16, 16)
    rot = rot_z(0.3)
    r9 = np.kron(rot.matrix[1:, 1:], rot.matrix[1:, 1:])
    rest = reduced_density(identity(), grid, spec)
    for alpha in (0.0, 1.0, 2 * math.pi / 5):
        rho = reduced_density(compose(rot, make_boost(alpha, xi)), grid, spec)
        assert np.abs(rho - r9 @ rest @ r9.T).max() < 1e-14
        _, axes, shrink = beams._polar_parts(compose(rot, make_boost(alpha, xi)).matrices)
        assert abs(np.linalg.norm(axes[0]) - 1.0) <= 2e-16 and shrink[0] == 1.0


def test_transport_matches_the_gauge_form_oracle(rng):
    # drawn stacks, real h/v vectors and complex polarizations, every node
    # by every boost and node i by boost i
    stack = random_stack(rng, 30)
    grid = build_grid(BeamSpec(1.0), 12, 10)
    vectors = closed_form_vectors(*stored_rule(grid))
    got = transport(stack.matrices, vectors)
    assert np.abs(got - gauge_form_transport(stack.matrices, vectors)).max() < 1e-13
    # the spatial parts alone transport the same
    assert np.array_equal(transport(stack.matrices, vectors[1:]), got)
    p = random_momenta(rng, len(stack))
    eps = random_polarizations(rng, *direction_angles(p[1:]))
    paired = np.stack([p, eps], axis=1).transpose(2, 0, 1)[..., None]
    got = transport(stack.matrices, paired)
    assert np.iscomplexobj(got)
    assert np.abs(got - gauge_form_transport(stack.matrices, paired)).max() < 1e-13


def _diagonal_moments(*rows):
    """(k, 6, 6) moments with M_hh = diag(h, 0, 0), M_vv = diag(0, v, 0) and M_hv = diag(s, 0, 0).

    Each row is (h, v, s); the state is (h^2/2 - s^2) xx(x)xx + v^2/2 yy(x)yy,
    with trace h^2/2 - s^2 + v^2/2.
    """
    g = np.zeros((len(rows), 6, 6))
    for m, (h, v, s) in zip(g, rows):
        m[0, 0], m[3, 3], m[0, 1], m[1, 0] = h, v, s, s
    return g


def _turned(moments):
    """The moments of the same states turned by 0.3 about x, which couples even and odd rows."""
    c, s = math.cos(0.3), math.sin(0.3)
    big = np.kron([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]], np.eye(2))
    return big @ moments @ big.T


def _solved_shapes(monkeypatch):
    """The shapes np.linalg.eigvalsh is called on from here on."""
    shapes = []
    real = np.linalg.eigvalsh

    def recording(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


# the guards run on the split solve of a mirror-symmetric state and on the
# whole-block solve of the same state turned off the mirror
_PATHS = {"split": (lambda m: m, [(2, 2, 4, 4)]), "whole-block": (_turned, [(2, 2, 6, 6), (2, 2, 3, 3)])}


def test_trace_guard_fires_on_a_broken_transport(monkeypatch):
    shapes = _solved_shapes(monkeypatch)
    for turn, solves in _PATHS.values():
        with pytest.raises(np.linalg.LinAlgError, match="trace"):
            state_readings(turn(_diagonal_moments((1.0, 1.0, 0.0), (math.sqrt(1.0 + 4e-12), 1.0, 0.0))))
        shapes.clear()
        state_readings(turn(_diagonal_moments((1.0, 1.0, 0.0), (1.0 + 2.0**-41, 1.0, 0.0))))
        # mechanism pin (eigvalsh shapes, ROADMAP item 14): each path
        # solves the blocks it is named for
        assert shapes == solves


def test_trace_gap_is_read_before_normalization():
    moments = _diagonal_moments((1.0, 1.0, 0.0), (1.0 + 2.0**-41, 1.0, 0.0))
    tr, _, gap, spectra = state_readings(moments)
    assert gap[0] == 0.0 and gap[1] == 2.0**-41 and tr[1] == 1.0 + 2.0**-41
    # the spectra are those of the normalized states
    assert spectra[1].max() == (0.5 + 2.0**-41) / tr[1]


def test_psd_guard_fires_below_minus_1e_9(monkeypatch):
    # the s^2 of M_hv enters the state with a minus sign
    def moments(eps):
        return _diagonal_moments((1.0, 1.0, 0.0), (0.0, math.sqrt(2.0 * (1.0 + eps)), math.sqrt(eps)))

    shapes = _solved_shapes(monkeypatch)
    for turn, solves in _PATHS.values():
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            state_readings(turn(moments(2e-9)))
        shapes.clear()
        _, min_eig, _, _ = state_readings(turn(moments(5e-10)))
        assert min_eig[1] == pytest.approx(-5e-10, abs=1e-15)
        # mechanism pin (eigvalsh shapes, ROADMAP item 14)
        assert shapes == solves


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_solver_failure_propagates_from_either_path(monkeypatch, path):
    def broken(m):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(entanglement, "hermitian_eigenvalues", broken)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        state_readings(_PATHS[path][0](_diagonal_moments((1.0, 1.0, 0.0))))


@pytest.mark.parametrize(
    "path, block, row, col",
    [("split", 0, 5, 5), ("split", 0, 4, 5), ("split", 1, 0, 0), ("split", 1, 2, 1), ("split", 0, 0, 0),
     ("whole-block", 0, 5, 5), ("whole-block", 1, 0, 0)],
)
def test_a_nan_in_a_partial_transpose_block_is_a_numerical_failure(monkeypatch, path, block, row, col):
    # rho's guards never read rho^T_A, so each solve must reject it: LAPACK
    # or the drift check the whole-block and 4x4 solves, the finite check
    # the closed forms
    real = entanglement.exchange_blocks

    def poisoned(moments):
        blocks = [b.copy() for b in real(moments)]
        blocks[block][:, 1, row, col] = blocks[block][:, 1, col, row] = np.nan
        return tuple(blocks)

    monkeypatch.setattr(entanglement, "exchange_blocks", poisoned)
    with pytest.raises(np.linalg.LinAlgError, match="finite|drifted|converge"):
        state_readings(_PATHS[path][0](_diagonal_moments((1.0, 1.0, 0.0), (1.0, 1.0, 0.0))))


def _whole_block_readings(moments):
    """min eigenvalues and sorted partial-transpose spectra from the whole 6x6 and 3x3 blocks."""
    sym, anti = entanglement.exchange_blocks(moments)
    tr = np.trace(sym[:, 0], axis1=1, axis2=2) + np.trace(anti[:, 0], axis1=1, axis2=2)
    spectra = np.concatenate(
        [entanglement.hermitian_eigenvalues(sym), entanglement.hermitian_eigenvalues(anti)], axis=-1
    ) / tr[:, None, None]
    return spectra[:, 0].min(axis=1), np.sort(spectra[:, 1], axis=1)


@pytest.mark.parametrize("n_theta, n_phi", [(16, 16), (17, 12)])
@pytest.mark.parametrize("alpha", [0.0, math.pi / 8, 2 * math.pi / 5, math.pi / 2])
def test_split_spectra_match_the_whole_block_spectra(monkeypatch, alpha, n_theta, n_phi):
    # mechanism pin (split solve, ROADMAP item 14): a sweep stack takes one
    # 4x4 solve, and its spectra are those of the whole 6x6 and 3x3 blocks
    grid = build_grid(BeamSpec(1.0), n_theta, n_phi)
    moments = transported_moments(boost_stack(alpha, np.linspace(-15.0, 15.0, 31)), grid)
    min_want, spectra_want = _whole_block_readings(moments)
    shapes = _solved_shapes(monkeypatch)
    _, min_eig, _, spectra = state_readings(moments)
    assert shapes == [(31, 2, 4, 4)]
    assert np.abs(min_eig - min_want).max() <= 1e-15
    assert np.abs(np.sort(spectra, axis=1) - spectra_want).max() <= 1e-15


def test_a_stack_with_one_rotated_row_takes_the_whole_block_solve(monkeypatch):
    # mechanism pin (whole-block solve, ROADMAP item 14): one coupled row
    # sends its whole stack to the 6x6 and 3x3 solves
    turned = compose(compose(rot_z(0.5), make_boost(0.7, 1.5)), rot_z(-0.5))
    stack = concatenated([boost_stack(2 * math.pi / 5, np.linspace(-6.0, 6.0, 9)), turned])
    moments = transported_moments(stack, build_grid(BeamSpec(1.3), 16, 16))
    split = state_readings(moments[:-1])
    alone = state_readings(moments[-1:])
    shapes = _solved_shapes(monkeypatch)
    tr, min_eig, gap, spectra = state_readings(moments)
    assert shapes == [(10, 2, 6, 6), (10, 2, 3, 3)]
    for got, want in zip((tr, gap), (np.concatenate(a) for a in zip(split[::2], alone[::2]))):
        assert np.array_equal(got, want)
    assert np.abs(min_eig - np.concatenate([split[1], alone[1]])).max() <= 1e-15
    want = np.sort(np.concatenate([split[3], alone[3]]), axis=1)
    assert np.abs(np.sort(spectra, axis=1) - want).max() <= 1e-15


def test_every_sweep_stack_takes_the_split_solve(monkeypatch):
    # mechanism pin (split solve, ROADMAP item 14).  Odd theta rules put a
    # node on the axis at alpha = pi/2, narrow and full-width beams,
    # rapidities out to the cap.  The 420 rows of the 60
    # curves go through the state stage in order, ROWS_PER_BLOCK at a time,
    # so each stack holds rows of many curves and grids: one row with a
    # nonzero coupling would send its whole stack to the 6x6 and 3x3 solves
    cfgs = [
        SweepConfig(alpha=alpha, sigma_theta=sigma, xi_min=-15.0, xi_max=15.0, xi_steps=7,
                    n_theta=n_theta, n_phi=n_phi)
        for n_theta, n_phi in ((8, 8), (9, 8), (33, 12), (48, 48))
        for sigma in (0.1, 1.0, math.pi)
        for alpha in (0.0, 0.7, math.pi / 2, 2 * math.pi / 5, 3.0)
    ]
    shapes = _solved_shapes(monkeypatch)
    run_sweeps(cfgs)
    rows = 7 * len(cfgs)
    assert shapes == [(ROWS_PER_BLOCK, 2, 4, 4), (rows - ROWS_PER_BLOCK, 2, 4, 4)]


@pytest.mark.parametrize(
    "boost",
    [
        make_boost(0.7, 1.5),
        boost_z(1.5),
        compose(compose(rot_z(0.5), make_boost(0.7, 1.5)), rot_z(-0.5)),
    ],
    ids=["factor-row", "matrix", "off-plane"],
)
def test_unnormalized_azimuth_trips_the_trace_guard(monkeypatch, boost):
    # an aberration map whose azimuth (cos psi, sin psi) is not of unit
    # length reads the polarizations against a theta-hat of the wrong
    # length, which the unnormalized trace exposes on every axis, in the
    # x-z plane or off it.  The table pass reads the azimuth as
    # (p . e1, p . e2) / s, with s taken from p . m, so p . e1 and p . e2
    # are scaled
    _scaled_projections(monkeypatch, [0, 1], 1.5)
    spec = BeamSpec(1.0)
    with pytest.raises(np.linalg.LinAlgError, match="trace"):
        reduced_density(boost, build_grid(spec, 16, 16), spec)


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
