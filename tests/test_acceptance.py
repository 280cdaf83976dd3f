"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 5 (and its clause inside criterion 13) pins the
wide-beam revival against the closed-form xi -> -inf limit in
``oracles.deep_boost_limit_density``: for sigma = 1.3 at alpha = 2*pi/5
the revival can never exceed that limit, L_inf = 0.0227 on converged
grids, so its size is stated as a share of L_inf rather than as a fixed
number.
"""
import math
import time

import numpy as np
import pytest

from conftest import angle_gap
from oracles import (
    axial_boost_density,
    deep_boost_limit_density,
    direct_double_sum_density,
    helicity_route_density,
    production_transport,
    random_cases,
    random_momenta,
    random_stack,
    rotation_form_density,
)
from photonboost.beams import BeamSpec, build_grid, density_states, reduced_density
from photonboost.entanglement import log_negativity, partial_transpose_A
from photonboost.lorentz import compose, identity, rot_y, rot_z
from photonboost.sweep import (
    SweepConfig,
    boost_stack,
    make_boost,
    preset_fig2,
    preset_fig3,
    rows_to_csv,
    run_sweep,
)
from photonboost.wigner import d_rotation_form_stack, wigner_angle_oracle_stack, wigner_angle_stack

ALPHA_FIG3 = 2 * math.pi / 5
# log negativity at or below this marks a positive partial transpose (PPT)
PPT_TOL = 1e-9


def _ln(alpha, xi, sigma, n=64):
    spec = BeamSpec(sigma)
    grid = build_grid(spec, n, n)
    return log_negativity(reduced_density(make_boost(alpha, xi), grid, spec))


def _curve(rows):
    xi = np.array([r.xi for r in rows])
    ln = np.array([r.log_negativity for r in rows])
    return xi, ln


@pytest.fixture(scope="module")
def fig2_runs():
    start = time.perf_counter()
    runs = {cfg.alpha: run_sweep(cfg) for cfg in preset_fig2()}
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig3_runs():
    start = time.perf_counter()
    runs = {cfg.sigma_theta: run_sweep(cfg) for cfg in preset_fig3()}
    return runs, time.perf_counter() - start


def test_criterion_01_bell_limit():
    start = time.perf_counter()
    ln = _ln(0.0, 0.0, 0.01)
    elapsed = time.perf_counter() - start
    assert abs(ln - 1.0) < 1e-3
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 01 PASS: narrow-beam LN = {ln:.6f} (target 1 +- 1e-3) in {elapsed:.2f} s")


def test_criterion_02_half_maximal_at_rest(fig2_runs):
    runs, _ = fig2_runs
    xi, ln = _curve(runs[0.0])
    at_rest = float(ln[np.argmin(np.abs(xi))])
    assert abs(at_rest - 0.5) < 0.15
    print(f"\nACCEPTANCE 02 PASS: LN(sigma=1, xi=0) = {at_rest:.4f} (target 0.5 +- 0.15)")


def test_criterion_03_small_spread_insensitive(fig3_runs):
    runs, _ = fig3_runs
    xi, ln = _curve(runs[0.1])
    ref = float(ln[np.argmin(np.abs(xi))])
    dev = float(np.abs(ln - ref).max())
    assert dev < 0.02
    print(f"\nACCEPTANCE 03 PASS: max |LN - LN(0)| = {dev:.4f} at sigma=0.1 (target < 0.02)")


def test_criterion_04_forward_boost_saturates(fig2_runs):
    runs, _ = fig2_runs
    xi, ln = _curve(runs[0.0])
    fwd = ln[xi >= -1e-12]
    fwd_xi = xi[xi >= -1e-12]
    assert np.all(np.diff(fwd) >= -1e-9)
    tail = float(fwd[np.argmin(np.abs(fwd_xi - 3.0))] - fwd[np.argmin(np.abs(fwd_xi - 2.5))])
    assert tail < 0.02
    print(f"\nACCEPTANCE 04 PASS: LN nondecreasing on [0,3], LN(3)-LN(2.5) = {tail:.5f} (< 0.02)")


def test_axial_boost_reaches_both_limits_to_rounding():
    # alpha = 0, sigma = 1.0 on 64^2: deep backward boosts are PPT, an exact
    # 0, and deep forward boosts approach L+inf = 1 like exp(-2 xi), as the
    # closed form of the axial boost (no boost matrix, no Wigner angle) has it
    # within rounding; the gauge form's own rounding is ~1e-10 at |xi| = 15
    cfg = SweepConfig(alpha=0.0, sigma_theta=1.0, xi_min=-15.0, xi_max=15.0, xi_steps=11)
    grid = build_grid(BeamSpec(cfg.sigma_theta), cfg.n_theta, cfg.n_phi)
    rows = {row.xi: row.log_negativity for row in run_sweep(cfg)}
    for xi in (-15.0, -12.0):
        assert rows[xi] <= 1e-14, (xi, rows[xi])
    for xi in (12.0, 15.0):
        assert abs(rows[xi] - log_negativity(axial_boost_density(xi, grid))) <= 1e-14, xi
        assert 0.0 < (1.0 - rows[xi]) * math.exp(2.0 * xi) < 1.0, (xi, rows[xi])


def test_criterion_05_zero_crossing_and_revival():
    # search the existential claim well past the preset window
    xi_grid = np.arange(-6.0, 0.0 + 1e-9, 0.1)
    spec = BeamSpec(1.3)
    grid = build_grid(spec, 96, 96)
    ln = np.array(
        [log_negativity(reduced_density(make_boost(ALPHA_FIG3, x), grid, spec)) for x in xi_grid]
    )
    ln_inf = log_negativity(deep_boost_limit_density(ALPHA_FIG3, grid))
    ppt = np.flatnonzero((xi_grid < -1e-12) & (ln <= PPT_TOL))
    assert ppt.size, f"no PPT point at negative rapidity (min LN {ln.min():.2e})"
    # the PPT point reached last as the rapidity grows more negative
    last = ppt[0]
    assert np.all(np.diff(ln[: last + 1]) <= 1e-9), "LN falls again below the PPT stretch"
    gap_inf = abs(ln[0] - ln_inf)
    assert gap_inf < 1e-4, (
        f"LN(-6) = {ln[0]:.5f} is {gap_inf:.1e} from the xi -> -inf limit {ln_inf:.5f}"
    )
    j = np.argmin(np.abs(xi_grid - (xi_grid[last] - 1.0)))
    assert abs(xi_grid[j] - (xi_grid[last] - 1.0)) < 1e-9, "PPT stretch reaches the search edge"
    rise = ln[j] - ln[last]
    assert rise > 0.5 * ln_inf, (
        f"revival gains only {rise:.4f} within one rapidity unit of the PPT point at "
        f"xi = {xi_grid[last]:.1f}, against half the limit {0.5 * ln_inf:.4f}"
    )
    print(
        f"\nACCEPTANCE 05 PASS: PPT on [{xi_grid[ppt[0]]:.1f}, {xi_grid[ppt[-1]]:.1f}], "
        f"revival {rise:.4f} within one unit (> L_inf/2 = {0.5 * ln_inf:.4f}), "
        f"|LN(-6) - L_inf| = {gap_inf:.1e} (< 1e-4)"
    )


def test_criterion_06_transverse_symmetry(fig2_runs):
    runs, _ = fig2_runs
    xi, ln = _curve(runs[math.pi / 2])
    asym = float(np.abs(ln - ln[::-1]).max())
    assert asym <= 0.05
    print(f"\nACCEPTANCE 06 PASS: max |LN(xi) - LN(-xi)| = {asym:.2e} at alpha=pi/2 (<= 0.05)")


def test_criterion_07_wigner_oracle_equivalence():
    rng = np.random.default_rng(7)
    L, p = random_stack(rng, 1000), random_momenta(rng, 1000)
    worst = float(angle_gap(wigner_angle_stack(L, p), wigner_angle_oracle_stack(L, p)).max())
    assert worst < 1e-9
    print(f"\nACCEPTANCE 07 PASS: 1000 cases, max closed-form/oracle gap {worst:.2e} (< 1e-9)")


def test_criterion_08_transport_form_equivalence():
    rng = np.random.default_rng(8)
    L, p, eps = random_cases(rng, 1000, np.exp(rng.uniform(math.log(0.5), math.log(2.0), 1000)))
    rotated = d_rotation_form_stack(L, p, eps)
    worst_form = float(np.abs(rotated[1:] - production_transport(L, p, eps)).max())
    L1, p, eps = random_cases(rng, 1000, max_factors=3)
    L2 = random_stack(rng, 1000, max_factors=3)
    stepped = d_rotation_form_stack(L2, L1.apply(p), d_rotation_form_stack(L1, p, eps))
    direct = d_rotation_form_stack(compose(L2, L1), p, eps)
    worst_group = float(np.abs(stepped - direct).max())
    assert worst_form < 1e-10
    assert worst_group < 1e-9
    print(
        f"\nACCEPTANCE 08 PASS: 1000 cases, form gap {worst_form:.2e} (< 1e-10), "
        f"group gap {worst_group:.2e} (< 1e-9)"
    )


def test_criterion_09_rotation_invariance():
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 64, 64)
    base = log_negativity(reduced_density(identity(), grid, spec))
    worst = 0.0
    for gamma in (0.3, 1.2, 2.9, -0.7):
        for rot in (rot_z(gamma), rot_y(gamma)):
            worst = max(worst, abs(log_negativity(reduced_density(rot, grid, spec)) - base))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 09 PASS: max LN shift under rotations {worst:.2e} (< 1e-8)")


def test_criterion_10_frequency_independence():
    # the production transport never sees a frequency; the rotation-form
    # route transports at omega * p-hat through the Wigner angle
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 64, 64)
    L = make_boost(0.4, 1.0)
    a = log_negativity(reduced_density(L, grid, spec))
    gap = max(
        abs(log_negativity(rotation_form_density(L, grid, omega)) - a) for omega in (0.1, 10.0)
    )
    assert gap < 1e-12
    print(f"\nACCEPTANCE 10 PASS: |LN - LN_rotation_form(omega = 0.1, 10)| = {gap:.2e} (< 1e-12)")


def test_criterion_11_construction_cross_checks():
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 8, 8)
    L = make_boost(ALPHA_FIG3, 0.8)
    fast = reduced_density(L, grid, spec)
    direct_gap = float(np.abs(fast - direct_double_sum_density(L, grid, 1.0)).max())
    helicity_gap = float(np.abs(fast - helicity_route_density(L, grid, 1.0)).max())
    assert direct_gap < 1e-10
    assert helicity_gap < 1e-10
    print(
        f"\nACCEPTANCE 11 PASS: direct-sum gap {direct_gap:.2e}, "
        f"helicity-route gap {helicity_gap:.2e} (< 1e-10)"
    )


def test_criterion_12_grid_convergence():
    xis = (-3.0, -1.5, 0.0, 1.5, 3.0)
    worst = {}
    curves = [(a, 1.0) for a in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)]
    curves += [(ALPHA_FIG3, s) for s in (0.1, 0.5, 1.0, 1.3)]
    for alpha, sigma in curves:
        spec = BeamSpec(sigma)
        coarse = build_grid(spec, 64, 64)
        fine = build_grid(spec, 128, 128)
        gap = max(
            abs(
                log_negativity(reduced_density(make_boost(alpha, xi), coarse, spec))
                - log_negativity(reduced_density(make_boost(alpha, xi), fine, spec))
            )
            for xi in xis
        )
        worst[(alpha, sigma)] = gap
        tol = 1e-3 if sigma > 1.0 else 1e-4
        assert gap < tol, f"alpha={alpha:.3f} sigma={sigma}: LN moved {gap:.2e} on refinement"
    overall = max(worst.values())
    print(f"\nACCEPTANCE 12 PASS: worst 64 vs 128 LN shift {overall:.2e} across 9 curves")


def test_criterion_13_figure_reproduction(fig2_runs, fig3_runs):
    runs2, t2 = fig2_runs
    runs3, t3 = fig3_runs
    assert t2 < 60.0 and t3 < 60.0
    for runs in (runs2, runs3):
        for rows in runs.values():
            text = rows_to_csv(rows)
            assert text.splitlines()[0].startswith("alpha,")

    # criterion 2 on the emitted curves
    xi, ln = _curve(runs2[0.0])
    assert abs(ln[np.argmin(np.abs(xi))] - 0.5) < 0.15
    # criterion 3
    xi, ln = _curve(runs3[0.1])
    assert np.abs(ln - ln[np.argmin(np.abs(xi))]).max() < 0.02
    # criterion 4
    xi, ln = _curve(runs2[0.0])
    fwd, fwd_xi = ln[xi >= -1e-12], xi[xi >= -1e-12]
    assert np.all(np.diff(fwd) >= -1e-9)
    assert fwd[np.argmin(np.abs(fwd_xi - 3.0))] - fwd[np.argmin(np.abs(fwd_xi - 2.5))] < 0.02
    # criterion 6
    xi, ln = _curve(runs2[math.pi / 2])
    assert np.abs(ln - ln[::-1]).max() <= 0.05
    # criterion 5 on the emitted sigma = 1.3 curve, which stops at xi = -3
    xi, ln = _curve(runs3[1.3])
    ppt = np.flatnonzero((xi < -1e-12) & (ln <= PPT_TOL))
    assert ppt.size, "emitted sigma=1.3 curve has no PPT row at negative rapidity"
    last = ppt[0]
    assert np.all(np.diff(ln[: last + 1]) <= 1e-9) and ln[0] > ln[last], (
        f"emitted sigma=1.3 curve does not rise from the PPT row at xi = {xi[last]:.1f} "
        f"down to xi = {xi[0]:.1f}"
    )
    cfg = next(c for c in preset_fig3() if c.sigma_theta == 1.3)
    grid = build_grid(BeamSpec(cfg.sigma_theta), cfg.n_theta, cfg.n_phi)
    ln_inf = log_negativity(deep_boost_limit_density(cfg.alpha, grid))
    assert ln[0] <= ln_inf + 1e-4, (
        f"emitted LN({xi[0]:.1f}) = {ln[0]:.5f} exceeds the xi -> -inf limit {ln_inf:.5f}"
    )
    print(f"\nACCEPTANCE 13 PASS: fig2 in {t2:.1f} s, fig3 in {t3:.1f} s, curves consistent")


def test_ppt_rows_print_an_exact_zero(fig2_runs, fig3_runs):
    # against the 9x9 route: log2 of the trace norm of the partial
    # transpose, from the whole spectrum of each normalized state
    curves = [(cfg, fig2_runs[0][cfg.alpha]) for cfg in preset_fig2()]
    curves += [(cfg, fig3_runs[0][cfg.sigma_theta]) for cfg in preset_fig3()]
    ppt_rows = 0
    for cfg, rows in curves:
        grid = build_grid(BeamSpec(cfg.sigma_theta), cfg.n_theta, cfg.n_phi)
        states = density_states(boost_stack(cfg.alpha, cfg.xi_values()), grid)[0]
        pt = np.linalg.eigvalsh(partial_transpose_A(states))
        old = np.maximum(np.log2(np.abs(pt).sum(axis=1)), 0.0)
        cells = [line.split(",")[3] for line in rows_to_csv(rows).splitlines()[1:]]
        for row, cell, smallest, want in zip(rows, cells, pt[:, 0], old):
            if smallest >= 0.0:
                ppt_rows += 1
                assert row.log_negativity == 0.0 and cell == "0", (cfg, row.xi)
            else:
                assert cell == f"{want:.9g}", (cfg, row.xi)
    assert ppt_rows >= 10
