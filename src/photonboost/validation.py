"""Self-check suite runnable from the CLI.

Each group re-verifies one family of invariants on seeded random inputs and
reports the worst residual it saw.  The groups deliberately route through
the public module surfaces (not cached locals), so an injected bug in any
single formula flips the matching group to failed.  Case counts are sized
for an interactive run; the test suite runs larger samples of the same
checks.

The groups that check the oracle routes draw all their cases at once (a
padded factor table, momenta, polarizations) and evaluate every route
once over the whole group as a lorentz.TransformStack.  Every group
folds its residuals with np.max / np.min, which keep a NaN, and every
pass test is written so that a NaN fails it.
"""
from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass

import numpy as np

from . import beams, entanglement, lorentz, sweep, wigner

DEFAULT_SEED = 20240801

# the worst gap seen over 1e5 random transforms of up to five factors, at
# two frequencies each, was 8.5 ulp(pi) per factor; the budget leaves a
# factor of two above that
_FREQUENCY_ULPS_PER_FACTOR = 16

# grid nodes whose production transport omega_independence compares with
# the rotation form at two frequencies, and the largest gap it accepts (the
# worst of seeds 0-39 was 2.2e-15)
_OMEGA_NODES = 16
_OMEGA_TRANSPORT_TOL = 1e-12
_OMEGAS = (0.1, 10.0)

# drawn in-plane boosts whose axis pass d_form_equivalence compares with
# the rotation form, on a grid of this many thetas and phis
_IN_PLANE_BOOSTS = 3
_IN_PLANE_NODES = 8


@dataclass(frozen=True)
class GroupResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    groups: tuple[GroupResult, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "groups": {g.name: {"passed": g.passed, "detail": g.detail} for g in self.groups},
        }


def _draw_stack(rng, k: int, max_factors=5, max_rapidity=0.6) -> lorentz.TransformStack:
    """k random products of 1 to max_factors generators, as one padded factor table.

    Each row holds its true factors first, then PAD.  Rotation angles lie
    in (-pi, pi); rapidities are kept modest so the conditioning stays
    compatible with the tight metric and little-group tolerances.
    """
    counts = rng.integers(1, max_factors + 1, size=k)
    kinds = rng.integers(0, len(lorentz.GENERATOR_KINDS), size=(k, max_factors))
    bounds = np.where(kinds == lorentz.BOOST_Z, max_rapidity, math.pi)
    params = rng.uniform(-bounds, bounds)
    padding = np.arange(max_factors) >= counts[:, None]
    kinds[padding], params[padding] = lorentz.PAD, 0.0
    return lorentz.TransformStack(kinds, params)


def _draw_momenta(rng, k: int, magnitudes=None) -> np.ndarray:
    """(4, k) null momenta in uniform directions; magnitudes log-uniform in [0.5, 2] unless given."""
    thetas, phis = np.arccos(rng.uniform(-1.0, 1.0, k)), rng.uniform(0.0, 2.0 * math.pi, k)
    if magnitudes is None:
        magnitudes = np.exp(rng.uniform(math.log(0.5), math.log(2.0), k))
    return lorentz.null_momenta(thetas, phis, magnitudes)


def _draw_polarizations(rng, thetas, phis) -> np.ndarray:
    """(4, k) unit transverse polarizations c_+ eps_+ + c_- eps_- at k directions."""
    c = rng.normal(size=(2, len(thetas))) + 1j * rng.normal(size=(2, len(thetas)))
    c /= np.linalg.norm(c, axis=0)
    plus = wigner.epsilon_stack(thetas, phis, +1)
    minus = wigner.epsilon_stack(thetas, phis, -1)
    return c[0] * plus + c[1] * minus


def _angle_gap(a, b) -> np.ndarray:
    return np.abs(wigner.principal_angle(np.subtract(a, b)))


def _worst(residuals) -> float:
    """Largest residual; NaN if any residual is NaN (Python's max would drop it)."""
    return float(np.max(residuals))


def _check_metric(rng, cases: int) -> GroupResult:
    stack = _draw_stack(rng, cases)
    q = stack.apply(_draw_momenta(rng, cases))
    worst_metric = _worst(lorentz.metric_residuals(stack.matrices))
    worst_null = _worst(np.abs(q[0] * q[0] - q[1] * q[1] - q[2] * q[2] - q[3] * q[3]))
    passed = worst_metric < 1e-12 and worst_null < 1e-10
    return GroupResult("metric", passed, f"metric {worst_metric:.2e}, null {worst_null:.2e}")


def _check_wigner_oracle(rng, cases: int) -> GroupResult:
    stack, p = _draw_stack(rng, cases), _draw_momenta(rng, cases)
    worst = _worst(
        _angle_gap(wigner.wigner_angle_stack(stack, p), wigner.wigner_angle_oracle_stack(stack, p))
    )
    return GroupResult("wigner_oracle", worst < 1e-9, f"max angle gap {worst:.2e}")


def _in_plane_gap(rng) -> float:
    """Largest moment gap of the in-plane axis pass against the rotation form, over _IN_PLANE_BOOSTS boosts.

    The pass is the one sweeps run (beams.in_plane_moments); the rotation
    form transports the h/v vectors of the same stored nodes and of their
    images (theta, -phi), each at half the stored weight, and their Gram
    is the moments.
    """
    grid = beams.build_grid(beams.BeamSpec(rng.uniform(0.3, 1.3)), _IN_PLANE_NODES, _IN_PLANE_NODES)
    rows, cols = np.divmod(np.arange(len(grid)), len(grid.phis))
    thetas = np.tile(grid.thetas[rows], 2)
    phis = np.concatenate([grid.phis[cols], -grid.phis[cols]])
    root = np.sqrt(0.5 * np.tile(grid.theta_weights[rows] * grid.phi_weights[cols], 2))
    p = lorentz.null_momenta(thetas, phis, 1.0)
    # the map is real and linear: h + i v goes to the transported h + i v
    eps = wigner.h_vec_stack(thetas, phis) + 1j * wigner.v_vec_stack(thetas, phis)
    alphas, xis = rng.uniform([-math.pi, -2.0], [math.pi, 2.0], size=(_IN_PLANE_BOOSTS, 2)).T
    # one rotation-form call: each boost's factor row once per node column
    factors = np.repeat(np.column_stack([alphas, xis, -alphas]), len(thetas), axis=0)
    kinds = np.broadcast_to([lorentz.ROT_Y, lorentz.BOOST_Z, lorentz.ROT_Y], factors.shape)
    x = wigner.d_rotation_form_stack(
        lorentz.TransformStack(kinds, factors), np.tile(p, _IN_PLANE_BOOSTS), np.tile(eps, _IN_PLANE_BOOSTS)
    )[1:].reshape(3, _IN_PLANE_BOOSTS, -1)
    gaps = []
    for alpha, xi, y in zip(alphas, xis, x.swapaxes(0, 1)):
        (moments,) = beams.in_plane_moments(beams.in_plane_axes(alpha), [np.exp([-xi])], grid)
        # entry 2i + a of a node's column is component i of its h (a = 0) or v vector
        y = (np.stack([y.real, y.imag], axis=1) * root).reshape(6, -1)
        gaps.append(np.abs(moments[0] - y @ y.T))
    return _worst(gaps)


def _check_d_forms(rng, cases: int) -> GroupResult:
    stack, p = _draw_stack(rng, cases), _draw_momenta(rng, cases)
    eps = _draw_polarizations(rng, *lorentz.direction_angles(p[1:]))
    rotated = wigner.d_rotation_form_stack(stack, p, eps)
    # the production transport with one node per boost: vectors[i] is (p_i, eps_i)
    vectors = np.stack([p, eps], axis=1).transpose(2, 0, 1)[..., None]
    production = beams.transport(stack.matrices, vectors)[:, :, 0, 0].T
    worst = _worst(np.abs(rotated[1:] - production))
    worst_moments = _in_plane_gap(rng)
    return GroupResult(
        "d_form_equivalence",
        worst < 1e-10 and worst_moments < 1e-10,
        f"max form gap {worst:.2e}, in-plane moments gap {worst_moments:.2e}",
    )


def _check_composition(rng, cases: int) -> GroupResult:
    s1, s2 = _draw_stack(rng, cases, max_factors=3), _draw_stack(rng, cases, max_factors=3)
    combined = lorentz.compose(s2, s1)
    p = _draw_momenta(rng, cases)
    p1 = s1.apply(p)
    worst_angle = _worst(
        _angle_gap(
            wigner.wigner_angle_stack(combined, p),
            wigner.wigner_angle_stack(s2, p1) + wigner.wigner_angle_stack(s1, p),
        )
    )
    eps = _draw_polarizations(rng, *lorentz.direction_angles(p[1:]))
    stepped = wigner.d_rotation_form_stack(s2, p1, wigner.d_rotation_form_stack(s1, p, eps))
    direct = wigner.d_rotation_form_stack(combined, p, eps)
    worst_transport = _worst(np.abs(stepped - direct))
    # combined's matrices are products but its factor table is the two
    # tables side by side, which is what the closed-form fold reads
    worst_factor = _worst(lorentz.factor_residuals(combined))
    passed = worst_angle < 1e-9 and worst_transport < 1e-9 and worst_factor < 1e-12
    return GroupResult(
        "composition_laws",
        passed,
        f"angle {worst_angle:.2e}, transport {worst_transport:.2e}, factors {worst_factor:.2e}",
    )


def _check_rho_sanity(rng, cases: int) -> GroupResult:
    # the trace gap before normalization, within 1e-13 so that a gap under
    # the states' own 1e-12 guard still shows: the normalized trace is 1 to an ulp
    traces, herms, eigs = [], [], []
    for _ in range(cases):
        grid = beams.build_grid(beams.BeamSpec(rng.uniform(0.05, 1.3)), 32, 32)
        L = sweep.boost_stack(rng.uniform(0.0, math.pi / 2), [rng.uniform(-2.0, 2.0)])
        (rho,), min_eig, gap, _ = beams.density_states(L, grid)
        traces.append(gap)
        herms.append(np.abs(rho - rho.T).max())
        eigs.append(min_eig)
    worst_trace, worst_herm = _worst(traces), _worst(herms)
    worst_eig = float(np.min(eigs))  # NaN stays NaN and fails
    passed = worst_trace < 1e-13 and worst_herm < 1e-10 and worst_eig >= -1e-9
    return GroupResult(
        "rho_sanity",
        passed,
        f"trace {worst_trace:.2e}, hermiticity {worst_herm:.2e}, min eig {worst_eig:.2e}",
    )


def _check_ln_rotation_invariance(rng, cases: int) -> GroupResult:
    # row 0 is the identity (all PAD), the rest are the drawn R_z or R_z R_y
    kinds = np.full((cases + 1, 2), lorentz.PAD)
    params = np.zeros((cases + 1, 2))
    for i in range(1, cases + 1):
        kinds[i, 0], params[i, 0] = lorentz.ROT_Z, rng.uniform(-math.pi, math.pi)
        if rng.integers(0, 2):
            kinds[i, 1], params[i, 1] = lorentz.ROT_Y, rng.uniform(-math.pi, math.pi)
    grid = beams.build_grid(beams.BeamSpec(1.0), 32, 32)
    states = beams.density_states(lorentz.TransformStack(kinds, params), grid)[0]
    lns = entanglement.log_negativity(states)
    worst = _worst(np.abs(lns[1:] - lns[0]))
    return GroupResult("ln_rotation_invariance", worst < 1e-8, f"max LN shift {worst:.2e}")


def frequency_angle_tolerance(stack: lorentz.TransformStack) -> np.ndarray:
    """Rounding budget for Theta(L, p) against Theta(L, omega p), one per transform of stack.

    The closed form is exactly frequency independent, but rescaling the
    momentum rounds its components differently, and the fold adds one
    atan2 of magnitude at most pi per generator factor.  The budget is a
    fixed number of ulp(pi) per factor (_FREQUENCY_ULPS_PER_FACTOR),
    counting each transform's own factors, not the padded width of the
    table; a frequency-dependent bug moves the angle by O(1) and still
    trips it.
    """
    return _FREQUENCY_ULPS_PER_FACTOR * math.ulp(math.pi) * stack.factor_counts


def _check_omega_independence(rng, cases: int) -> GroupResult:
    # unit-frequency momenta: w * p is then exactly the momentum of frequency w
    stack, p = _draw_stack(rng, cases), _draw_momenta(rng, cases, 1.0)
    base = wigner.wigner_angle_stack(stack, p)
    gaps = np.array([_angle_gap(wigner.wigner_angle_stack(stack, w * p), base) for w in _OMEGAS])
    worst_angle = _worst(gaps)
    worst_ratio = _worst(gaps / frequency_angle_tolerance(stack))
    # the production transport never sees a frequency; the rotation form,
    # which goes through the Wigner angle at omega * p-hat, must reproduce
    # it at every omega
    grid = beams.build_grid(beams.BeamSpec(1.0), 32, 32)
    nodes = rng.choice(len(grid), _OMEGA_NODES, replace=False)
    L = _draw_stack(rng, 1)
    # the grid's h/v vectors carry sqrt(w); transport is linear in them
    vectors = np.concatenate([beams._node_vectors(grid, i, i + 1) for i in nodes], axis=-1)
    production = beams.transport(L.matrices, vectors)[0]
    # stored node i is row i // columns and column i % columns of the product rule
    rows, cols = np.divmod(nodes, len(grid.phis))
    production /= np.sqrt(grid.theta_weights[rows] * grid.phi_weights[cols])
    thetas, phis = grid.thetas[rows], grid.phis[cols]
    basis = np.hstack([wigner.h_vec_stack(thetas, phis), wigner.v_vec_stack(thetas, phis)])
    # one rotation-form call: the h and v columns of every node, once per omega
    p = np.hstack([lorentz.null_momenta(thetas, phis, w) for w in _OMEGAS for _ in "hv"])
    out = wigner.d_rotation_form_stack(L, p, np.tile(basis, len(_OMEGAS)))[1:]
    rotated = out.reshape((3, len(_OMEGAS)) + production.shape[1:]).swapaxes(0, 1)
    worst_transport = _worst(np.abs(rotated - production))
    passed = worst_ratio <= 1.0 and worst_transport < _OMEGA_TRANSPORT_TOL
    return GroupResult(
        "omega_independence",
        passed,
        f"angle {worst_angle:.2e} ({worst_ratio:.2f} of its rounding budget), "
        f"transport {worst_transport:.2e}",
    )


def _check_convergence(rng, cases: int) -> GroupResult:
    # entrywise grid-doubling stability; |xi| <= 2 keeps the boosted
    # integrand resolvable at the default node count
    boosts = sweep.boost_stack(2 * math.pi / 5, [0.0, 2.0, -2.0])
    shifts = []
    for sigma in (0.5, 1.0, 1.3):
        spec = beams.BeamSpec(sigma)
        coarse = beams.density_states(boosts, beams.build_grid(spec, 64, 64))[0]
        fine = beams.density_states(boosts, beams.build_grid(spec, 128, 128))[0]
        shifts.append(np.abs(coarse - fine))
    worst = _worst(shifts)
    return GroupResult("convergence", worst < 1e-6, f"max entry shift {worst:.2e}")


_GROUPS = (
    ("metric", _check_metric, 200),
    ("wigner_oracle", _check_wigner_oracle, 400),
    ("d_form_equivalence", _check_d_forms, 300),
    ("composition_laws", _check_composition, 200),
    ("rho_sanity", _check_rho_sanity, 12),
    ("ln_rotation_invariance", _check_ln_rotation_invariance, 8),
    ("omega_independence", _check_omega_independence, 50),
    ("convergence", _check_convergence, 0),
)


def _group_rng(seed: int, name: str) -> np.random.Generator:
    """The generator validate(seed) hands to the group called name."""
    return np.random.default_rng(seed ^ zlib.crc32(name.encode()))


def validate(seed: int = DEFAULT_SEED) -> ValidationReport:
    """Run every invariant group and collect pass/fail results.

    A seed that is not a non-negative integer raises ValueError first.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    results = []
    for name, fn, cases in _GROUPS:
        rng = _group_rng(seed, name)
        try:
            results.append(fn(rng, cases))
        except Exception as exc:  # a crash in a group is a failure, not an abort
            results.append(GroupResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return ValidationReport(tuple(results))
