"""Self-check suite runnable from the CLI.

Each group re-verifies one family of invariants on seeded random inputs and
reports the worst residual it saw.  The groups deliberately route through
the public module surfaces (not cached locals), so an injected bug in any
single formula flips the matching group to failed.  Case counts are sized
for an interactive run; the test suite runs larger samples of the same
checks.

The groups that check the oracle routes case by case draw each case's
inputs in a plain loop, then evaluate every route once over the whole
group as a lorentz.TransformStack.  Every group folds its
residuals with np.max / np.min, which keep a NaN, and every pass test is
written so that a NaN fails it.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import beams, entanglement, lorentz, polarization, sweep, wigner

DEFAULT_SEED = 20240801

# the worst gap seen over 1e5 random transforms of up to five factors, at
# two frequencies each, was 8.5 ulp(pi) per factor; the budget leaves a
# factor of two above that
_FREQUENCY_ULPS_PER_FACTOR = 16

# grid nodes whose production transport omega_independence compares with
# the rotation form at two frequencies, and the largest gap it accepts (the
# worst of seeds 0-39 was 1.8e-15)
_OMEGA_NODES = 16
_OMEGA_TRANSPORT_TOL = 1e-12
_OMEGAS = (0.1, 10.0)


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


def _draw_factors(rng, max_factors: int = 5, max_rapidity: float = 0.6) -> list:
    """Random (kind, parameter) list of up to max_factors generator factors.

    Rapidities are kept modest so the conditioning stays compatible with
    the tight metric and little-group tolerances.
    """
    n = int(rng.integers(1, max_factors + 1))
    factors = []
    for _ in range(n):
        kind = lorentz.GENERATOR_KINDS[int(rng.integers(0, 3))]
        bound = max_rapidity if kind == lorentz.BOOST_Z else math.pi
        factors.append((kind, rng.uniform(-bound, bound)))
    return factors


def _draw_angles(rng) -> tuple[float, float]:
    """(theta, phi) of a direction uniform on the sphere."""
    return math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)


def _draw_magnitude(rng) -> float:
    return math.exp(rng.uniform(math.log(0.5), math.log(2.0)))


def _draw_momentum(rng) -> tuple[float, float, float]:
    """(magnitude, theta, phi) of a random null momentum."""
    return (_draw_magnitude(rng), *_draw_angles(rng))


def _draw_coefficients(rng) -> np.ndarray:
    """Unit complex weights of the two helicities."""
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    return c / np.linalg.norm(c)


def _polarizations(coefficients, thetas, phis) -> np.ndarray:
    """c_+ eps_+ + c_- eps_- at each direction, for (..., 2) coefficients."""
    c = np.asarray(coefficients).T
    plus = polarization.epsilon_stack(thetas, phis, +1)
    minus = polarization.epsilon_stack(thetas, phis, -1)
    return c[0] * plus + c[1] * minus


def _momenta(draws) -> np.ndarray:
    """(4, k) null momenta of (magnitude, theta, phi) draws."""
    mags, thetas, phis = np.array(draws).T
    return lorentz.null_momenta(thetas, phis, mags)


def _angle_gap(a, b) -> np.ndarray:
    return np.abs(wigner.principal_angle(np.subtract(a, b)))


def _worst(residuals) -> float:
    """Largest residual; NaN if any residual is NaN (Python's max would drop it)."""
    return float(np.max(residuals))


def _check_metric(rng, cases: int) -> GroupResult:
    factors, draws = [], []
    for _ in range(cases):
        factors.append(_draw_factors(rng))
        draws.append(_draw_momentum(rng))
    stack = lorentz.stack_from_factors(factors)
    q = stack.apply(_momenta(draws))
    worst_metric = _worst(lorentz.metric_residuals(stack.matrices))
    worst_factor = _worst(lorentz.factor_residuals(stack))
    worst_null = _worst(np.abs(q[0] * q[0] - q[1] * q[1] - q[2] * q[2] - q[3] * q[3]))
    passed = worst_metric < 1e-12 and worst_factor < 1e-12 and worst_null < 1e-10
    return GroupResult(
        "metric",
        passed,
        f"metric {worst_metric:.2e}, factors {worst_factor:.2e}, null {worst_null:.2e}",
    )


def _check_wigner_oracle(rng, cases: int) -> GroupResult:
    factors, draws = [], []
    for _ in range(cases):
        factors.append(_draw_factors(rng))
        draws.append(_draw_momentum(rng))
    stack = lorentz.stack_from_factors(factors)
    p = _momenta(draws)
    worst = _worst(
        _angle_gap(wigner.wigner_angle_stack(stack, p), wigner.wigner_angle_oracle_stack(stack, p))
    )
    return GroupResult("wigner_oracle", worst < 1e-9, f"max angle gap {worst:.2e}")


def _check_d_forms(rng, cases: int) -> GroupResult:
    factors, angles, mags, coefficients = [], [], [], []
    for _ in range(cases):
        factors.append(_draw_factors(rng))
        angles.append(_draw_angles(rng))
        mags.append(_draw_magnitude(rng))
        coefficients.append(_draw_coefficients(rng))
    stack = lorentz.stack_from_factors(factors)
    thetas, phis = np.array(angles).T
    p = lorentz.null_momenta(thetas, phis, mags)
    eps = _polarizations(coefficients, thetas, phis)
    a = polarization.d_rotation_form_stack(stack, p, eps)
    b = polarization.d_gauge_form_stack(stack, p, eps)
    worst = _worst(np.abs(a - b))
    return GroupResult("d_form_equivalence", worst < 1e-10, f"max form gap {worst:.2e}")


def _check_composition(rng, cases: int) -> GroupResult:
    first, second, draws, coefficients = [], [], [], []
    for _ in range(cases):
        first.append(_draw_factors(rng, max_factors=3))
        second.append(_draw_factors(rng, max_factors=3))
        draws.append(_draw_momentum(rng))
        coefficients.append(_draw_coefficients(rng))
    s1 = lorentz.stack_from_factors(first)
    s2 = lorentz.stack_from_factors(second)
    combined = lorentz.compose(s2, s1)
    p = _momenta(draws)
    p1 = s1.apply(p)
    worst_angle = _worst(
        _angle_gap(
            wigner.wigner_angle_stack(combined, p),
            wigner.wigner_angle_stack(s2, p1) + wigner.wigner_angle_stack(s1, p),
        )
    )
    eps = _polarizations(coefficients, *lorentz.direction_angles(p[1:]))
    stepped = polarization.d_rotation_form_stack(
        s2, p1, polarization.d_rotation_form_stack(s1, p, eps)
    )
    direct = polarization.d_rotation_form_stack(combined, p, eps)
    worst_transport = _worst(np.abs(stepped - direct))
    passed = worst_angle < 1e-9 and worst_transport < 1e-9
    return GroupResult(
        "composition_laws", passed, f"angle {worst_angle:.2e}, transport {worst_transport:.2e}"
    )


def _check_rho_sanity(rng, cases: int) -> GroupResult:
    traces, herms, eigs = [], [], []
    for _ in range(cases):
        spec = beams.BeamSpec(rng.uniform(0.05, 1.3))
        grid = beams.build_grid(spec, 32, 32)
        L = sweep.make_boost(rng.uniform(0.0, math.pi / 2), rng.uniform(-2.0, 2.0))
        rho = beams.reduced_density(L, grid, spec)
        traces.append(rho.trace_residual())
        herms.append(float(np.abs(rho.entries - rho.entries.T).max()))
        eigs.append(rho.min_eigenvalue())
    worst_trace, worst_herm = _worst(traces), _worst(herms)
    worst_eig = float(np.min(eigs))  # NaN stays NaN and fails
    passed = worst_trace < 1e-10 and worst_herm < 1e-10 and worst_eig >= -1e-9
    return GroupResult(
        "rho_sanity",
        passed,
        f"trace {worst_trace:.2e}, hermiticity {worst_herm:.2e}, min eig {worst_eig:.2e}",
    )


def _check_ln_rotation_invariance(rng, cases: int) -> GroupResult:
    spec = beams.BeamSpec(1.0)
    grid = beams.build_grid(spec, 32, 32)
    base = entanglement.log_negativity(beams.reduced_density(lorentz.identity(), grid, spec))
    lns = []
    for _ in range(cases):
        rot = lorentz.rot_z(rng.uniform(-math.pi, math.pi))
        if rng.integers(0, 2):
            rot = lorentz.compose(rot, lorentz.rot_y(rng.uniform(-math.pi, math.pi)))
        lns.append(entanglement.log_negativity(beams.reduced_density(rot, grid, spec)))
    worst = _worst(np.abs(np.subtract(lns, base)))
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
    factors, angles = [], []
    for _ in range(cases):
        factors.append(_draw_factors(rng))
        angles.append(_draw_angles(rng))
    stack = lorentz.stack_from_factors(factors)
    thetas, phis = np.array(angles).T
    base = wigner.wigner_angle_stack(stack, lorentz.null_momenta(thetas, phis, 1.0))
    gaps = np.array([
        _angle_gap(wigner.wigner_angle_stack(stack, lorentz.null_momenta(thetas, phis, w)), base)
        for w in _OMEGAS
    ])
    worst_angle = _worst(gaps)
    worst_ratio = _worst(gaps / frequency_angle_tolerance(stack))
    # the production transport never sees a frequency; the rotation form,
    # which goes through the Wigner angle at omega * p-hat, must reproduce
    # it at every omega
    grid = beams.build_grid(beams.BeamSpec(1.0), 32, 32)
    nodes = rng.choice(len(grid), _OMEGA_NODES, replace=False)
    L = lorentz.stack_from_factors([_draw_factors(rng)])
    # the grid's h/v vectors carry sqrt(w); transport is linear in them
    production = beams.transport(L.matrices, grid.vectors[:, :, nodes])[0]
    production /= np.sqrt(grid.weights[nodes])
    thetas, phis = grid.thetas[nodes], grid.phis[nodes]
    basis = np.hstack(
        [polarization.h_vec_stack(thetas, phis), polarization.v_vec_stack(thetas, phis)]
    )
    rotated = np.empty((len(_OMEGAS),) + production.shape, dtype=complex)
    for k, omega in enumerate(_OMEGAS):
        p = lorentz.null_momenta(thetas, phis, omega)
        out = polarization.d_rotation_form_stack(L, np.hstack([p, p]), basis)
        rotated[k] = out[1:].reshape(production.shape)
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
    shifts = []
    for sigma in (0.5, 1.0, 1.3):
        spec = beams.BeamSpec(sigma)
        coarse = beams.build_grid(spec, 64, 64)
        fine = beams.build_grid(spec, 128, 128)
        for xi in (0.0, 2.0, -2.0):
            L = sweep.make_boost(2 * math.pi / 5, xi)
            a = beams.reduced_density(L, coarse, spec)
            b = beams.reduced_density(L, fine, spec)
            shifts.append(np.abs(a.entries - b.entries))
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
    """Run every invariant group and collect pass/fail results."""
    results = []
    for name, fn, cases in _GROUPS:
        rng = _group_rng(seed, name)
        try:
            results.append(fn(rng, cases))
        except Exception as exc:  # a crash in a group is a failure, not an abort
            results.append(GroupResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return ValidationReport(tuple(results))
