"""Self-check suite runnable from the CLI.

Each group re-verifies one family of invariants on seeded random inputs and
reports the worst residual it saw.  The groups deliberately route through
the public module surfaces (not cached locals), so an injected bug in any
single formula flips the matching group to failed.  Case counts are sized
for an interactive run; the test suite runs larger samples of the same
checks.
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


def random_transform(rng, max_factors: int = 5, max_rapidity: float = 0.6):
    """Random product of up to max_factors generators.

    Rapidities are kept modest so the conditioning stays compatible with
    the tight metric and little-group tolerances.
    """
    n = int(rng.integers(1, max_factors + 1))
    factors = []
    for _ in range(n):
        kind = lorentz.GENERATOR_KINDS[int(rng.integers(0, 3))]
        if kind == lorentz.BOOST_Z:
            factors.append((kind, rng.uniform(-max_rapidity, max_rapidity)))
        else:
            factors.append((kind, rng.uniform(-math.pi, math.pi)))
    return lorentz.from_factors(factors)


def random_direction(rng) -> lorentz.Direction:
    return lorentz.Direction(
        math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
    )


def random_null_momentum(rng) -> lorentz.FourVector:
    mag = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return lorentz.null_momentum(random_direction(rng), mag)


def random_transverse_polarization(rng, d: lorentz.Direction) -> np.ndarray:
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    c /= np.linalg.norm(c)
    return c[0] * polarization.epsilon(d, +1) + c[1] * polarization.epsilon(d, -1)


def _angle_gap(a: float, b: float) -> float:
    return abs(float(wigner.principal_angle(a - b)))


def _check_metric(rng, cases: int) -> GroupResult:
    worst_metric = worst_factor = worst_null = 0.0
    for _ in range(cases):
        L = random_transform(rng)
        worst_metric = max(worst_metric, L.metric_residual())
        worst_factor = max(worst_factor, L.factor_residual())
        p = random_null_momentum(rng)
        q = L.apply(p)
        worst_null = max(worst_null, abs(lorentz.minkowski_dot(q, q)))
    passed = worst_metric < 1e-12 and worst_factor < 1e-12 and worst_null < 1e-10
    return GroupResult(
        "metric",
        passed,
        f"metric {worst_metric:.2e}, factors {worst_factor:.2e}, null {worst_null:.2e}",
    )


def _check_wigner_oracle(rng, cases: int) -> GroupResult:
    worst = 0.0
    for _ in range(cases):
        L = random_transform(rng)
        p = random_null_momentum(rng)
        worst = max(worst, _angle_gap(wigner.wigner_angle(L, p), wigner.wigner_angle_oracle(L, p)))
    return GroupResult("wigner_oracle", worst < 1e-9, f"max angle gap {worst:.2e}")


def _check_d_forms(rng, cases: int) -> GroupResult:
    worst = 0.0
    for _ in range(cases):
        L = random_transform(rng)
        d = random_direction(rng)
        p = lorentz.null_momentum(d, math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        eps = random_transverse_polarization(rng, d)
        a = polarization.d_rotation_form(L, p, eps)
        b = polarization.d_gauge_form(L, p, eps)
        worst = max(worst, float(np.abs(a - b).max()))
    return GroupResult("d_form_equivalence", worst < 1e-10, f"max form gap {worst:.2e}")


def _check_composition(rng, cases: int) -> GroupResult:
    worst_angle = worst_transport = 0.0
    for _ in range(cases):
        L1 = random_transform(rng, max_factors=3)
        L2 = random_transform(rng, max_factors=3)
        p = random_null_momentum(rng)
        combined = lorentz.compose(L2, L1)
        worst_angle = max(
            worst_angle,
            _angle_gap(
                wigner.wigner_angle(combined, p),
                wigner.wigner_angle(L2, L1.apply(p)) + wigner.wigner_angle(L1, p),
            ),
        )
        d = lorentz.Direction.from_vector(p.spatial())
        eps = random_transverse_polarization(rng, d)
        stepped = polarization.d_rotation_form(L2, L1.apply(p), polarization.d_rotation_form(L1, p, eps))
        direct = polarization.d_rotation_form(combined, p, eps)
        worst_transport = max(worst_transport, float(np.abs(stepped - direct).max()))
    passed = worst_angle < 1e-9 and worst_transport < 1e-9
    return GroupResult(
        "composition_laws", passed, f"angle {worst_angle:.2e}, transport {worst_transport:.2e}"
    )


def _check_rho_sanity(rng, cases: int) -> GroupResult:
    worst_trace = worst_herm = 0.0
    worst_eig = math.inf
    for _ in range(cases):
        spec = beams.BeamSpec(rng.uniform(0.05, 1.3))
        grid = beams.build_grid(spec, 32, 32)
        L = sweep.make_boost(rng.uniform(0.0, math.pi / 2), rng.uniform(-2.0, 2.0))
        rho = beams.reduced_density(L, grid, spec)
        worst_trace = max(worst_trace, rho.trace_residual())
        worst_herm = max(worst_herm, float(np.abs(rho.entries - rho.entries.conj().T).max()))
        worst_eig = min(worst_eig, rho.min_eigenvalue())
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
    worst = 0.0
    for _ in range(cases):
        rot = lorentz.rot_z(rng.uniform(-math.pi, math.pi))
        if rng.integers(0, 2):
            rot = lorentz.compose(rot, lorentz.rot_y(rng.uniform(-math.pi, math.pi)))
        ln = entanglement.log_negativity(beams.reduced_density(rot, grid, spec))
        worst = max(worst, abs(ln - base))
    return GroupResult("ln_rotation_invariance", worst < 1e-8, f"max LN shift {worst:.2e}")


def frequency_angle_tolerance(L: lorentz.LorentzTransform) -> float:
    """Rounding budget for Theta(L, p) against Theta(L, omega p).

    The closed form is exactly frequency independent, but rescaling the
    momentum rounds its components differently, and the fold adds one
    atan2 of magnitude at most pi per generator factor.  The budget is a
    fixed number of ulp(pi) per factor (_FREQUENCY_ULPS_PER_FACTOR); a
    frequency-dependent bug moves the angle by O(1) and still trips it.
    """
    return _FREQUENCY_ULPS_PER_FACTOR * math.ulp(math.pi) * len(L.factors)


def _check_omega_independence(rng, cases: int) -> GroupResult:
    worst_ratio = worst_angle = 0.0
    for _ in range(cases):
        L = random_transform(rng)
        d = random_direction(rng)
        base = wigner.wigner_angle(L, lorentz.null_momentum(d, 1.0))
        for omega in (0.1, 10.0):
            gap = _angle_gap(wigner.wigner_angle(L, lorentz.null_momentum(d, omega)), base)
            worst_angle = max(worst_angle, gap)
            worst_ratio = max(worst_ratio, gap / frequency_angle_tolerance(L))
    # the production transport never sees a frequency; the rotation form,
    # which goes through the Wigner angle at omega * p-hat, must reproduce
    # it at every omega
    grid = beams.build_grid(beams.BeamSpec(1.0), 32, 32)
    nodes = rng.choice(len(grid), _OMEGA_NODES, replace=False)
    L = random_transform(rng)
    # the grid's h/v vectors carry sqrt(w); transport is linear in them
    production = beams.transport(L.matrix[None], grid.vectors[:, :, nodes])[0]
    production /= np.sqrt(grid.weights[nodes])
    rotated = np.empty((2,) + production.shape, dtype=complex)
    for j, i in enumerate(nodes.tolist()):
        d = lorentz.Direction(float(grid.thetas[i]), float(grid.phis[i]))
        basis = (polarization.h_vec(d), polarization.v_vec(d))
        for k, omega in enumerate((0.1, 10.0)):
            p = lorentz.null_momentum(d, omega)
            for a, eps in enumerate(basis):
                rotated[k, :, a, j] = polarization.d_rotation_form(L, p, eps)[1:]
    worst_transport = float(np.abs(rotated - production).max())  # NaN stays NaN and fails
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
    worst = 0.0
    for sigma in (0.5, 1.0, 1.3):
        spec = beams.BeamSpec(sigma)
        coarse = beams.build_grid(spec, 64, 64)
        fine = beams.build_grid(spec, 128, 128)
        for xi in (0.0, 2.0, -2.0):
            L = sweep.make_boost(2 * math.pi / 5, xi)
            a = beams.reduced_density(L, coarse, spec)
            b = beams.reduced_density(L, fine, spec)
            worst = max(worst, float(np.abs(a.entries - b.entries).max()))
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
