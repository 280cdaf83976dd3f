"""Minkowski-space linear algebra for photon kinematics.

Conventions used throughout the package:

* metric signature (+, -, -, -), natural units with c = 1;
* 4-vectors are ordered (t, x, y, z);
* the reference null momentum is k = (1, 0, 0, 1), i.e. a unit-frequency
  photon moving along +z;
* every transform is built from the three generators ``boost_z``, ``rot_y``
  and ``rot_z`` and remembers its generator factorization.  Downstream code
  folds closed-form angle rules over that factor list, so transforms are
  never parsed back out of raw matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.flags.writeable = False

# copied or multiplied, never written: np.eye costs more than a copy
_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False

BOOST_Z = "boost_z"
ROT_Y = "rot_y"
ROT_Z = "rot_z"
GENERATOR_KINDS = (BOOST_Z, ROT_Y, ROT_Z)

# below this value of sin(theta) a direction counts as polar and phi is
# pinned to 0 (phi is geometrically undefined there)
POLE_TOL = 1e-12

# sanity guard applied when a transform is constructed, scaled by the
# squared matrix norm since conditioning grows with cosh(rapidity); tests
# assert the tighter 1e-12 (rotations) / 1e-10 (after boosts) bounds
_METRIC_GUARD = 1e-9

# largest accepted |rapidity| of a boost.  cosh stays finite up to 710,
# but the rounding floor of L^T G L - G grows like eps cosh^2(xi): it is
# 4e-4 at |xi| = 15 and passes the O(1) entries of the metric near
# |xi| = 19, beyond which no metric check can tell a boost from garbage.
# At |xi| = 15 the transported states still agree with the rotation-form
# oracle to 3e-11 per entry.
MAX_RAPIDITY = 15.0


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class FourVector:
    """Real 4-vector (t, x, y, z)."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _require_finite("FourVector component", self.t, self.x, self.y, self.z)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "FourVector":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"expected shape (4,), got {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def spatial_norm(self) -> float:
        return float(np.linalg.norm(self.spatial()))


def minkowski_dot(u: FourVector, v: FourVector) -> float:
    return u.t * v.t - u.x * v.x - u.y * v.y - u.z * v.z


@dataclass(frozen=True)
class Direction:
    """Unit momentum direction in polar coordinates.

    theta is the polar angle from +z in [0, pi], phi the azimuth in
    [0, 2*pi).  At either pole phi is stored as 0 by convention.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("Direction angle", self.theta, self.phi)
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        phi = self.phi % (2.0 * math.pi)
        if math.sin(self.theta) < POLE_TOL:
            phi = 0.0
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Direction":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"expected shape (3,), got {v.shape}")
        rho = math.hypot(v[0], v[1])
        r = math.hypot(rho, v[2])
        if r == 0.0:
            raise ValueError("cannot take the direction of the zero vector")
        return cls(math.atan2(rho, float(v[2])), math.atan2(float(v[1]), float(v[0])))

    def unit_vector(self) -> np.ndarray:
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), ct])


def null_momentum(d: Direction, magnitude: float = 1.0) -> FourVector:
    """Photon 4-momentum of the given magnitude along d."""
    if magnitude <= 0.0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    n = magnitude * d.unit_vector()
    return FourVector(magnitude, float(n[0]), float(n[1]), float(n[2]))


def _rapidity_error(value: float) -> ValueError:
    return ValueError(
        f"rapidity must lie in [-{MAX_RAPIDITY:g}, {MAX_RAPIDITY:g}], got {value!r}"
    )


def require_rapidity(xi) -> None:
    """Reject rapidities (scalar or array) outside [-MAX_RAPIDITY, MAX_RAPIDITY]."""
    xi = np.asarray(xi, dtype=float)
    bad = xi[~(np.abs(xi) <= MAX_RAPIDITY)]  # NaN counts as bad
    if bad.size:
        raise _rapidity_error(float(bad[0]))


def metric_residuals(matrices: np.ndarray) -> np.ndarray:
    """max |L^T G L - G| of each matrix in a (..., 4, 4) stack."""
    m = np.asarray(matrices, dtype=float)
    gap = np.swapaxes(m, -1, -2) @ (METRIC @ m)
    gap -= METRIC
    return np.abs(gap).max(axis=(-2, -1))


def _metric_error(residual: float) -> ValueError:
    return ValueError(f"matrix does not preserve the metric (residual {residual:.3e})")


def require_metric(matrices: np.ndarray) -> None:
    """Raise ValueError unless every matrix in a (..., 4, 4) stack preserves the metric.

    The tolerance scales with the squared largest entry of each matrix,
    because the rounding of L^T G L grows with it.  A residual that
    overflows fails even though its tolerance overflows too.
    """
    m = np.asarray(matrices, dtype=float)
    res = metric_residuals(m)
    scale = np.abs(m).max(axis=(-2, -1)) ** 2
    ok = (res <= _METRIC_GUARD * np.maximum(scale, 1.0)) & (res < np.inf)  # NaN fails too
    if not ok.all():
        raise _metric_error(float(np.max(res)))


# G as a column: G @ m scales the rows of m by the diagonal of the metric
_METRIC_ROWS = np.diag(METRIC)[:, None]


def _guarded_matrix(matrix) -> np.ndarray:
    """Read-only float copy of one 4x4 matrix that passed every transform check.

    Runs the checks of require_metric on a single matrix with a handful of
    numpy calls: the shape, finite entries (the largest |entry| is finite
    exactly when every entry is) and a finite max |L^T G L - G| <=
    _METRIC_GUARD * max(max |L|^2, 1).  Scaling the rows by the metric
    signs is the same arithmetic as METRIC @ m, so the residual is the one
    metric_residuals computes.
    """
    m = np.array(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    big = float(np.abs(m).max())
    if not math.isfinite(big):
        raise ValueError("transform matrix has non-finite entries")
    gap = m.T @ (_METRIC_ROWS * m)
    gap -= METRIC
    res = float(np.abs(gap).max())
    if not (res <= _METRIC_GUARD * max(big * big, 1.0) and res < math.inf):
        raise _metric_error(res)
    m.flags.writeable = False
    return m


def _checked_factors(factors) -> tuple[tuple[str, float], ...]:
    out = []
    for kind, par in factors:
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        _require_finite("factor parameter", par)
        out.append((kind, float(par)))
    return tuple(out)


def generator_matrix(kind: str, parameter: float) -> np.ndarray:
    """4x4 matrix of a single generator."""
    _require_finite("generator parameter", parameter)
    m = _IDENTITY.copy()
    if kind == BOOST_Z:
        if not abs(parameter) <= MAX_RAPIDITY:
            raise _rapidity_error(float(parameter))
        ch, sh = math.cosh(parameter), math.sinh(parameter)
        m[0, 0] = ch
        m[0, 3] = sh
        m[3, 0] = sh
        m[3, 3] = ch
    elif kind == ROT_Y:
        c, s = math.cos(parameter), math.sin(parameter)
        m[1, 1] = c
        m[1, 3] = s
        m[3, 1] = -s
        m[3, 3] = c
    elif kind == ROT_Z:
        c, s = math.cos(parameter), math.sin(parameter)
        m[1, 1] = c
        m[1, 2] = -s
        m[2, 1] = s
        m[2, 2] = c
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return m


@dataclass(frozen=True)
class LorentzTransform:
    """Metric-preserving 4x4 map plus its generator factorization.

    ``matrix`` equals the left-to-right product of the factor matrices
    (first factor is the leftmost matrix, i.e. it acts last on a vector).
    Construction checks the matrix (shape, finite entries, metric) and
    every factor (known kind, finite parameter).
    """

    matrix: np.ndarray
    factors: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _guarded_matrix(self.matrix))
        object.__setattr__(self, "factors", _checked_factors(self.factors))

    def metric_residual(self) -> float:
        return float(metric_residuals(self.matrix))

    def factor_residual(self) -> float:
        """Max deviation between matrix and the product of its factors."""
        prod = np.eye(4)
        for kind, par in self.factors:
            prod = prod @ generator_matrix(kind, par)
        return float(np.abs(prod - self.matrix).max())

    def apply(self, p: FourVector) -> FourVector:
        return FourVector.from_array(self.matrix @ p.as_array())

    def inverse(self) -> "LorentzTransform":
        """Inverse transform: factor list reversed with negated parameters."""
        return from_factors((kind, -par) for kind, par in reversed(self.factors))


def from_factors(factors) -> LorentzTransform:
    """Transform with the given (kind, parameter) factor list.

    The matrix is the left-to-right product of the generator matrices,
    folded from the identity: the same floats as composing the factors one
    by one onto identity(), for one construction (and one guard) instead
    of two per factor.
    """
    factors = tuple(factors)
    m = _IDENTITY
    for kind, par in factors:
        m = m @ generator_matrix(kind, par)
    return LorentzTransform(m, factors)


def identity() -> LorentzTransform:
    return LorentzTransform(_IDENTITY, ())


def boost_z(xi: float) -> LorentzTransform:
    """Boost along +z with rapidity xi."""
    return LorentzTransform(generator_matrix(BOOST_Z, xi), ((BOOST_Z, float(xi)),))


def rot_y(gamma: float) -> LorentzTransform:
    """Rotation by gamma about the y axis (takes +z toward +x)."""
    return LorentzTransform(generator_matrix(ROT_Y, gamma), ((ROT_Y, float(gamma)),))


def rot_z(gamma: float) -> LorentzTransform:
    """Rotation by gamma about the z axis (takes +x toward +y)."""
    return LorentzTransform(generator_matrix(ROT_Z, gamma), ((ROT_Z, float(gamma)),))


def compose(a: LorentzTransform, b: LorentzTransform) -> LorentzTransform:
    """Product a*b, acting as b first then a; factor lists concatenate."""
    return LorentzTransform(a.matrix @ b.matrix, a.factors + b.factors)


def _rotation_factors(d: Direction) -> tuple[tuple[str, float], ...]:
    return ((ROT_Z, d.phi), (ROT_Y, d.theta))


def rotation_to(d: Direction) -> LorentzTransform:
    """Rotation R(p-hat) = R_z(phi) R_y(theta) taking +z to d."""
    return from_factors(_rotation_factors(d))


def standard_boost(d: Direction, magnitude: float) -> LorentzTransform:
    """Standard transformation taking the reference momentum k to (m, m*d).

    Boosts along z to the requested magnitude first, then rotates +z
    onto d.  This fixed convention is what defines helicity for every
    momentum, so all little-group angles are relative to it.
    """
    if magnitude <= 0.0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    return from_factors(_rotation_factors(d) + ((BOOST_Z, math.log(magnitude)),))
