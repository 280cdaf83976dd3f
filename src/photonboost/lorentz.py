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

``TransformStack`` is the one transform type: k transforms as a (k, F)
table of factor kinds and parameters, checked by its constructor and
nowhere else, and the (k, 4, 4) matrices the constructor folds from it.
A single transform is a one-row stack; ``identity``, ``boost_z``,
``rot_y`` and ``rot_z`` return one, and ``compose`` joins two stacks'
factor rows side by side and folds them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.flags.writeable = False

# G L for the diagonal G is L with rows 1-3 negated: an exact product by
# these signs, far cheaper than a batched matmul by G
_METRIC_ROW_SIGNS = np.diag(METRIC)[:, None].copy()
_METRIC_ROW_SIGNS.flags.writeable = False

# copied or multiplied, never written: np.eye costs more than a copy
_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False

# the generator kinds are the integer codes a factor table stores; PAD
# fills a row past its transform's last factor and is the exact identity,
# so a padded fold gives the same floats as the unpadded one
BOOST_Z, ROT_Y, ROT_Z = 0, 1, 2
GENERATOR_KINDS = (BOOST_Z, ROT_Y, ROT_Z)
PAD = -1

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
# At |xi| = 15 the states of sweep.make_boost rows agree with the
# rotation-form oracle to 5e-15 per entry (alpha = 0, 0.7, 2 pi/5 and pi/2
# on 64^2 and 96^2 grids).
MAX_RAPIDITY = 15.0


def unit_vectors(thetas, phis) -> np.ndarray:
    """(3, ...) unit vectors at polar angles thetas and azimuths phis."""
    st = np.sin(thetas)
    return np.stack([st * np.cos(phis), st * np.sin(phis), np.cos(thetas)])


def _positive(magnitudes) -> np.ndarray:
    m = np.asarray(magnitudes, dtype=float)
    bad = ~(m > 0.0)  # NaN is bad too
    if bad.any():
        raise ValueError(f"magnitude must be positive, got {float(m[bad].flat[0])}")
    return m


def null_momenta(thetas, phis, magnitudes) -> np.ndarray:
    """(4, ...) photon 4-momenta of the given magnitudes along (thetas, phis)."""
    magnitudes = _positive(magnitudes)
    n = magnitudes * unit_vectors(thetas, phis)
    return np.concatenate([np.broadcast_to(magnitudes, n.shape[1:])[None], n])


def direction_angles(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles in [0, pi] and azimuths of (3, ...) nonzero vectors.

    phi lies in [0, 2*pi) and is 0 wherever sin(theta) < POLE_TOL, where
    it is geometrically undefined.
    """
    v = np.asarray(vectors, dtype=float)
    rho = np.hypot(v[0], v[1])
    thetas = np.arctan2(rho, v[2])
    phis = np.mod(np.arctan2(v[1], v[0]), 2.0 * math.pi)
    return thetas, np.where(np.sin(thetas) < POLE_TOL, 0.0, phis)


def metric_residuals(matrices: np.ndarray) -> np.ndarray:
    """max |L^T G L - G| of each matrix in a (..., 4, 4) stack."""
    m = np.asarray(matrices, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected (..., 4, 4) matrices, got shape {m.shape}")
    gap = np.swapaxes(m, -1, -2) @ (_METRIC_ROW_SIGNS * m)
    gap -= METRIC
    return np.abs(gap).max(axis=(-2, -1))


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
        raise ValueError(f"matrix does not preserve the metric (residual {float(np.max(res)):.3e})")


def factor_table(factor_lists) -> tuple[np.ndarray, np.ndarray]:
    """(k, F) kind codes and parameters of k lists of (kind, parameter) factors.

    F is the longest list's length; shorter rows are padded with PAD and
    0.0.  The kinds are collected as they were given, not cast, so that
    TransformStack rejects a kind that is not an integer code.
    """
    lists = [tuple(f) for f in factor_lists]
    width = max(map(len, lists), default=0)
    kinds = [[k for k, _ in f] + [PAD] * (width - len(f)) for f in lists]
    params = [[p for _, p in f] + [0.0] * (width - len(f)) for f in lists]
    shape = (len(lists), width)
    return np.array(kinds).reshape(shape), np.array(params, dtype=float).reshape(shape)


# largest |parameter| of each kind, indexed by code - PAD: padding must be
# 0, boosts lie within MAX_RAPIDITY, rotations need only be finite
_FINITE = float(np.finfo(float).max)
_PARAMETER_BOUND = np.array([0.0, MAX_RAPIDITY, _FINITE, _FINITE])


def _checked_table(kinds, params) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of a factor table after its checks.

    Every kind must be a generator's code or PAD, every parameter finite
    (0 for PAD), and every boost rapidity within MAX_RAPIDITY.
    """
    kinds = np.array(kinds)
    params = np.array(params, dtype=float)
    if kinds.shape != params.shape:
        raise ValueError(
            f"factor kinds {kinds.shape} and parameters {params.shape} differ in shape"
        )
    if kinds.size and kinds.dtype.kind not in "iu":
        raise ValueError(f"generator kinds must be integer codes, got dtype {kinds.dtype}")
    kinds = kinds.astype(int)
    known = (kinds >= PAD) & (kinds < len(GENERATOR_KINDS))
    if not known.all():
        raise ValueError(f"unknown generator kind code {int(kinds[~known][0])}")
    # one comparison covers every parameter check; NaN and inf fail it
    if not (np.abs(params) <= _PARAMETER_BOUND[kinds - PAD]).all():
        # rapidities first, so that a NaN rapidity is reported as one
        xi = params[kinds == BOOST_Z]
        bad = ~(np.abs(xi) <= MAX_RAPIDITY)
        if bad.any():
            raise ValueError(
                f"rapidity must lie in [-{MAX_RAPIDITY:g}, {MAX_RAPIDITY:g}], "
                f"got {float(xi[bad][0])!r}"
            )
        finite = np.isfinite(params)
        if not finite.all():
            raise ValueError(f"factor parameter must be finite, got {float(params[~finite][0])!r}")
        if (params[kinds == PAD] != 0.0).any():
            raise ValueError("padding factors must have parameter 0")
    kinds.flags.writeable = False
    params.flags.writeable = False
    return kinds, params


def _generator_matrices(kinds: np.ndarray, params: np.ndarray) -> np.ndarray:
    """(..., 4, 4) matrices of a checked factor table; PAD gives the identity.

    Each kind's parameter enters only its own entries, and the others see
    a zero parameter: cosh, cos = 1 and sinh, sin = 0 exactly.
    """
    xi = np.where(kinds == BOOST_Z, params, 0.0)
    gy = np.where(kinds == ROT_Y, params, 0.0)
    gz = np.where(kinds == ROT_Z, params, 0.0)
    ch, sh = np.cosh(xi), np.sinh(xi)
    cy, sy = np.cos(gy), np.sin(gy)
    cz, sz = np.cos(gz), np.sin(gz)
    m = np.zeros(kinds.shape + (4, 4))
    m[..., 0, 0] = ch
    m[..., 0, 3] = sh
    m[..., 3, 0] = sh
    m[..., 3, 3] = ch * cy
    m[..., 1, 1] = cy * cz
    m[..., 1, 3] = sy
    m[..., 3, 1] = 0.0 - sy
    m[..., 1, 2] = 0.0 - sz
    m[..., 2, 1] = sz
    m[..., 2, 2] = cz
    return m


def _fold(kinds: np.ndarray, params: np.ndarray) -> np.ndarray:
    """(k, 4, 4) left-to-right products of the rows of a checked (k, F) table.

    Folds from the identity, the first factor leftmost; padding multiplies
    by an exact identity and so changes no float.
    """
    g = _generator_matrices(kinds, params)
    m = np.tile(_IDENTITY, (len(kinds), 1, 1))
    for j in range(kinds.shape[1]):
        m = m @ g[:, j]
    return m


@dataclass(frozen=True, eq=False)
class TransformStack:
    """k Lorentz transforms as one guarded stack.

    ``kinds`` and ``params`` form the (k, F) factor table: row i holds
    transform i's generator factors, leftmost first, as kinds (BOOST_Z,
    ROT_Y, ROT_Z) and parameters, padded past its last factor with PAD and
    0.0.  The table is the transform: ``matrices`` are not an input but
    the (k, 4, 4) left-to-right fold of each row (the first factor is the
    leftmost matrix, i.e. it acts last on a vector).  Construction checks
    the table (known kinds, finite parameters, boosts within
    MAX_RAPIDITY), folds it and runs require_metric on the fold, once for
    the whole stack, with numpy's overflow warnings silenced so that a
    fold too large to check raises the guard's ValueError; it is the only
    transform guard.  Every array is a read-only copy.
    """

    kinds: np.ndarray
    params: np.ndarray
    matrices: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        kinds, params = _checked_table(self.kinds, self.params)
        if kinds.ndim != 2:
            raise ValueError(f"expected a (k, F) factor table, got shape {kinds.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            m = _fold(kinds, params)
            require_metric(m)
        m.flags.writeable = False
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "matrices", m)

    def __len__(self) -> int:
        return len(self.matrices)

    @property
    def matrix(self) -> np.ndarray:
        """The (4, 4) matrix of a one-transform stack."""
        if len(self) != 1:
            raise ValueError(f"matrix needs a one-transform stack, got {len(self)} transforms")
        return self.matrices[0]

    @property
    def factor_counts(self) -> np.ndarray:
        """Generator factors in each row, padding not counted."""
        return (self.kinds != PAD).sum(axis=1)

    def factor_matrices(self) -> np.ndarray:
        """(k, F, 4, 4) matrix of every entry of the factor table (PAD gives the identity)."""
        return _generator_matrices(self.kinds, self.params)

    def inverse(self) -> "TransformStack":
        """Inverse of each transform: its factor row reversed with negated parameters."""
        return TransformStack(self.kinds[:, ::-1], -self.params[:, ::-1])

    def apply(self, columns) -> np.ndarray:
        """Column i of a (4, n) array mapped by transform i.

        n equals len(self), or the stack holds one transform, which maps
        every column.
        """
        v = paired_columns(self, columns, dtype=None)
        return (self.matrices @ v.T[:, :, None])[:, :, 0].T


def paired_columns(stack: TransformStack, columns, dtype=float) -> np.ndarray:
    """columns as a (4, n) array whose column i pairs with transform i of stack.

    Raises ValueError unless n == len(stack) or the stack holds one
    transform, which pairs with every column.
    """
    v = np.asarray(columns, dtype=dtype)
    if v.ndim != 2 or v.shape[0] != 4:
        raise ValueError(f"expected (4, n) columns, got shape {v.shape}")
    if len(stack) not in (1, v.shape[1]):
        raise ValueError(f"{v.shape[1]} columns do not pair with {len(stack)} transforms")
    return v


def stack_from_factors(factor_lists) -> TransformStack:
    """Stack of one transform per list of (kind, parameter) factors, leftmost first."""
    return TransformStack(*factor_table(factor_lists))


def compose(a: TransformStack, b: TransformStack) -> TransformStack:
    """Row-wise products a_i * b_i (b_i acts first): the factor rows side by side, folded."""
    return TransformStack(np.hstack([a.kinds, b.kinds]), np.hstack([a.params, b.params]))


def identity() -> TransformStack:
    return TransformStack(np.zeros((1, 0), dtype=int), np.zeros((1, 0)))


def boost_z(xi: float) -> TransformStack:
    """Boost along +z with rapidity xi."""
    return stack_from_factors([((BOOST_Z, xi),)])


def rot_y(gamma: float) -> TransformStack:
    """Rotation by gamma about the y axis (takes +z toward +x)."""
    return stack_from_factors([((ROT_Y, gamma),)])


def rot_z(gamma: float) -> TransformStack:
    """Rotation by gamma about the z axis (takes +x toward +y)."""
    return stack_from_factors([((ROT_Z, gamma),)])


def standard_boosts(momenta) -> TransformStack:
    """Stack of the standard transformations H(p), one per column p of (4, k) momenta.

    This is the standard-frame convention: the frame
    R(p-hat) = R_z(phi) R_y(theta) takes +z to p-hat, and the standard
    transformation H(p) = R(p-hat) B_z(log p^0) takes the reference
    momentum k to p.  It defines helicity for every momentum, so all
    little-group angles are relative to it.  phi is 0 wherever
    sin(theta) < POLE_TOL, as direction_angles gives it;
    wigner._rotations writes the same frames in closed form.
    """
    p = np.asarray(momenta, dtype=float)
    thetas, phis = direction_angles(p[1:])
    params = np.stack(np.broadcast_arrays(phis, thetas, np.log(_positive(p[0]))), axis=-1)
    return TransformStack(np.broadcast_to([ROT_Z, ROT_Y, BOOST_Z], params.shape), params)
