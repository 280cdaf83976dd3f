"""Independent construction routes used to cross-check reduced_density.

None of these goes through the gauge-form transport of photonboost.beams:
they transport with the rotation form (Wigner angle plus frame
re-seating), with helicity phases, or take a closed-form limit.  The
single-generator little-group angle, which the Wigner fold applies factor
by factor, is here too, for the tests of its closed-form rules.
"""
import math

import numpy as np

from photonboost import polarization, wigner
from photonboost.lorentz import BOOST_Z, ROT_Y, ROT_Z, Direction, null_momentum
from photonboost.polarization import epsilon
from photonboost.wigner import wigner_angle


def wigner_angle_generator(kind, parameter, p):
    """Little-group angle of a single generator acting at momentum p.

    Applies the closed-form rule of that generator (the one the Wigner
    fold applies factor by factor) without reducing it to (-pi, pi].
    """
    if not math.isfinite(parameter):
        raise ValueError(f"parameter must be finite, got {parameter!r}")
    arr = p.as_array()
    wigner._require_null_future(arr)
    rho = math.hypot(arr[1], arr[2])
    r = math.hypot(rho, arr[3])
    ct, st, phi = arr[3] / r, rho / r, math.atan2(arr[2], arr[1])
    if kind == BOOST_Z:
        return 0.0
    if kind == ROT_Z:
        return float(wigner._rot_z_angle(parameter, ct, st))
    if kind == ROT_Y:
        return float(wigner._rot_y_angle(parameter, ct, st, phi))
    raise ValueError(f"unknown generator kind {kind!r}")


def grid_directions(grid):
    """The grid's nodes as Direction objects, built on demand."""
    return [Direction(t, p) for t, p in zip(grid.thetas.tolist(), grid.phis.tolist())]


def _transported_hv(L, d, spec):
    """Spatial parts of the h and v vectors at d, transported by the scalar rotation form."""
    p = null_momentum(d, spec.p0)
    return (
        polarization.d_rotation_form(L, p, polarization.h_vec(d))[1:],
        polarization.d_rotation_form(L, p, polarization.v_vec(d))[1:],
    )


def _pair_state(a, b):
    (ha, va), (hb, vb) = a, b
    return (np.kron(ha, hb) - np.kron(va, vb)) / math.sqrt(2.0)


def pair_kernel(L, p_dir, q_dir, spec):
    """Boosted pair state (|h h> - |v v>)/sqrt(2) at one direction pair.

    Returns the unit-norm complex 9-vector of spatial components, ordered
    with photon A's component varying slowest; every vector is transported
    with the scalar rotation form.
    """
    return _pair_state(_transported_hv(L, p_dir, spec), _transported_hv(L, q_dir, spec))


def rotation_form_pair_basis(L, thetas, phis, spec):
    """Spatial parts of the boosted h and v vectors, by the rotation form.

    Vectorized equivalent of running polarization.d_rotation_form over
    h_vec and v_vec node by node (a test pins the two together).  Uses the
    identities h_p = R(p)(0, cos phi, -sin phi, 0) and
    v_p = R(p)(0, sin phi, cos phi, 0): transporting rotates the in-plane
    angle by the little-group angle from the Wigner fold and re-seats the
    vector in the frame at the boosted direction.  Returns two real (3, n)
    arrays.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    st, ct = np.sin(thetas), np.cos(thetas)
    momenta = spec.p0 * np.stack(
        [np.ones_like(thetas), st * np.cos(phis), st * np.sin(phis), ct]
    )
    theta_w = wigner.wigner_angles(L, momenta)
    out = L.matrix @ momenta
    rho = np.hypot(out[1], out[2])
    r = np.hypot(rho, out[3])
    ct_o, st_o = out[3] / r, rho / r
    safe = np.where(rho > 0.0, rho, 1.0)
    cp_o = np.where(rho > 0.0, out[1] / safe, 1.0)
    sp_o = np.where(rho > 0.0, out[2] / safe, 0.0)

    psi = phis - theta_w
    cpsi, spsi = np.cos(psi), np.sin(psi)

    def seat(vx, vy):
        # R_z(phi') R_y(theta') applied to (vx, vy, 0)
        return np.stack([ct_o * cp_o * vx - sp_o * vy, ct_o * sp_o * vx + cp_o * vy, -st_o * vx])

    return seat(cpsi, -spsi), seat(spsi, cpsi)


def _assemble(weights, x):
    """Normalized 1/2 sum_ab s_a s_b M_ab (x) M_ab from transported h/v vectors."""
    sign = {"h": 1.0, "v": -1.0}
    rho = np.zeros((9, 9), dtype=np.result_type(x["h"], x["v"]))
    for a in "hv":
        for b in "hv":
            m = np.einsum("n,in,jn->ij", weights, x[a], x[b].conj())
            rho += 0.5 * sign[a] * sign[b] * np.kron(m, m)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def rotation_form_density(L, grid, spec):
    """reduced_density with every h/v vector transported by the rotation form."""
    xh, xv = rotation_form_pair_basis(L, grid.thetas, grid.phis, spec)
    return _assemble(grid.weights, {"h": xh, "v": xv})


def direct_double_sum_density(L, grid, spec):
    """Brute-force double sum of pair projectors over the grid.

    Every pair state is pair_kernel's; each node's transported h and v
    vectors are computed once and reused for all pairs that contain it.
    """
    hv = [_transported_hv(L, d, spec) for d in grid_directions(grid)]
    kernels = np.array([[_pair_state(a, b) for b in hv] for a in hv])
    w = grid.weights
    rho = np.einsum("i,j,ijA,ijB->AB", w, w, kernels, kernels.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def helicity_route_density(L, grid, spec):
    """Assemble rho from helicity amplitudes and helicity transport.

    The initial amplitudes put equal weight on the two like-helicity pairs
    with azimuth phase factors; each single-photon piece transports with
    the little-group phase onto the circular basis vector at the boosted
    direction.  Factorizes through 3x3 moments exactly like the h/v route.
    """
    dirs = grid_directions(grid)
    n = len(dirs)
    y = {}
    for lam in (+1, -1):
        vecs = np.empty((3, n), dtype=complex)
        for i, d in enumerate(dirs):
            p = null_momentum(d, spec.p0)
            phase = np.exp(-1j * lam * wigner_angle(L, p))
            out_dir = Direction.from_vector(L.apply(p).spatial())
            vecs[:, i] = np.exp(1j * lam * d.phi) * phase * epsilon(out_dir, lam)[1:]
        y[lam] = vecs
    rho = np.zeros((9, 9), dtype=complex)
    for lam in (+1, -1):
        for mu in (+1, -1):
            m = np.einsum("n,in,jn->ij", grid.weights, y[lam], y[mu].conj())
            rho += 0.5 * np.kron(m, m)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def deep_boost_limit_density(alpha, grid):
    """Closed-form limit of reduced_density(make_boost(alpha, xi)) as xi -> -inf.

    A boost of rapidity xi along m = (sin alpha, 0, cos alpha) squeezes
    every boosted momentum onto n = -m as xi -> -inf.  The gauge-form
    transport L e - ((L e)^0 / (L p)^0) L p of a transverse unit vector e
    at direction p then tends to

        e - (n.e) n - (n.e) p_perp / (1 + n.p),   p_perp = p - (n.p) n,

    a unit vector transverse to n.  The grid weights stay as they are:
    the state integrates over the initial directions, and the invariant
    momentum measure gives the boost no Jacobian to add.  The h and v
    vectors come from their closed forms R_z(phi) R_y(theta) applied to
    (cos phi, -sin phi, 0) and (sin phi, cos phi, 0).  Nothing here goes
    through the boost matrix, the production transport or the Wigner-angle
    fold.
    """
    st, ct = np.sin(grid.thetas), np.cos(grid.thetas)
    sp, cp = np.sin(grid.phis), np.cos(grid.phis)
    p = np.stack([st * cp, st * sp, ct])
    h = np.stack([cp * cp * ct + sp * sp, sp * cp * (ct - 1.0), -st * cp])
    v = np.stack([sp * cp * (ct - 1.0), sp * sp * ct + cp * cp, -st * sp])
    n = -np.array([np.sin(alpha), 0.0, np.cos(alpha)])
    n_p = n @ p
    p_perp = p - np.outer(n, n_p)

    def limit(e):
        n_e = n @ e
        return e - np.outer(n, n_e) - (n_e / (1.0 + n_p)) * p_perp

    return _assemble(grid.weights, {"h": limit(h), "v": limit(v)})
