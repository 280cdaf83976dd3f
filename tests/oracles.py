"""Independent construction routes used to cross-check reduced_density.

None of these goes through the table pass of photonboost.beams (the
aberration map summed over the grid in closed form): they transport with
the gauge form L e - ((L e)^0 / (L p)^0) L p on the boost matrix, with the
rotation form (Wigner angle plus frame re-seating), with helicity phases,
or take a closed form (the deep boost, the boost along the beam axis, or
the narrow-beam coefficient of narrow_beam_coefficient).  Every route that
builds momenta takes their frequency omega as an argument; the state must
not depend on it.  The single-generator little-group angle, which the
Wigner fold applies factor by factor, is here too, for the tests of its
closed-form rules, and so are the seeded draws of transforms, momenta and
polarizations that many tests share (validate's own draws).  Every route
integrates over the grid's whole rule, expanded by expanded_rule, and
never uses the mirror fold of transported_moments.  A route given a
transform L turns that rule about z by the azimuth of L's boost axis,
read from L's matrix (rule_of), as transported_moments does.
transport and aberration_tables are the exceptions to the rule above.
transport is the aberration map applied node by node to node vectors
(node_vectors), from the same split L = R B(xi, m) as the table pass
(beams._polar_parts) and a frame about any axis of its own (_frames);
production_transport lays it out in the rotation form's columns, so that
tests can compare the two.  aberration_tables builds the table pass's
node products about an axis in the x-z plane from the grid's node
vectors by theta-hat, the route the closed-form table of
beams._aberration_tables replaced.
"""
import math

import numpy as np

from photonboost import beams, validation, wigner
from photonboost.beams import QuadratureGrid, _polar_parts
from photonboost.lorentz import (
    BOOST_Z,
    ROT_Y,
    ROT_Z,
    direction_angles,
    null_momenta,
    stack_from_factors,
)
from photonboost.wigner import d_rotation_form_stack, epsilon_stack, h_vec_stack, v_vec_stack

# random_stack(rng, k, max_factors=5, max_rapidity=0.6): k products of 1 to
# max_factors generators, as one padded stack
random_stack = validation._draw_stack
# random_momenta(rng, k, magnitudes=None): (4, k) null momenta in uniform
# directions, magnitudes log-uniform in [0.5, 2] unless given
random_momenta = validation._draw_momenta
# random_polarizations(rng, thetas, phis): (4, k) unit transverse polarizations
random_polarizations = validation._draw_polarizations


# _node_angles reads a node's distance s from the boost axis as at least
# this: behind the axis t = 2 / s then stays below 2^481, so exp(2 xi) t^2
# stays finite for every |xi| <= MAX_RAPIDITY, and a node within this of
# -m, where the map is the identity, gets g = 1 / (1 + exp(-2 xi) t^2) ~ 0
_S_FLOOR = 2.0 ** -480


def _frames(axes):
    """(k, 3, 3) right-handed frames with columns (e1, e2, m), one per unit axis m of (k, 3), any axis.

    e1 and e2 are theta-hat and phi-hat at m about +z, and an axis on the
    z axis takes the azimuth 0, so an axis m = (sin a, 0, cos a) with
    sin a >= 0 gets the table pass's frame, e1 = (cos a, 0, -sin a) and
    e2 = y-hat.
    """
    rho = np.hypot(axes[:, 0], axes[:, 1])
    on_axis = rho == 0.0
    safe = rho + on_axis
    cb, sb = (axes[:, 0] + on_axis) / safe, axes[:, 1] / safe
    mz = axes[:, 2]
    e1 = np.stack([mz * cb, mz * sb, -rho], axis=-1)
    e2 = np.stack([-sb, cb, np.zeros_like(cb)], axis=-1)
    return np.stack([e1, e2, axes], axis=-1)


def node_vectors(grid: QuadratureGrid, lo: int, hi: int) -> np.ndarray:
    """(3, 3, m) spatial parts of stored nodes lo ... hi - 1: unit momentum, sqrt(w) h, sqrt(w) v.

    h = R(p)(cos phi, -sin phi, 0) and v = R(p)(sin phi, cos phi, 0)
    with R(p) = R_z(phi) R_y(theta), written out; all three have zero
    time part (the momentum's is 1).  With t = theta and f = phi,
    p = (sin t cos f, sin t sin f, cos t),
    h = (cos t cos^2 f + sin^2 f, (cos t - 1) sin f cos f, -sin t cos f),
    v = ((cos t - 1) sin f cos f, cos t sin^2 f + cos^2 f, -sin t sin f),
    the weight's square root split between the two rules.  Entry 3 i + a
    of the whole theta rows that hold the nodes is the product of a
    factor per theta and one per phi, plus a second such product for h_x
    and v_y; they are formed from the rules, multiplied in one broadcast
    product and cut to the nodes asked for.
    """
    hi = min(hi, len(grid))
    cols = len(grid.phis)
    first, last = lo // cols, -(-hi // cols)
    th = grid.thetas[first:last]
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(grid.phis), np.cos(grid.phis)
    rw, cw = np.sqrt(grid.theta_weights[first:last]), np.sqrt(grid.phi_weights)
    rct, rst, rct1, csc = rw * ct, rw * st, rw * (ct - 1.0), cw * (sp * cp)
    hx, vy = cw * (cp * cp), cw * (sp * sp)
    rows = np.stack([st, rct, rct1, st, rct1, rct, ct, -rst, -rst])[:, :, None] * np.stack(
        [cp, hx, csc, sp, csc, vy, np.ones_like(cp), cw * cp, cw * sp]
    )[:, None]
    rows[1] += rw[:, None] * vy
    rows[5] += rw[:, None] * hx
    return rows.reshape(3, 3, -1)[:, :, lo - first * cols:hi - first * cols]


def _node_angles(p1, p2, p3):
    """s = sin(theta_m), the azimuth (cos phi, sin phi) and t = tan(theta_m / 2) of directions.

    (p1, p2, p3) are the directions' coordinates in a frame (e1, e2, m).
    A direction on the axis (s = 0) takes phi = 0.  t is s / (1 + p3) in
    front (p3 >= 0) and (1 - p3) / s behind, each free of cancellation,
    with s read as at least _S_FLOOR.
    """
    s = np.hypot(p1, p2)
    on_axis = s == 0.0  # there p1 = p2 = 0
    safe = s + on_axis
    front = p3 >= 0.0
    t = np.where(front, s, 1.0 - p3) / np.where(front, 1.0 + p3, np.maximum(s, _S_FLOOR))
    return s, (p1 + on_axis) / safe, p2 / safe, t


def transport(boosts: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Transport of node vectors by the aberration map, node by node.

    boosts is a (k, 4, 4) stack; vectors is (4, 1 + m, n): per node the
    momentum p, then m transverse vectors (real or complex), or only
    their (3, 1 + m, n) spatial parts.  Every boost maps every node, or
    vectors has a leading axis of k and boost i maps only vectors[i].
    Each boost is split as L = R B(xi, m) (_polar_parts).  B moves p
    along its great circle through m, tan(theta_m'/2) =
    exp(-xi) tan(theta_m/2), and keeps a vector's components along theta-hat
    and phi-hat about m; R then rotates the result.  Only the direction of
    p enters, and a vector's time part and its part along p (a gauge) drop
    out.  Returns the (k, 3, m, n) spatial parts of the transported
    vectors; their time part is zero.
    """
    rot, axes, shrink = _polar_parts(boosts)
    frames = _frames(axes)
    *lead, _, cols, n = vectors.shape
    spatial = vectors[..., -3:, :, :].reshape(*lead, 3, cols * n)
    f = (np.swapaxes(frames, 1, 2) @ spatial).reshape(len(frames), 3, cols, n)
    p = f[:, :, 0].real
    p = p / np.sqrt(np.einsum("kin,kin->kn", p, p))[:, None]
    s, cphi, sphi, t = (a[:, None] for a in _node_angles(*p.swapaxes(0, 1)))
    p3, (e1, e2, em) = p[:, 2, None], f[:, :, 1:].swapaxes(0, 1)
    tau = shrink[:, None, None] * t
    g = 1.0 / (1.0 + tau * tau)
    c, sn = 2.0 * g - 1.0, 2.0 * tau * g
    # theta-hat = (p3 cos phi, p3 sin phi, -s) and phi-hat = (-sin phi, cos phi, 0);
    # B turns theta-hat into (c cos phi, c sin phi, -sn)
    along = p3 * (cphi * e1 + sphi * e2) - s * em
    across = cphi * e2 - sphi * e1
    out = np.stack([c * cphi * along - sphi * across, c * sphi * along + cphi * across, -sn * along], 1)
    return ((rot @ frames) @ out.reshape(len(out), 3, -1)).reshape(out.shape)


def random_directions(rng, k):
    """Polar angles and azimuths of k directions uniform on the sphere."""
    return direction_angles(random_momenta(rng, k, 1.0)[1:])


def random_cases(rng, k, magnitudes=1.0, max_factors=5):
    """k random transforms, each with a null momentum of the given magnitudes and a polarization.

    Returns the stack, the (4, k) momenta and the (4, k) random transverse
    polarizations at their directions.
    """
    stack = random_stack(rng, k, max_factors=max_factors)
    p = random_momenta(rng, k, magnitudes)
    return stack, p, random_polarizations(rng, *direction_angles(p[1:]))


def production_transport(L, p, eps):
    """(3, n) spatial parts of transport of each column of eps at p.

    Columns pair with the transforms of L as in d_rotation_form_stack: a
    one-transform L maps every column, else transform i maps column i.
    """
    vectors = np.stack([p, eps], axis=1)
    if len(L) == 1:
        return transport(L.matrices, vectors)[0, :, 0]
    return transport(L.matrices, vectors.transpose(2, 0, 1)[..., None])[:, :, 0, 0].T


def gauge_form_transport(boosts, vectors):
    """Gauge-form transport L e - ((L e)^0 / (L p)^0) L p of node vectors.

    Takes and returns what transport does: (k, 4, 4) boosts and
    (4, 1 + m, n) vectors, every boost mapping every node, or
    (k, 4, 1 + m, n) vectors, boost i mapping vectors[i]; returns the
    (k, 3, m, n) spatial parts.  It is real linear algebra on the boost
    matrix, and its rounding grows like eps exp(|xi|) through the
    subtraction.
    """
    *_, cols, n = vectors.shape
    flat = vectors.reshape(vectors.shape[:-2] + (cols * n,))
    lv = (boosts @ flat).reshape(len(boosts), 4, cols, n)
    lp, le = lv[:, :, :1], lv[:, :, 1:]
    return le[:, 1:] - (le[:, :1] / lp[:, :1]) * lp[:, 1:]


def closed_form_vectors(thetas, phis, weights, omega=1.0):
    """(4, 3, n) node 4-vectors p, sqrt(w) h and sqrt(w) v from their closed forms."""
    amp = np.sqrt(weights)
    return np.stack([
        null_momenta(thetas, phis, omega),
        amp * h_vec_stack(thetas, phis),
        amp * v_vec_stack(thetas, phis),
    ], axis=1)


def gauge_form_moments(L, grid, omega=1.0, turned=True):
    """transported_moments of L on grid, each node of the whole rule transported by the gauge form.

    Row i is integrated over the rule turned by the azimuth of its boost
    axis (rule_of), or over the grid's own rule where turned is False.
    """
    betas = validation._axis_azimuths(L.matrices) if turned else np.zeros(len(L))
    vectors = np.stack([closed_form_vectors(*expanded_rule(grid, beta), omega) for beta in betas])
    x = gauge_form_transport(L.matrices, vectors).reshape(len(L), 6, -1)
    return x @ np.swapaxes(x, 1, 2)


def aberration_tables(axis, grid):
    """beams._aberration_tables by theta-hat: (12, n) node products and (n,) t^2 per block.

    axis is m in the x-z plane, read in its frame (e1, e2, m) (_frames),
    where the table pass reads the nodes' own h and v.  Reads each block of the
    grid's stored node vectors (node_vectors) in the frame, takes s, the
    azimuth and t from _node_angles, and the components h_t and v_t of
    sqrt(w) h and sqrt(w) v along theta-hat = (p3 cos phi, p3 sin phi, -s)
    about m.  Its
    rows are the production table's, a^2, b^2, ab, C^2, t C a and t C b
    for each parity, with (a, b, C) = (h_t cos phi, -v_t sin phi, h_t)
    and (h_t sin phi, v_t cos phi, v_t).  Blocks are _SUM_NODES stored
    nodes in order, cut anywhere in a row.
    """
    frame = _frames(axis[None])[0]
    for lo in range(0, len(grid), beams._SUM_NODES):
        vectors = node_vectors(grid, lo, lo + beams._SUM_NODES)
        f = (frame.T @ vectors.reshape(3, -1)).reshape(3, 3, -1)
        s, cphi, sphi, t = _node_angles(*f[:, 0])
        theta_hat = np.stack([f[2, 0] * cphi, f[2, 0] * sphi, -s])
        big_c = np.einsum("ic,ivc->vc", theta_hat, f[:, 1:])
        trig = np.stack([cphi, sphi])
        a, b = big_c[0] * trig, big_c[1] * trig[::-1]
        b[0] *= -1.0
        tc = t * big_c
        table = np.stack([a * a, b * b, a * b, big_c * big_c, tc * a, tc * b])
        yield table.reshape(12, -1), t * t


def axial_boost_density(xi, grid):
    """reduced_density(make_boost(0, xi)) in closed form.

    A boost along +z moves every direction along its meridian,
    tan(theta'/2) = exp(-xi) tan(theta/2), and keeps a polarization's
    components along theta-hat and phi-hat.  The h and v vectors at a
    node have components that depend on phi alone, so the boosted state
    is the rest state of the same weights placed at theta'.  Nothing here
    goes through a boost matrix or a Wigner angle.
    """
    thetas, phis, weights = expanded_rule(grid)
    moved = 2.0 * np.arctan(math.exp(-xi) * np.tan(thetas / 2.0))
    return _assemble(weights, {
        "h": h_vec_stack(moved, phis)[1:],
        "v": v_vec_stack(moved, phis)[1:],
    })


def stored_rule(grid):
    """Polar angles, azimuths and weights of a QuadratureGrid's stored nodes, in order.

    Stored node i is row i // columns of the theta rule and column
    i % columns of the stored-phi rule, at the product of their weights.
    """
    rows, cols = np.divmod(np.arange(len(grid)), len(grid.phis))
    return grid.thetas[rows], grid.phis[cols], grid.theta_weights[rows] * grid.phi_weights[cols]


def expanded_rule(grid, beta=0.0):
    """Polar angles, azimuths and weights of the whole rule a QuadratureGrid stands for, turned by beta about z.

    Every stored node (theta, phi) and its image (theta, -phi), each at
    half the stored weight, at the azimuths phi + beta and -phi + beta.
    A node on the mirror plane appears twice, which at half weight each
    is the same as once at its weight.
    """
    thetas, phis, weights = stored_rule(grid)
    phis = np.concatenate([phis, -phis])
    if beta:
        phis = phis + beta
    return np.concatenate([thetas, thetas]), phis, np.concatenate([weights, weights]) / 2.0


def rule_of(L, grid):
    """expanded_rule of grid turned by the azimuth of the boost axis of the one-transform stack L.

    The azimuth is atan2(L02, L01), 0 where L02 == 0
    (validation._axis_azimuths): the rule transported_moments integrates
    L over.
    """
    (beta,) = validation._axis_azimuths(L.matrices)
    return expanded_rule(grid, beta)


def wigner_angle_generator(kind, parameter, p):
    """Little-group angle of a single generator acting at a (4,) momentum p.

    Applies the closed-form rule of that generator (the one the Wigner
    fold applies factor by factor) from the frame of p to the frame of
    its image.
    """
    if not math.isfinite(parameter):
        raise ValueError(f"parameter must be finite, got {parameter!r}")
    if kind not in (BOOST_Z, ROT_Z, ROT_Y):
        raise ValueError(f"unknown generator kind {kind!r}")
    arr = np.asarray(p, dtype=float)
    wigner._require_null_future(arr)
    image = stack_from_factors([[(kind, parameter)]]).apply(arr[:, None])[:, 0]
    frames = wigner._frame(arr[1:]), wigner._frame(image[1:])
    if kind == ROT_Y:
        return float(wigner._rot_y_angle(parameter, *frames))
    return float(wigner._axial_angle(parameter if kind == ROT_Z else 0.0, *frames))


def transported_hv(L, thetas, phis, omega):
    """Spatial parts of the h and v vectors at the given directions, by the rotation form.

    L is a one-transform stack; the momenta have frequency omega.  Returns
    two (3, n) arrays.
    """
    thetas, phis = np.atleast_1d(thetas), np.atleast_1d(phis)
    p = null_momenta(thetas, phis, omega)
    return (
        d_rotation_form_stack(L, p, h_vec_stack(thetas, phis))[1:],
        d_rotation_form_stack(L, p, v_vec_stack(thetas, phis))[1:],
    )


def _kron_columns(x, y):
    """(n_x, n_y, 9) Kronecker products of every column of x with every column of y."""
    return np.einsum("ai,bj->ijab", x, y).reshape(x.shape[1], y.shape[1], 9)


def _pair_states(a, b):
    """(n_a, n_b, 9) pair states (|h h> - |v v>)/sqrt(2) of every column pair of a and b."""
    (ha, va), (hb, vb) = a, b
    return (_kron_columns(ha, hb) - _kron_columns(va, vb)) / math.sqrt(2.0)


def pair_kernel(L, p_dir, q_dir, omega):
    """Boosted pair state (|h h> - |v v>)/sqrt(2) at one pair of (theta, phi) directions.

    Returns the unit-norm complex 9-vector of spatial components, ordered
    with photon A's component varying slowest; every vector is transported
    with the rotation form.
    """
    return _pair_states(transported_hv(L, *p_dir, omega), transported_hv(L, *q_dir, omega))[0, 0]


def rotation_form_pair_basis(L, thetas, phis, omega):
    """Spatial parts of the boosted h and v vectors, by the rotation form.

    Vectorized equivalent of wigner.d_rotation_form_stack on h_vec
    and v_vec (a test pins the two together), written out independently.
    Uses the identities h_p = R(p)(0, cos phi, -sin phi, 0) and
    v_p = R(p)(0, sin phi, cos phi, 0): transporting rotates the in-plane
    angle by the little-group angle from the Wigner fold and re-seats the
    vector in the frame at the boosted direction.  Returns two real (3, n)
    arrays.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    momenta = null_momenta(thetas, phis, omega)
    theta_w = wigner.wigner_angle_stack(L, momenta)
    out = L.apply(momenta)
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


def rotation_form_density(L, grid, omega):
    """reduced_density with every h/v vector transported by the rotation form at frequency omega."""
    thetas, phis, weights = rule_of(L, grid)
    xh, xv = rotation_form_pair_basis(L, thetas, phis, omega)
    return _assemble(weights, {"h": xh, "v": xv})


def direct_double_sum_density(L, grid, omega):
    """Brute-force double sum of pair projectors over the grid.

    Every pair state is pair_kernel's; each node's transported h and v
    vectors are computed once and reused for all pairs that contain it.
    """
    thetas, phis, w = rule_of(L, grid)
    hv = transported_hv(L, thetas, phis, omega)
    kernels = _pair_states(hv, hv)
    rho = np.einsum("i,j,ijA,ijB->AB", w, w, kernels, kernels.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def helicity_route_density(L, grid, omega):
    """Assemble rho from helicity amplitudes and helicity transport.

    The initial amplitudes put equal weight on the two like-helicity pairs
    with azimuth phase factors; each single-photon piece transports with
    the little-group phase of wigner.boost_helicity_state onto the circular
    basis vector at the boosted direction.  Factorizes through 3x3 moments
    exactly like the h/v route.
    """
    thetas, phis, weights = rule_of(L, grid)
    p = null_momenta(thetas, phis, omega)
    y = {}
    for lam in (+1, -1):
        q, phase = wigner.boost_helicity_state(L, p, lam)
        out = epsilon_stack(*direction_angles(q[1:]), lam)[1:]
        y[lam] = np.exp(1j * lam * phis) * phase * out
    rho = np.zeros((9, 9), dtype=complex)
    for lam in (+1, -1):
        for mu in (+1, -1):
            m = np.einsum("n,in,jn->ij", weights, y[lam], y[mu].conj())
            rho += 0.5 * np.kron(m, m)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def deep_boost_limit_density(alpha, grid, sign=-1):
    """Closed-form limit of reduced_density(make_boost(alpha, xi)) as xi -> sign * inf.

    A boost of rapidity xi along m = (sin alpha, 0, cos alpha) squeezes
    every boosted momentum onto n = sign m: onto -m as xi -> -inf (the
    default, sign = -1) and onto +m as xi -> +inf (sign = 1).  The
    gauge-form transport L e - ((L e)^0 / (L p)^0) L p of a transverse
    unit vector e at direction p then tends to

        e - (n.e) n - (n.e) p_perp / (1 + n.p),   p_perp = p - (n.p) n,

    a unit vector transverse to n.  The grid weights stay as they are:
    the state integrates over the initial directions, and the invariant
    momentum measure gives the boost no Jacobian to add.  The h and v
    vectors come from their closed forms R_z(phi) R_y(theta) applied to
    (cos phi, -sin phi, 0) and (sin phi, cos phi, 0).  Nothing here goes
    through the boost matrix, the aberration map or the Wigner-angle fold.
    """
    thetas, phis, weights = expanded_rule(grid)
    st, ct = np.sin(thetas), np.cos(thetas)
    sp, cp = np.sin(phis), np.cos(phis)
    p = np.stack([st * cp, st * sp, ct])
    h = np.stack([cp * cp * ct + sp * sp, sp * cp * (ct - 1.0), -st * cp])
    v = np.stack([sp * cp * (ct - 1.0), sp * sp * ct + cp * cp, -st * sp])
    n = sign * np.array([np.sin(alpha), 0.0, np.cos(alpha)])
    n_p = n @ p
    p_perp = p - np.outer(n, n_p)

    def limit(e):
        n_e = n @ e
        return e - np.outer(n, n_e) - (n_e / (1.0 + n_p)) * p_perp

    return _assemble(weights, {"h": limit(h), "v": limit(v)})


def narrow_beam_coefficient(xi, alpha):
    """c(xi, alpha) of the narrow-beam limit 1 - LN = c sigma^2 + O(sigma^4), where it is known.

    Three families have a closed form:

    * xi = 0, any alpha: c = 1 / (2 ln 2), the state at rest;
    * alpha = 0: c = exp(-2 xi) / (2 ln 2); a boost along the beam slides
      each direction along its meridian, tan(theta'/2) = exp(-xi) tan(theta/2),
      so a narrow cone is scaled by exp(-xi);
    * alpha = pi/2: c = (1 + tanh^2 xi) / (2 ln 2); the magnification alone
      would give sech^2 xi, and the rest is the gradient of the frame
      rotation across the beam.

    Any other (xi, alpha) raises ValueError.
    """
    if xi == 0.0:
        scale = 1.0
    elif alpha == 0.0:
        scale = math.exp(-2.0 * xi)
    elif alpha == math.pi / 2:
        scale = 1.0 + math.tanh(xi) ** 2
    else:
        raise ValueError(f"no closed form at xi = {xi}, alpha = {alpha}")
    return scale / (2.0 * math.log(2.0))
