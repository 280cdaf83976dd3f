"""The stacked core: TransformStack and the stacked oracle routes.

Each stack row is pinned to the one-row stack of its own factor list,
padding is shown to change no float, and every guard of a stacked route is
shown to raise in both of its routes: a one-transform stack paired with
every column, and a stack of one transform per column, where the bad
column sits among good ones.
"""
import math

import numpy as np
import pytest

import photonboost.wigner as wigner
from oracles import (
    production_transport,
    random_cases,
    random_directions,
    random_momenta,
    random_stack,
)
from photonboost.lorentz import (
    BOOST_Z,
    PAD,
    ROT_Y,
    ROT_Z,
    TransformStack,
    boost_z,
    compose,
    factor_residuals,
    factor_table,
    null_momenta,
    rot_y,
    rotations_to,
    stack_from_factors,
    standard_boosts,
)
from photonboost.validation import frequency_angle_tolerance
from photonboost.wigner import (
    LittleGroupError,
    d_rotation_form_stack,
    epsilon_stack,
    wigner_angle_oracle_stack,
    wigner_angle_stack,
)

K = np.array([1.0, 0.0, 0.0, 1.0])


def _factor_lists(rng, k):
    """The (kind, parameter) lists of the rows of a drawn stack, padding left out."""
    drawn = random_stack(rng, k)
    return [
        [(int(c), float(p)) for c, p in zip(kinds, params) if c != PAD]
        for kinds, params in zip(drawn.kinds, drawn.params)
    ]


def test_stack_matrices_are_from_factors_row_by_row(rng):
    lists = _factor_lists(rng, 100)
    stack = stack_from_factors(lists)
    assert stack.kinds.shape == (100, 5)
    for factors, m, count in zip(lists, stack.matrices, stack.factor_counts):
        assert m.tobytes() == stack_from_factors([factors]).matrix.tobytes()
        assert count == len(factors)
    assert np.all(factor_residuals(stack) == 0.0)


def test_standard_frames_share_one_convention(rng):
    # R(p-hat) = R_z(phi) R_y(theta) and H(p) = R(p-hat) B_z(log p^0): the
    # frame stack, the standard-boost stack and the polarization basis all
    # read the same factor rows
    thetas, phis = random_directions(rng, 40)
    thetas, phis = np.append(thetas, [0.0, math.pi]), np.append(phis, [0.0, 0.0])
    mags = rng.uniform(0.5, 2.0, len(thetas))
    frames = rotations_to(thetas, phis)
    boosts = standard_boosts(null_momenta(thetas, phis, mags))
    assert frames.kinds.tolist() == [[ROT_Z, ROT_Y]] * len(thetas)
    assert frames.params.tolist() == np.stack([phis, thetas], axis=1).tolist()
    assert boosts.kinds.tolist() == [[ROT_Z, ROT_Y, BOOST_Z]] * len(thetas)
    for i, m in enumerate(mags):
        R, H = frames.matrices[i], boosts.matrices[i]
        assert np.abs(H - R @ boost_z(float(np.log(m))).matrix).max() <= 1e-15 * H.max()
        for lam in (+1, -1):
            expected = (R[1:, 1] + lam * 1j * R[1:, 2]) / math.sqrt(2.0)
            assert epsilon_stack(thetas[i], phis[i], lam)[1:].tobytes() == expected.tobytes()


def test_stack_guard_accepts_its_bounds():
    kinds = [[BOOST_Z, ROT_Y], [BOOST_Z, PAD]]
    stack = TransformStack(kinds, [[15.0, 1e300], [-15.0, 0.0]])
    assert stack.factor_counts.tolist() == [2, 1]


def _repeated(stack, n):
    """The one transform of stack, n times over, as an n-row stack."""
    return TransformStack(*(np.repeat(a, n, axis=0) for a in (stack.kinds, stack.params, stack.matrices)))


def test_one_transform_stack_pairs_with_every_column(rng):
    single = random_stack(rng, 1)
    p = random_momenta(rng, 20)
    repeated = _repeated(single, 20)
    assert np.array_equal(wigner_angle_stack(single, p), wigner_angle_stack(repeated, p))
    assert np.array_equal(single.apply(p), repeated.apply(p))
    with pytest.raises(ValueError, match="do not pair"):
        wigner_angle_stack(_repeated(single, 2), p)


def _padded(stack, where):
    """The same transforms with two PAD columns added at the front, middle or end."""
    pad_k = np.full((len(stack), 2), PAD)
    pad_p = np.zeros((len(stack), 2))
    j = {"front": 0, "middle": 1, "end": stack.kinds.shape[1]}[where]
    kinds = np.hstack([stack.kinds[:, :j], pad_k, stack.kinds[:, j:]])
    params = np.hstack([stack.params[:, :j], pad_p, stack.params[:, j:]])
    return TransformStack(kinds, params)


@pytest.mark.parametrize("where", ["front", "middle", "end"])
def test_identity_padding_changes_no_float(rng, where):
    stack, p, e = random_cases(rng, 60, rng.uniform(0.5, 2.0, 60))
    padded = _padded(stack, where)
    assert padded.matrices.tobytes() == stack.matrices.tobytes()
    assert np.array_equal(padded.factor_counts, stack.factor_counts)
    for route in (wigner_angle_stack, wigner_angle_oracle_stack):
        assert route(padded, p).tobytes() == route(stack, p).tobytes()
    for route in (d_rotation_form_stack, production_transport):
        assert route(padded, p, e).tobytes() == route(stack, p, e).tobytes()
    assert padded.inverse().matrices.tobytes() == stack.inverse().matrices.tobytes()


def test_frequency_budget_counts_true_factors_not_padded_width(rng):
    lists = _factor_lists(rng, 40)
    assert {len(f) for f in lists} == {1, 2, 3, 4, 5}
    stack = _padded(stack_from_factors(lists), "end")
    assert stack.kinds.shape[1] == 7
    budgets = frequency_angle_tolerance(stack)
    for factors, budget in zip(lists, budgets):
        assert budget == frequency_angle_tolerance(stack_from_factors([factors]))[0]
        assert budget == 16 * math.ulp(math.pi) * len(factors)


def test_composed_stack_matches_compose(rng):
    first = random_stack(rng, 30, max_factors=3)
    second = random_stack(rng, 30, max_factors=3)
    both = compose(second, first)
    assert np.array_equal(both.factor_counts, second.factor_counts + first.factor_counts)
    for i, m in enumerate(both.matrices):
        assert m.tobytes() == (second.matrices[i] @ first.matrices[i]).tobytes()
        assert both.kinds[i].tolist() == second.kinds[i].tolist() + first.kinds[i].tolist()
    with pytest.raises(ValueError):
        compose(second, random_stack(rng, 2))


def _perturbed(L, index, delta):
    m = np.array(L.matrix)
    m[index] += delta
    return m


_ONE = ((ROT_Y,),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TransformStack(_ONE, ((0.7,),), [_perturbed(rot_y(0.7), (1, 3), 1e-6)]), "metric"),
        (lambda: TransformStack(_ONE, ((0.7,),), [np.full((4, 4), np.nan)]), "metric"),
        (lambda: TransformStack(((3,),), ((0.1,),)), "unknown generator kind"),
        (lambda: TransformStack(((-2,),), ((0.1,),)), "unknown generator kind"),
        (lambda: stack_from_factors([((ROT_Y, 0.1), ("boost_x", 0.2))]), "integer codes"),
        (lambda: stack_from_factors([((ROT_Y, 0.1), (1.5, 0.2))]), "integer codes"),
        (lambda: TransformStack(_ONE, ((math.nan,),)), "must be finite"),
        (lambda: TransformStack(((ROT_Z,),), ((math.inf,),)), "must be finite"),
        (lambda: TransformStack(((BOOST_Z,),), ((15.5,),)), "rapidity"),
        (lambda: TransformStack(((PAD,),), ((0.3,),)), "padding"),
        (lambda: TransformStack(((0.0,),), ((0.3,),)), "integer codes"),
    ],
    ids=[
        "perturbed-rotation", "nan-matrix", "unknown-code", "code-below-pad", "unknown-name",
        "non-integer-kind",
        "nan-factor", "inf-factor", "rapidity-bound", "padded-parameter", "float-codes",
    ],
)
def test_stack_guard_rejects_each_defect(build, message):
    with pytest.raises(ValueError, match=message):
        build()


_MASSIVE = np.array([1.0, 0.0, 0.0, 0.5])
_PAST = np.array([-1.0, 0.0, 0.0, -1.0])
_NAN_MOMENTUM = np.array([1.0, np.nan, 0.0, 1.0])
_X_POL = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def _raises_in_both_routes(exc, message, route, stack, momentum, *eps):
    """Call route with the one transform of stack on momentum (and eps), alone and as a batch.

    The batch pairs three copies of the transform with two good columns
    (the reference momentum, x-polarized) and the given one, so the guard
    must find the bad column among good ones.
    """
    with pytest.raises(exc, match=message):
        route(stack, momentum[:, None], *(e[:, None] for e in eps))
    with pytest.raises(exc, match=message):
        route(
            _repeated(stack, 3),
            np.stack([K, K, momentum], axis=1),
            *(np.stack([_X_POL, _X_POL, e], axis=1) for e in eps),
        )


@pytest.mark.parametrize("momentum", [_MASSIVE, _PAST], ids=["non-null", "past-pointing"])
@pytest.mark.parametrize(
    "route, eps",
    [
        (wigner_angle_stack, ()),
        (wigner_angle_oracle_stack, ()),
        (d_rotation_form_stack, (_X_POL,)),
    ],
    ids=["closed-form", "oracle", "rotation-form"],
)
def test_momentum_guard_raises_in_both_routes(momentum, route, eps):
    _raises_in_both_routes(
        ValueError, "null and future-pointing", route, boost_z(0.3), momentum, *eps
    )


def test_stacked_momentum_guard_rejects_nan():
    for route in (wigner_angle_stack, wigner_angle_oracle_stack):
        with pytest.raises(ValueError, match="null and future-pointing"):
            route(stack_from_factors([()]), _NAN_MOMENTUM[:, None])


@pytest.mark.parametrize(
    "eps, message",
    [
        (np.array([0.0, 0.0, 0.0, 1.0], dtype=complex), "not transverse"),
        (np.array([0.5, 1.0, 0.0, 0.0], dtype=complex), "zero time component"),
        (np.array([np.nan, 1.0, 0.0, 0.0], dtype=complex), "zero time component"),
    ],
    ids=["longitudinal", "time-component", "nan-time-component"],
)
@pytest.mark.parametrize("route", [d_rotation_form_stack], ids=["rotation-form"])
def test_transversality_guard_raises_in_both_routes(eps, message, route):
    _raises_in_both_routes(ValueError, message, route, stack_from_factors([()]), K, eps)


def test_little_group_guard_raises_in_both_routes(monkeypatch, rng):
    real = wigner.standard_boosts
    calls = [0]

    def crooked(momenta):
        calls[0] += 1
        return real(momenta * (1.001 if calls[0] % 2 else 1.0))

    monkeypatch.setattr(wigner, "standard_boosts", crooked)
    p = random_momenta(rng, 1)[:, 0]
    _raises_in_both_routes(
        LittleGroupError, "reference momentum", wigner_angle_oracle_stack, boost_z(0.4), p
    )


def test_factor_table_pads_short_rows():
    kinds, params = factor_table([((ROT_Z, 0.5),), (), ((BOOST_Z, 0.1), (ROT_Y, -0.2))])
    assert kinds.tolist() == [[ROT_Z, PAD], [PAD, PAD], [BOOST_Z, ROT_Y]]
    assert params.tolist() == [[0.5, 0.0], [0.0, 0.0], [0.1, -0.2]]
    assert np.array_equal(TransformStack(kinds, params).matrices[1], np.eye(4))


def test_stack_arrays_are_read_only_copies():
    kinds, params = factor_table([((ROT_Y, 0.5),)])
    stack = TransformStack(kinds, params)
    params[0, 0] = 1.0
    assert stack.params[0, 0] == 0.5
    for a in (stack.kinds, stack.params, stack.matrices):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0
