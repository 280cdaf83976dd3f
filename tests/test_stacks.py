"""The stacked core: TransformStack and the stacked oracle routes.

Each stacked route is pinned row by row to its one-transform entry point,
padding is shown to change no float, and every guard of a stacked route
is shown to raise as the one-transform guard does.
"""
import math

import numpy as np
import pytest

import photonboost.wigner as wigner
from photonboost.lorentz import (
    BOOST_Z,
    KIND_CODE,
    PAD,
    ROT_Y,
    ROT_Z,
    Direction,
    FourVector,
    LorentzTransform,
    TransformStack,
    compose,
    compose_stacks,
    factor_residuals,
    factor_table,
    from_factors,
    null_momenta,
    rotation_to,
    rotations_to,
    stack_from_factors,
    standard_boost,
    standard_boosts,
)
from photonboost.polarization import (
    d_gauge_form,
    d_gauge_form_stack,
    d_rotation_form,
    d_rotation_form_stack,
    epsilon,
    epsilon_stack,
    h_vec,
    h_vec_stack,
    v_vec,
    v_vec_stack,
)
from photonboost.validation import (
    frequency_angle_tolerance,
    random_direction,
    random_null_momentum,
    random_transform,
    random_transverse_polarization,
)
from photonboost.wigner import (
    LittleGroupError,
    wigner_angle,
    wigner_angle_oracle,
    wigner_angle_oracle_stack,
    wigner_angle_stack,
)

K = FourVector(1.0, 0.0, 0.0, 1.0)


def _cases(rng, k=80, max_factors=5):
    transforms = [random_transform(rng, max_factors=max_factors) for _ in range(k)]
    dirs = [random_direction(rng) for _ in range(k)]
    momenta = [FourVector.from_array(null_momenta(d.theta, d.phi, rng.uniform(0.5, 2.0))) for d in dirs]
    eps = [random_transverse_polarization(rng, d) for d in dirs]
    return transforms, dirs, momenta, eps


def _columns(vectors):
    return np.stack([v.as_array() if isinstance(v, FourVector) else v for v in vectors], axis=1)


def test_stack_matrices_are_from_factors_row_by_row(rng):
    transforms = [random_transform(rng) for _ in range(100)]
    stack = stack_from_factors(L.factors for L in transforms)
    assert stack.kinds.shape == (100, 5)
    for L, m, count in zip(transforms, stack.matrices, stack.factor_counts):
        assert m.tobytes() == L.matrix.tobytes()
        assert count == len(L.factors)
    assert np.all(factor_residuals(stack) == 0.0)


def test_stacked_wigner_routes_match_their_scalar_entry_points(rng):
    transforms, _, momenta, _ = _cases(rng)
    stack = TransformStack.of(transforms)
    p = _columns(momenta)
    closed = wigner_angle_stack(stack, p)
    oracle = wigner_angle_oracle_stack(stack, p)
    for i, (L, q) in enumerate(zip(transforms, momenta)):
        assert closed[i] == wigner_angle(L, q)
        assert abs(oracle[i] - wigner_angle_oracle(L, q)) <= 1e-15


def test_stacked_transport_forms_match_their_scalar_entry_points(rng):
    transforms, _, momenta, eps = _cases(rng)
    stack = TransformStack.of(transforms)
    p, e = _columns(momenta), np.stack(eps, axis=1)
    rotated = d_rotation_form_stack(stack, p, e)
    gauged = d_gauge_form_stack(stack, p, e)
    for i, (L, q, x) in enumerate(zip(transforms, momenta, eps)):
        assert np.abs(rotated[:, i] - d_rotation_form(L, q, x)).max() <= 1e-15
        assert np.abs(gauged[:, i] - d_gauge_form(L, q, x)).max() <= 1e-15


def test_stacked_basis_matches_its_scalar_entry_points(rng):
    dirs = [random_direction(rng) for _ in range(50)] + [Direction(0.0), Direction(math.pi)]
    thetas = np.array([d.theta for d in dirs])
    phis = np.array([d.phi for d in dirs])
    for stacked, scalar in (
        (epsilon_stack(thetas, phis, +1), lambda d: epsilon(d, +1)),
        (epsilon_stack(thetas, phis, -1), lambda d: epsilon(d, -1)),
        (h_vec_stack(thetas, phis), h_vec),
        (v_vec_stack(thetas, phis), v_vec),
    ):
        assert stacked.shape == (4, len(dirs))
        for i, d in enumerate(dirs):
            assert np.abs(stacked[:, i] - scalar(d)).max() <= 1e-15


def test_standard_frames_share_one_convention(rng):
    # R(p-hat) = R_z(phi) R_y(theta) and H(p) = R(p-hat) B_z(log p^0): the
    # one-direction functions, the stacks and the polarization basis all
    # read the same factor rows
    dirs = [random_direction(rng) for _ in range(40)] + [Direction(0.0), Direction(math.pi)]
    mags = rng.uniform(0.5, 2.0, len(dirs))
    thetas = np.array([d.theta for d in dirs])
    phis = np.array([d.phi for d in dirs])
    frames = rotations_to(thetas, phis)
    boosts = standard_boosts(null_momenta(thetas, phis, mags))
    for i, (d, m) in enumerate(zip(dirs, mags)):
        R, H = rotation_to(d), standard_boost(d, m)
        assert R.factors == ((ROT_Z, d.phi), (ROT_Y, d.theta))
        assert H.factors == R.factors + ((BOOST_Z, float(np.log(m))),)
        assert R.matrix.tobytes() == frames.matrices[i].tobytes()
        assert R.matrix.tobytes() == frames.transform(i).matrix.tobytes()
        assert np.abs(H.matrix - boosts.matrices[i]).max() <= 1e-15 * H.matrix.max()
        for lam in (+1, -1):
            expected = (R.matrix[1:, 1] + lam * 1j * R.matrix[1:, 2]) / math.sqrt(2.0)
            assert epsilon(d, lam)[1:].tobytes() == expected.tobytes()


def test_stack_of_transforms_keeps_their_checked_arrays(rng):
    transforms = [random_transform(rng) for _ in range(20)] + [from_factors(())]
    stack = TransformStack.of(transforms)
    checked = TransformStack(*factor_table(L.factors for L in transforms), [L.matrix for L in transforms])
    for name in ("kinds", "params", "matrices"):
        assert getattr(stack, name).tobytes() == getattr(checked, name).tobytes()
        assert not getattr(stack, name).flags.writeable
    assert [stack.transform(i).factors for i in range(len(stack))] == [L.factors for L in transforms]
    with pytest.raises(TypeError):
        TransformStack.of([np.eye(4)])


def test_stack_guard_accepts_its_bounds():
    kinds = [[KIND_CODE[BOOST_Z], KIND_CODE[ROT_Y]], [KIND_CODE[BOOST_Z], PAD]]
    stack = TransformStack(kinds, [[15.0, 1e300], [-15.0, 0.0]])
    assert stack.factor_counts.tolist() == [2, 1]


def test_one_transform_stack_pairs_with_every_column(rng):
    L = random_transform(rng)
    momenta = [random_null_momentum(rng) for _ in range(20)]
    single = TransformStack.of([L])
    p = _columns(momenta)
    assert np.array_equal(wigner_angle_stack(single, p), wigner.wigner_angles(L, p))
    for i, q in enumerate(momenta):
        assert wigner_angle_stack(single, p)[i] == wigner_angle(L, q)
    with pytest.raises(ValueError, match="do not pair"):
        wigner_angle_stack(TransformStack.of([L, L]), p)


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
    transforms, _, momenta, eps = _cases(rng, k=60)
    stack = stack_from_factors(L.factors for L in transforms)
    padded = _padded(stack, where)
    p, e = _columns(momenta), np.stack(eps, axis=1)
    assert padded.matrices.tobytes() == stack.matrices.tobytes()
    assert np.array_equal(padded.factor_counts, stack.factor_counts)
    for route in (wigner_angle_stack, wigner_angle_oracle_stack):
        assert route(padded, p).tobytes() == route(stack, p).tobytes()
    for route in (d_rotation_form_stack, d_gauge_form_stack):
        assert route(padded, p, e).tobytes() == route(stack, p, e).tobytes()
    assert padded.inverse().matrices.tobytes() == stack.inverse().matrices.tobytes()


def test_frequency_budget_counts_true_factors_not_padded_width(rng):
    transforms = [random_transform(rng, max_factors=n) for n in (1, 2, 3, 4, 5) * 8]
    stack = _padded(stack_from_factors(L.factors for L in transforms), "end")
    assert stack.kinds.shape[1] == 7
    budgets = frequency_angle_tolerance(stack)
    for L, budget in zip(transforms, budgets):
        assert budget == frequency_angle_tolerance(TransformStack.of([L]))[0]
        assert budget == 16 * math.ulp(math.pi) * len(L.factors)


def test_composed_stack_matches_compose(rng):
    first = [random_transform(rng, max_factors=3) for _ in range(30)]
    second = [random_transform(rng, max_factors=3) for _ in range(30)]
    both = compose_stacks(TransformStack.of(second), TransformStack.of(first))
    for L2, L1, m, count in zip(second, first, both.matrices, both.factor_counts):
        L = compose(L2, L1)
        assert m.tobytes() == L.matrix.tobytes()
        assert count == len(L.factors)


def _rotation(gamma=0.7):
    return from_factors(((ROT_Y, gamma),))


def _perturbed(L, index, delta):
    m = np.array(L.matrix)
    m[index] += delta
    return m


_ONE = ((KIND_CODE[ROT_Y],),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TransformStack(_ONE, ((0.7,),), [_perturbed(_rotation(), (1, 3), 1e-6)]), "metric"),
        (lambda: TransformStack(_ONE, ((0.7,),), [np.full((4, 4), np.nan)]), "metric"),
        (lambda: TransformStack(((3,),), ((0.1,),)), "unknown generator kind"),
        (lambda: TransformStack(((-2,),), ((0.1,),)), "unknown generator kind"),
        (lambda: stack_from_factors([((ROT_Y, 0.1), ("boost_x", 0.2))]), "unknown generator kind"),
        (lambda: TransformStack(_ONE, ((math.nan,),)), "must be finite"),
        (lambda: TransformStack(((KIND_CODE[ROT_Z],),), ((math.inf,),)), "must be finite"),
        (lambda: TransformStack(((KIND_CODE[BOOST_Z],),), ((15.5,),)), "rapidity"),
        (lambda: TransformStack(((PAD,),), ((0.3,),)), "padding"),
        (lambda: TransformStack(((0.0,),), ((0.3,),)), "integer codes"),
    ],
    ids=[
        "perturbed-rotation", "nan-matrix", "unknown-code", "code-below-pad", "unknown-name",
        "nan-factor", "inf-factor", "rapidity-bound", "padded-parameter", "float-codes",
    ],
)
def test_stack_guard_rejects_each_defect(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_scalar_transform_guards_raise_like_the_stack_guard():
    with pytest.raises(ValueError, match="metric"):
        LorentzTransform(_perturbed(_rotation(), (1, 3), 1e-6), ((ROT_Y, 0.7),))
    with pytest.raises(ValueError, match="unknown generator kind"):
        from_factors(((ROT_Y, 0.1), ("boost_x", 0.2)))
    with pytest.raises(ValueError, match="must be finite"):
        from_factors(((ROT_Y, math.nan),))
    with pytest.raises(ValueError, match="rapidity"):
        from_factors(((BOOST_Z, 15.5),))


_MASSIVE = FourVector(1.0, 0.0, 0.0, 0.5)
_PAST = FourVector(-1.0, 0.0, 0.0, -1.0)
_NAN_MOMENTUM = np.array([1.0, np.nan, 0.0, 1.0])
_X_POL = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


@pytest.mark.parametrize("momentum", [_MASSIVE, _PAST], ids=["non-null", "past-pointing"])
@pytest.mark.parametrize(
    "scalar, stacked, eps",
    [
        (wigner_angle, wigner_angle_stack, ()),
        (wigner_angle_oracle, wigner_angle_oracle_stack, ()),
        (d_rotation_form, d_rotation_form_stack, (_X_POL,)),
        (d_gauge_form, d_gauge_form_stack, (_X_POL,)),
    ],
    ids=["closed-form", "oracle", "rotation-form", "gauge-form"],
)
def test_momentum_guard_raises_in_both_routes(momentum, scalar, stacked, eps):
    L = from_factors(((BOOST_Z, 0.3),))
    with pytest.raises(ValueError, match="null and future-pointing"):
        scalar(L, momentum, *eps)
    with pytest.raises(ValueError, match="null and future-pointing"):
        stacked(TransformStack.of([L]), momentum.as_array()[:, None], *(e[:, None] for e in eps))


def test_stacked_momentum_guard_rejects_nan():
    single = TransformStack.of([from_factors(())])
    for route in (wigner_angle_stack, wigner_angle_oracle_stack):
        with pytest.raises(ValueError, match="null and future-pointing"):
            route(single, _NAN_MOMENTUM[:, None])


@pytest.mark.parametrize(
    "eps, message",
    [
        (np.array([0.0, 0.0, 0.0, 1.0], dtype=complex), "not transverse"),
        (np.array([0.5, 1.0, 0.0, 0.0], dtype=complex), "zero time component"),
        (np.array([np.nan, 1.0, 0.0, 0.0], dtype=complex), "zero time component"),
    ],
    ids=["longitudinal", "time-component", "nan-time-component"],
)
@pytest.mark.parametrize(
    "scalar, stacked",
    [(d_rotation_form, d_rotation_form_stack), (d_gauge_form, d_gauge_form_stack)],
    ids=["rotation-form", "gauge-form"],
)
def test_transversality_guard_raises_in_both_routes(eps, message, scalar, stacked):
    L = from_factors(())
    with pytest.raises(ValueError, match=message):
        scalar(L, K, eps)
    with pytest.raises(ValueError, match=message):
        stacked(TransformStack.of([L]), K.as_array()[:, None], eps[:, None])


def test_little_group_guard_raises_in_both_routes(monkeypatch, rng):
    real = wigner.standard_boosts
    calls = [0]

    def crooked(momenta):
        calls[0] += 1
        return real(momenta * (1.001 if calls[0] % 2 else 1.0))

    monkeypatch.setattr(wigner, "standard_boosts", crooked)
    L = from_factors(((BOOST_Z, 0.4),))
    p = random_null_momentum(rng)
    with pytest.raises(LittleGroupError):
        wigner_angle_oracle(L, p)
    with pytest.raises(LittleGroupError):
        wigner_angle_oracle_stack(TransformStack.of([L, L]), np.stack([p.as_array()] * 2, axis=1))


def test_degenerate_transported_momentum_raises_in_both_routes():
    # time reversal preserves the metric but sends (L p)^0 below zero
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="degenerate transported momentum"):
        d_gauge_form(LorentzTransform(flip, ()), K, _X_POL)
    stack = TransformStack(np.zeros((1, 0), dtype=int), np.zeros((1, 0)), [flip])
    with pytest.raises(ValueError, match="degenerate transported momentum"):
        d_gauge_form_stack(stack, K.as_array()[:, None], _X_POL[:, None])


def test_factor_table_pads_short_rows():
    kinds, params = factor_table([((ROT_Z, 0.5),), (), ((BOOST_Z, 0.1), (ROT_Y, -0.2))])
    assert kinds.tolist() == [[KIND_CODE[ROT_Z], PAD], [PAD, PAD], [KIND_CODE[BOOST_Z], KIND_CODE[ROT_Y]]]
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
