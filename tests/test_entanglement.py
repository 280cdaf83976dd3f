import math

import numpy as np
import pytest

from conftest import concatenated
from oracles import random_stack
from photonboost import beams
from photonboost.beams import BeamSpec, build_grid, reduced_density
from photonboost.entanglement import (
    EXCHANGE_BASIS,
    PRODUCT_ROWS,
    exchange_blocks,
    hermitian_eigenvalues,
    log_negativity,
    log_negativity_from_spectrum,
    pair_states,
    partial_transpose_A,
    rows_product,
    symmetric_2x2_eigenvalues,
)
from photonboost.lorentz import compose, identity, rot_y, rot_z
from photonboost.sweep import boost_stack

BELL = np.zeros(9)
BELL[0] = 1 / math.sqrt(2)
BELL[4] = -1 / math.sqrt(2)
BELL_RHO = np.outer(BELL, BELL)


def _random_single_state(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_partial_transpose_of_product_state(rng):
    a = _random_single_state(rng)
    b = _random_single_state(rng)
    got = partial_transpose_A(np.kron(a, b))
    assert np.abs(got - np.kron(a.T, b)).max() < 1e-14


def test_partial_transpose_is_involution(rng):
    a = _random_single_state(rng)
    b = _random_single_state(rng)
    rho = np.kron(a, b)
    assert np.abs(partial_transpose_A(partial_transpose_A(rho)) - rho).max() == 0.0


def test_partial_transpose_hermitian(rng):
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 16, 16)
    rho = reduced_density(identity(), grid, spec)
    pt = partial_transpose_A(rho)
    assert np.abs(pt - pt.conj().T).max() < 1e-10


def test_bell_partial_transpose_spectrum():
    # the embedded two-qubit Bell projector: eigenvalues {1/2 x3, -1/2, 0 x5}
    ev = hermitian_eigenvalues(partial_transpose_A(BELL_RHO))
    want = np.array([-0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5])
    assert np.abs(ev - want).max() < 1e-12


def test_eigenvalues_of_maximally_mixed():
    ev = hermitian_eigenvalues(np.eye(9, dtype=complex) / 9.0)
    assert np.abs(ev - 1.0 / 9.0).max() < 1e-14


def test_eigenvalues_of_diagonal():
    ev = hermitian_eigenvalues(np.diag(np.arange(9.0, 0.0, -1.0)))
    assert np.abs(ev - np.arange(1.0, 10.0)).max() < 1e-12


def test_eigenvalues_reconstruction_oracle(rng):
    for _ in range(20):
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        m = 0.5 * (m + m.conj().T)
        got = hermitian_eigenvalues(m)
        w, u = np.linalg.eigh(m)
        assert np.abs(u @ np.diag(w) @ u.conj().T - m).max() < 1e-9
        assert np.abs(got - np.sort(w)).max() < 1e-12
        assert abs(got.sum() - np.trace(m).real) < 1e-9


def test_eigenvalues_reject_non_hermitian():
    m = np.zeros((9, 9), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        hermitian_eigenvalues(m)


@pytest.mark.parametrize("where", ["everywhere", "off-diagonal"])
def test_eigenvalues_reject_a_nan_entry_as_non_finite(where):
    # NaN > 1e-8 is false: a check written that way lets a NaN through, to
    # be reported as an eigenvalue sum drifted from the trace by nan
    if where == "everywhere":
        m = np.full((1, 2, 2), np.nan)
    else:
        m = np.eye(3)
        m[0, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="not Hermitian or has a non-finite entry"):
        hermitian_eigenvalues(m)


def test_eigenvalues_of_a_stack_match_one_by_one(rng):
    m = rng.normal(size=(4, 9, 9)) + 1j * rng.normal(size=(4, 9, 9))
    m = 0.5 * (m + np.swapaxes(m, 1, 2).conj())
    got = hermitian_eigenvalues(m)
    assert got.shape == (4, 9)
    for one, ev in zip(m, got):
        assert np.abs(ev - hermitian_eigenvalues(one)).max() < 1e-12


def _symmetric_2x2_cases(rng):
    """(name, (n, 2, 2) symmetric stack): the cases the closed form must hold on."""
    x = rng.normal(size=(200, 2, 2))
    u = rng.normal(size=(200, 2, 1))
    a = rng.normal(size=200)
    degenerate = np.zeros((200, 2, 2))
    degenerate[:, 0, 0] = degenerate[:, 1, 1] = a
    scaled = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-150, 150, size=(200, 3))
    return [
        ("random", x + x.swapaxes(1, 2)),
        ("degenerate", degenerate),
        ("rank-deficient", u @ u.swapaxes(1, 2)),
        ("badly scaled", scaled[:, [0, 1, 1, 2]].reshape(200, 2, 2)),
        ("split diagonal", np.array([[[1.0, 1e-300], [1e-300, -1e300]], [[1e-20, 3e-30], [3e-30, 1e-20]]])),
    ]


def test_symmetric_2x2_eigenvalues_match_eigvalsh_to_a_few_ulp_of_the_norm(rng):
    for name, m in _symmetric_2x2_cases(rng):
        got = symmetric_2x2_eigenvalues(m)
        want = np.linalg.eigvalsh(m)
        norm = np.abs(want).max(axis=1)
        assert got.shape == want.shape, name
        assert (got[:, 0] <= got[:, 1]).all(), name
        assert (np.abs(got - want).max(axis=1) <= 4 * np.finfo(float).eps * norm).all(), name


def test_symmetric_2x2_eigenvalues_of_exact_cases():
    m = np.array([[[2.0, 0.0], [0.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]], [[3.0, 4.0], [4.0, -3.0]]])
    got = symmetric_2x2_eigenvalues(m)
    assert got.tolist() == [[2.0, 2.0], [0.0, 2.0], [-5.0, 5.0]]


def test_symmetric_2x2_eigenvalues_keep_the_hermitian_tolerance():
    m = np.array([[1.0, 0.5], [0.5 + 9e-9, 2.0]])
    assert np.abs(symmetric_2x2_eigenvalues(m) - np.linalg.eigvalsh(0.5 * (m + m.T))).max() <= 1e-15
    m[1, 0] += 2e-8
    with pytest.raises(np.linalg.LinAlgError, match="not Hermitian"):
        symmetric_2x2_eigenvalues(m)


def test_eigenvalue_sum_drift_guard(monkeypatch):
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: real(m) + 1e-6)
    with pytest.raises(np.linalg.LinAlgError, match="drifted"):
        hermitian_eigenvalues(np.eye(9) / 9.0)


def test_log_negativity_floor_guard():
    # log2(1 + 2 N) holds only for a unit-trace state: a scaled state's
    # trace norm scales with it (3 BELL_RHO would read 2.0, and 2 rho of a
    # beam more than rho), so any trace off 1, or NaN, is refused
    spec = BeamSpec(0.5)
    rho = reduced_density(identity(), build_grid(spec, 16, 16), spec)
    for scaled in (np.eye(9) / 18.0, 3.0 * BELL_RHO, 2.0 * rho, 0.5 * rho, np.full((9, 9), np.nan)):
        with pytest.raises(ValueError, match="unit-trace state, got trace"):
            log_negativity(scaled)
    # in a stack the first state off unit trace is named
    product = np.diag([1.0 + 2.0**-20] + [0.0] * 8)
    with pytest.raises(ValueError, match=r"got trace 1\.0000009536743164$"):
        log_negativity(np.stack([BELL_RHO, product, 3.0 * BELL_RHO]))
    # a trace within 1e-9 of 1 is accepted, and rounding below zero is clamped
    assert log_negativity(np.eye(9) * (1.0 - 1e-12) / 9.0) == 0.0
    assert log_negativity(rho * (1.0 + 5e-10)) > 0.8


def test_spectrum_rounding_band_is_relative_to_the_row():
    # |lambda| <= 16 eps max|lambda| of its row is rounding: 1.8e-15 at 0.5
    base = [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]
    rows = np.array([base + [-2.9e-17], base + [-1.7e-15], base + [-1e-13], base + [-2e-15]])
    got = log_negativity_from_spectrum(rows)
    assert got[:2].tolist() == [0.0, 0.0]
    assert got[2] == math.log1p(2e-13) / math.log(2.0)
    assert got[3] == math.log1p(4e-15) / math.log(2.0)
    # the band scales with the row: the same -1.7e-15 beside a largest 1e-2 counts
    small = np.array([1e-2] + [0.0] * 7 + [-1.7e-15])
    assert log_negativity_from_spectrum(small) == math.log1p(3.4e-15) / math.log(2.0)


def test_log_negativity_of_a_stack_matches_one_by_one(rng):
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 16, 16)
    rhos = [reduced_density(compose(rot_y(g), identity()), grid, spec) for g in (0.2, 1.1)]
    rhos.append(BELL_RHO)
    got = log_negativity(np.stack(rhos))
    assert got.shape == (3,)
    assert np.abs(got - [log_negativity(r) for r in rhos]).max() < 1e-14


def test_log_negativity_maximally_mixed_is_zero():
    assert log_negativity(np.eye(9, dtype=complex) / 9.0) == 0.0


def test_log_negativity_of_bell_projector():
    # trace norm 3 * 1/2 + 1/2 = 2
    assert abs(log_negativity(BELL_RHO) - 1.0) < 1e-12


def test_log_negativity_separable_mixture_is_zero(rng):
    rho = np.zeros((9, 9), dtype=complex)
    weights = rng.uniform(0.1, 1.0, size=4)
    weights /= weights.sum()
    for w in weights:
        rho += w * np.kron(_random_single_state(rng), _random_single_state(rng))
    assert log_negativity(rho) == 0.0


def test_log_negativity_invariant_under_local_rotations(rng):
    spec = BeamSpec(1.0)
    grid = build_grid(spec, 32, 32)
    base = log_negativity(reduced_density(identity(), grid, spec))
    for _ in range(10):
        rot = compose(
            rot_z(rng.uniform(-math.pi, math.pi)), rot_y(rng.uniform(-math.pi, math.pi))
        )
        r3 = rot.matrix[1:, 1:]
        r9 = np.kron(r3, r3)
        rho = reduced_density(identity(), grid, spec)
        assert abs(log_negativity(r9 @ rho @ r9.T) - base) < 1e-8


def test_transpose_side_does_not_matter(rng):
    spec = BeamSpec(0.9)
    grid = build_grid(spec, 24, 24)
    rho = reduced_density(identity(), grid, spec)
    pt_a = partial_transpose_A(rho)
    # transposing B instead equals the full transpose of the A result
    pt_b = partial_transpose_A(rho.T).T
    ln_a = math.log2(np.abs(hermitian_eigenvalues(pt_a)).sum())
    ln_b = math.log2(np.abs(hermitian_eigenvalues(pt_b)).sum())
    assert abs(ln_a - ln_b) < 1e-9


def test_partial_transpose_preserves_trace(rng):
    spec = BeamSpec(1.2)
    grid = build_grid(spec, 24, 24)
    rho = reduced_density(identity(), grid, spec)
    ev = hermitian_eigenvalues(partial_transpose_A(rho))
    assert abs(ev.sum() - 1.0) < 1e-9


def test_small_spread_limit_recovers_bell_value():
    spec = BeamSpec(0.01)
    grid = build_grid(spec, 64, 64)
    assert abs(log_negativity(reduced_density(identity(), grid, spec)) - 1.0) < 1e-3


# photon exchange on the 9 = 3 x 3 indices: (a, b) -> (b, a)
_SWAP = np.arange(9).reshape(3, 3).T.reshape(-1)


def _exchange_case(case):
    """(stack, grid): a fig3-style sweep stack out to |xi| = 12, drawn stacks, or both."""
    sweep = boost_stack(2 * math.pi / 5, np.linspace(-12.0, 12.0, 25))
    drawn = random_stack(np.random.default_rng(7), 40)
    stack, sigma, n_theta, n_phi = [
        (sweep, 1.3, 48, 48),
        (sweep, 0.5, 32, 32),
        (drawn, 1.0, 24, 24),
        (concatenated([sweep, drawn]), 0.1, 32, 16),
    ][case]
    return stack, build_grid(BeamSpec(sigma), n_theta, n_phi)


def _exchange_basis_rotation(m):
    """Q m Q^T in the exchange basis, built here from its definition."""
    r = math.sqrt(0.5)
    q = np.zeros((9, 3, 3))
    for i in range(3):
        q[i, i, i] = 1.0
    for n, (i, j) in enumerate(((0, 2), (0, 1), (1, 2))):  # xz, xy, yz
        q[3 + n, i, j] = q[3 + n, j, i] = r
        q[6 + n, i, j], q[6 + n, j, i] = r, -r
    q = q.reshape(9, 9)
    return q @ m @ q.T


@pytest.mark.parametrize("case", range(4))
def test_states_commute_with_photon_exchange_exactly(case):
    stack, grid = _exchange_case(case)
    raw = pair_states(beams.transported_moments(stack, grid))
    assert np.array_equal(raw[:, _SWAP][:, :, _SWAP], raw)
    states = beams.density_states(stack, grid)[0]
    assert np.array_equal(states[:, _SWAP][:, :, _SWAP], states)


def _normalized_blocks(stack, grid):
    """exchange_blocks of the stack's moments, divided by each state's trace."""
    sym, anti = exchange_blocks(beams.transported_moments(stack, grid))
    tr = np.trace(sym[:, 0], axis1=1, axis2=2) + np.trace(anti[:, 0], axis1=1, axis2=2)
    return sym / tr[:, None, None, None], anti / tr[:, None, None, None]


def test_exchange_basis_is_the_definition():
    assert np.array_equal(_exchange_basis_rotation(np.eye(9)), EXCHANGE_BASIS @ EXCHANGE_BASIS.T)
    assert np.array_equal(_exchange_basis_rotation(BELL_RHO), EXCHANGE_BASIS @ BELL_RHO @ EXCHANGE_BASIS.T)


def test_exchange_basis_runs_even_then_odd_under_the_mirror_in_each_block():
    # y -> -y on both photons is P (x) P with P = diag(1, -1, 1); in the
    # basis it is diagonal, +1 on xx, yy, zz, xz and xz, -1 on xy, yz twice
    p = np.diag([1.0, -1.0, 1.0])
    mirror = EXCHANGE_BASIS @ np.kron(p, p) @ EXCHANGE_BASIS.T
    assert np.abs(mirror - np.diag([1.0, 1, 1, 1, -1, -1, 1, -1, -1])).max() <= 1e-15


@pytest.mark.parametrize("case", range(4))
def test_exchange_blocks_drop_only_vanishing_couplings(case):
    # the blocks built straight from the moments are the diagonal blocks of
    # the 9x9 state and of its partial transpose in the exchange basis, whose
    # couplings between the two subspaces vanish
    stack, grid = _exchange_case(case)
    states = beams.density_states(stack, grid)[0]
    sym, anti = _normalized_blocks(stack, grid)
    for i, m in enumerate((states, partial_transpose_A(states))):
        full = _exchange_basis_rotation(m)
        assert np.abs(full[:, :6, 6:]).max() <= 1e-15
        assert np.abs(full[:, :6, :6] - sym[:, i]).max() <= 1e-15
        assert np.abs(full[:, 6:, 6:] - anti[:, i]).max() <= 1e-15


def test_exchange_blocks_are_column_major_for_the_batched_solve(rng):
    # mechanism pin (column-major blocks, ROADMAP item 14): numpy's batched
    # eigvalsh solves a stack faster when its row axis has the smallest
    # stride, so the blocks of a stack of rows are laid out that way
    for k in (2, 7, 20):
        x = rng.normal(size=(k, 6, 8))
        for b in exchange_blocks(x @ x.swapaxes(1, 2)):
            assert b.strides[0] == b.itemsize == min(b.strides)
            assert np.abs(b - b.swapaxes(-1, -2)).max() <= 1e-15 * np.abs(b).max()


def test_exchange_blocks_of_a_row_do_not_depend_on_the_rows_beside_it(rng):
    x = rng.normal(size=(70, 6, 8))
    moments = x @ x.swapaxes(1, 2)
    sym, anti = exchange_blocks(moments)
    # the 9x9 states come from the same batched product as the blocks
    states = pair_states(moments)
    for i in (0, 33, 69):
        alone = exchange_blocks(moments[i:i + 1])
        assert np.array_equal(alone[0][0], sym[i]) and np.array_equal(alone[1][0], anti[i])
        assert pair_states(moments[i:i + 1])[0].tobytes() == states[i].tobytes()


def test_rows_product_rounds_a_row_alike_at_every_position_of_its_tile_whatever_the_others_hold(rng):
    # beams._aberration_sums writes the g and then the g^2 weights of a
    # part's boosts into one product, so each row must come out with the
    # bits it has alone, at any position and beside any rows; the widths
    # are the node blocks of the benchmark's grids (16^2, 64^2, 96^2, 384^2
    # and 192^2), 1,440 placements in all
    for width in (144, 2112, 4704, 6176, 6208):
        table = rng.normal(size=(12, width))
        for row in rng.uniform(0.0, 1.0, size=(4, width)):
            tile = np.zeros((PRODUCT_ROWS, width))
            tile[0] = row
            want = rows_product(tile, table.T)[0]
            for at in range(PRODUCT_ROWS):
                for scale in (0.0, 1e-3, 1.0, 1e3, 1.0, 1e6, 1.0, 1e-6, 1.0):
                    tile = scale * rng.uniform(-1.0, 1.0, size=(PRODUCT_ROWS, width))
                    tile[at] = row
                    assert rows_product(tile, table.T)[at].tobytes() == want.tobytes(), (width, at, scale)


def test_exchange_blocks_of_any_gram_match_the_rotated_9x9(rng):
    # any symmetric 6x6 moment matrix, not only a transported one
    x = rng.normal(size=(20, 6, 8))
    moments = x @ x.swapaxes(1, 2)
    raw = pair_states(moments)
    sym, anti = exchange_blocks(moments)
    for i, m in enumerate((raw, partial_transpose_A(raw))):
        full = _exchange_basis_rotation(m)
        scale = np.abs(full).max()
        assert np.abs(full[:, :6, :6] - sym[:, i]).max() <= 1e-15 * scale
        assert np.abs(full[:, 6:, 6:] - anti[:, i]).max() <= 1e-15 * scale


@pytest.mark.parametrize("case", range(4))
def test_block_spectra_match_the_9x9_spectra(case):
    stack, grid = _exchange_case(case)
    states, min_eig, _, pt_spectra = beams.density_states(stack, grid)
    sym, anti = _normalized_blocks(stack, grid)
    spectra = np.concatenate([hermitian_eigenvalues(sym), hermitian_eigenvalues(anti)], axis=-1)
    rho_9, pt_9 = np.linalg.eigvalsh(states), np.linalg.eigvalsh(partial_transpose_A(states))
    assert np.abs(np.sort(spectra[:, 0], axis=1) - rho_9).max() <= 1e-14
    assert np.abs(np.sort(spectra[:, 1], axis=1) - pt_9).max() <= 1e-14
    assert np.abs(np.sort(pt_spectra, axis=1) - pt_9).max() <= 1e-14
    assert np.abs(min_eig - rho_9[:, 0]).max() <= 1e-14
