import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from ddreg.cli import paper_example_config
from ddreg.exo_factorization import companion_regressor
from ddreg.internal_model import companion_matrix
from ddreg.plant import ExoMatrix
from ddreg.synthesis import _svd_split

from _scenarios import random_plant, random_unit_circle_exo, real_jordan, rotation


def lstsq_rel_residual(W0, M):
    """Oracle: best least-squares factor of W0 against the regressor rows."""
    L, *_ = np.linalg.lstsq(M.T, W0.T, rcond=None)
    return np.linalg.norm(W0 - L.T @ M) / max(np.linalg.norm(W0), 1e-300)


def exo_trajectory_stack(S, w0, ell, T):
    """W0 = [w(ell) ... w(T)] for w(k) = S^k w0."""
    w = np.asarray(w0, dtype=float)
    cols = []
    for k in range(T + 1):
        if k >= ell:
            cols.append(w.copy())
        w = S @ w
    return np.column_stack(cols)


def sweep_exo(seed):
    """The exosystem of a random-plant sweep draw: n, m, p and n_w, then the
    plant, then a similarity-hidden unit-circle exosystem, all from one
    generator."""
    rng = np.random.default_rng(seed)
    bounds = [(2, 5), (1, 3), (1, 3), (1, 4)]
    n, m, p, n_w = (int(rng.integers(lo, hi)) for lo, hi in bounds)
    random_plant(rng, n, m, p, n_w)
    return random_unit_circle_exo(rng, n_w, conjugate=True)


# ---------------------------------------------------------------------------
# companion_regressor


def test_jordan_regressor_vtol_rows():
    # On the quarter turn the regressor's rows are the real Jordan rows: the
    # solutions of z(t + 2) = -z(t) from (1, 0) and from (0, 1).
    reg = companion_regressor(ExoMatrix(rotation(np.pi / 2)), ell=4, T=20)
    t = np.arange(4, 21)
    np.testing.assert_allclose(reg.matrix[0], np.cos(np.pi / 2 * t), atol=1e-12)
    np.testing.assert_allclose(reg.matrix[1], np.sin(np.pi / 2 * t), atol=1e-12)


def test_jordan_regressor_constant_row():
    reg = companion_regressor(ExoMatrix([[1.0]]), ell=2, T=7)
    np.testing.assert_array_equal(reg.matrix, np.ones((1, 6)))


def test_jordan_regressor_size_two_block():
    # The ramp, a size-two Jordan block at 1: z(t + 2) = 2 z(t + 1) - z(t),
    # whose solutions from (1, 0) and (0, 1) are 1 - t and t.
    S = np.array([[1.0, 1.0], [0.0, 1.0]])
    ell, T = 3, 9
    reg = companion_regressor(ExoMatrix(S), ell=ell, T=T)
    t = np.arange(ell, T + 1)
    np.testing.assert_allclose(reg.matrix[0], 1.0 - t, atol=1e-12)
    np.testing.assert_allclose(reg.matrix[1], t.astype(float), atol=1e-12)


def test_krylov_scalar():
    reg = companion_regressor(ExoMatrix([[-1.0]]), ell=1, T=4)
    np.testing.assert_array_equal(reg.matrix, [[-1.0, 1.0, -1.0, 1.0]])


def test_krylov_rotation_cycles():
    # The Krylov columns of the quarter turn's companion repeat every four.
    reg = companion_regressor(ExoMatrix(rotation(np.pi / 2)), ell=4, T=20)
    np.testing.assert_allclose(reg.matrix[:, 4:], reg.matrix[:, :-4], atol=1e-12)
    np.testing.assert_allclose(
        reg.matrix[:, :4], [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]], atol=1e-12
    )


def test_krylov_too_short():
    # One column against a degree-2 polynomial: the regressor is still
    # built, and keeps both rows (rank 1, decided by the design's SVD).
    reg = companion_regressor(ExoMatrix(rotation(0.5)), ell=3, T=3)
    assert reg.matrix.shape == (2, 1)
    assert reg.selection == [0, 1]


@pytest.mark.parametrize(
    "exo",
    [
        pytest.param(paper_example_config(0).exo, id="paper"),
        pytest.param(ExoMatrix([[1.0, 1.0], [0.0, 1.0]]), id="ramp"),
        pytest.param(
            random_unit_circle_exo(np.random.default_rng(1), 4, conjugate=True),
            id="random-four",
        ),
    ],
)
def test_regressor_is_the_per_step_recursion(exo):
    # Column t - ell is (F^T)^t e_1, stepped one matrix-vector product at a
    # time: the powers' first columns carry exactly that round-off.
    F = companion_matrix(exo.coeffs, 1)
    ell, T = 4, 300
    v, cols = np.eye(len(F))[0], []
    for t in range(T + 1):
        if t >= ell:
            cols.append(v)
        v = F.T @ v
    reg = companion_regressor(exo, ell=ell, T=T)
    np.testing.assert_array_equal(reg.matrix, np.column_stack(cols))


@pytest.mark.parametrize(
    "S, ell, T",
    [
        pytest.param(np.array([[1.0]]), 2, 14, id="constant"),
        pytest.param(np.array([[1.0, 1.0], [0.0, 1.0]]), 2, 14, id="ramp"),
        pytest.param(rotation(np.pi / 2), 2, 14, id="quarter-turn"),
        pytest.param(block_diag(1.0, -1.0, rotation(0.7)), 2, 14, id="mixed"),
        pytest.param(
            random_unit_circle_exo(np.random.default_rng(1), 3, conjugate=True).S,
            2,
            12,
            id="hidden-three",
        ),
        # The sweep's seed 4 draws V (-I) V^-1: minimal polynomial z + 1.
        pytest.param(sweep_exo(4).S, 2, 14, id="hidden-minus-identity"),
        # Two columns against a degree-4 polynomial.
        pytest.param(block_diag(1.0, -1.0, rotation(0.7)), 3, 4, id="short-record"),
        # Entries up to 3e11 over a long record.
        pytest.param(
            real_jordan([(1.05, 2)], [(1.05, 0.4, 2)]), 4, 300, id="modulus-1.05"
        ),
    ],
)
def test_regressor_factorization_residual(S, ell, T):
    exo = ExoMatrix(S)
    reg = companion_regressor(exo, ell=ell, T=T)
    assert reg.matrix.shape == (len(exo.coeffs), T - ell + 1)
    w0 = np.random.default_rng(0).standard_normal(len(S))
    W0 = exo_trajectory_stack(S, w0, ell, T)
    assert lstsq_rel_residual(W0, reg.matrix) < 1e-8


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_w=st.integers(1, 4),
    conjugate=st.booleans(),
    ramp=st.booleans(),
    ell=st.integers(1, 6),
    extra=st.integers(0, 12),
)
@example(seed=0, n_w=4, conjugate=True, ramp=False, ell=6, extra=0)
def test_regressor_keeps_every_row_of_a_long_enough_record(
    seed, n_w, conjugate, ramp, ell, extra
):
    # With N = T - ell + 1 >= d columns the d rows are independent: the
    # first d columns are (F^T)^ell, invertible since no root of S's minimal
    # polynomial is 0.  So the design's SVD finds rank d at its tolerance:
    # the regressor of a long enough record has no dependent row.
    if ramp:
        exo = ExoMatrix([[1.0, 1.0], [0.0, 1.0]])
    else:
        exo = random_unit_circle_exo(np.random.default_rng(seed), n_w, conjugate)
    d = len(exo.coeffs)
    reg = companion_regressor(exo, ell=ell, T=ell + d - 1 + extra)
    power = np.linalg.matrix_power(companion_matrix(exo.coeffs, 1).T, ell)
    np.testing.assert_allclose(reg.matrix[:, :d], power, rtol=1e-12, atol=0)
    assert _svd_split(reg.matrix)[2].shape[1] == d

