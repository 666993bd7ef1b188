import math

import numpy as np
import pytest

from ddreg.exo_factorization import (
    JordanSpec,
    analyze_exosystem,
    build_M_jordan,
    build_M_krylov,
    reduce_to_full_row_rank,
)
from ddreg.plant import ExoMatrix

from _scenarios import random_unit_circle_exo, rotation


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


# ---------------------------------------------------------------------------
# analyze_exosystem


def test_analyze_rotation_auto():
    spec = analyze_exosystem(ExoMatrix(rotation(np.pi / 2)))
    assert spec.real_blocks == []
    assert len(spec.complex_blocks) == 1
    rho, theta, k = spec.complex_blocks[0]
    assert rho == pytest.approx(1.0, abs=1e-9)
    assert theta == pytest.approx(np.pi / 2, abs=1e-9)
    assert k == 1


def test_analyze_identity_auto():
    spec = analyze_exosystem(ExoMatrix(np.eye(2)))
    assert spec.complex_blocks == []
    assert spec.real_blocks == [(1.0, 1), (1.0, 1)]


def test_analyze_defective_requires_declaration():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="defective exosystem"):
        analyze_exosystem(ExoMatrix(J))


def test_analyze_declared_jordan_block_accepted():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    declared = JordanSpec(real_blocks=[(1.0, 2)])
    spec = analyze_exosystem(ExoMatrix(J), declared=declared)
    assert spec.real_blocks == [(1.0, 2)]


def test_analyze_declared_wrong_spectrum_rejected():
    declared = JordanSpec(real_blocks=[(1.0, 1), (-1.0, 1)])
    with pytest.raises(ValueError, match="inconsistent with exosystem spectrum"):
        analyze_exosystem(ExoMatrix(np.eye(2)), declared=declared)


def test_analyze_declared_wrong_block_size_rejected():
    # Identity is semisimple: declaring a size-2 block contradicts the
    # minimal-polynomial degree.
    declared = JordanSpec(real_blocks=[(1.0, 2)])
    with pytest.raises(ValueError, match="minimal-polynomial degree"):
        analyze_exosystem(ExoMatrix(np.eye(2)), declared=declared)


def test_analyze_mixed_spectrum_auto():
    S = np.zeros((4, 4))
    S[0, 0] = 1.0
    S[1, 1] = -1.0
    S[2:, 2:] = rotation(0.8)
    spec = analyze_exosystem(ExoMatrix(S))
    assert spec.real_blocks == [(-1.0, 1), (1.0, 1)]
    assert len(spec.complex_blocks) == 1
    assert spec.complex_blocks[0][1] == pytest.approx(0.8, abs=1e-8)


# ---------------------------------------------------------------------------
# build_M_jordan


def test_jordan_regressor_vtol_rows():
    spec = JordanSpec(complex_blocks=[(1.0, np.pi / 2, 1)])
    reg = build_M_jordan(spec, ell=4, T=20)
    t = np.arange(4, 21)
    np.testing.assert_allclose(reg.matrix[0], np.cos(np.pi / 2 * t), atol=1e-12)
    np.testing.assert_allclose(reg.matrix[1], np.sin(np.pi / 2 * t), atol=1e-12)


def test_jordan_regressor_constant_row():
    spec = JordanSpec(real_blocks=[(1.0, 1)])
    reg = build_M_jordan(spec, ell=2, T=7)
    np.testing.assert_array_equal(reg.matrix, np.ones((1, 6)))


def test_jordan_regressor_size_two_block():
    # Block (1, 2) contributes rows [t; 1]; cross-checked against powers of
    # the 2x2 Jordan block by repeated multiplication (last column of J^t).
    spec = JordanSpec(real_blocks=[(1.0, 2)])
    ell, T = 3, 9
    reg = build_M_jordan(spec, ell=ell, T=T)
    t = np.arange(ell, T + 1)
    np.testing.assert_allclose(reg.matrix[0], t.astype(float), atol=1e-12)
    np.testing.assert_allclose(reg.matrix[1], np.ones(T - ell + 1), atol=1e-12)

    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    Jt = np.linalg.matrix_power(J, ell)
    for i, _ in enumerate(t):
        np.testing.assert_allclose(reg.matrix[:, i], Jt[:, -1], atol=1e-12)
        Jt = Jt @ J


def test_jordan_regressor_entry_bound():
    # Unit-circle spectra give polynomially bounded entries.
    spec = JordanSpec(
        real_blocks=[(1.0, 2)], complex_blocks=[(1.0, 0.9, 3)]
    )
    T = 25
    reg = build_M_jordan(spec, ell=2, T=T)
    bound = max(math.comb(T, T - 2 + 1), math.comb(T, T - 3 + 1))
    assert np.max(np.abs(reg.matrix)) <= bound + 1e-9


def _closed_form_jordan(spec, ell, T, weights=False):
    """Reference regressor entry by entry: row j of a real block of size k
    at time t is C(t, k - j) lam^e with e = t - k + j (zero for e < 0); a
    complex block's pair j is C(t, k - j) rho^e (cos theta e, sin theta e).
    With ``weights``, each entry's size scale C(t, k - j) |lam|^e instead."""
    cols = []
    for t in range(ell, T + 1):
        col = []
        for lam, k in spec.real_blocks:
            for j in range(1, k + 1):
                e = t - k + j
                base = abs(lam) if weights else lam
                col.append(math.comb(t, e) * base**e if e >= 0 else 0.0)
        for rho, theta, k in spec.complex_blocks:
            for j in range(1, k + 1):
                e = t - k + j
                scale = math.comb(t, e) * rho**e if e >= 0 else 0.0
                trig = (1.0, 1.0) if weights else (np.cos(theta * e), np.sin(theta * e))
                col += [scale * trig[0], scale * trig[1]]
        cols.append(col)
    return np.array(cols).T


@pytest.mark.parametrize(
    "spec, ell, T",
    [
        (JordanSpec(real_blocks=[(1.0, 1), (-1.0, 1)]), 2, 30),
        (JordanSpec(complex_blocks=[(1.0, 0.7, 1), (1.0, 2.3, 1)]), 3, 30),
        (JordanSpec([(1.0, 3), (-1.0, 2)], [(1.0, 0.9, 3)]), 1, 40),
        (JordanSpec([(1.05, 2)], [(1.05, 0.4, 2)]), 4, 300),
    ],
)
def test_jordan_regressor_matches_closed_form(spec, ell, T):
    # Real, complex and defective blocks, and a modulus-1.05 block over a
    # long record (weights near 6.5e8): the Krylov sequence J^t e agrees
    # with the binomial and cosine/sine formulas to round-off in the weight
    # of each entry (2.6e-14 relative at most on these cases).
    M = build_M_jordan(spec, ell=ell, T=T).matrix
    ref = _closed_form_jordan(spec, ell, T)
    assert M.shape == ref.shape
    # Entries with zero weight (t below the block's reach) are exactly zero.
    weights = _closed_form_jordan(spec, ell, T, weights=True)
    assert np.all(np.abs(M - ref) <= 1e-12 * weights)


def test_jordan_factorization_residual_cases():
    rng = np.random.default_rng(0)
    ell, T = 2, 14
    cases = [
        JordanSpec(real_blocks=[(1.0, 1)]),
        JordanSpec(real_blocks=[(1.0, 2)]),
        JordanSpec(complex_blocks=[(1.0, np.pi / 2, 1)]),
        JordanSpec(real_blocks=[(1.0, 1), (-1.0, 1)], complex_blocks=[(1.0, 0.7, 1)]),
    ]
    builders = [
        np.array([[1.0]]),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        rotation(np.pi / 2),
        None,
    ]
    for spec, S in zip(cases, builders):
        if S is None:
            S = np.zeros((4, 4))
            S[0, 0], S[1, 1] = 1.0, -1.0
            S[2:, 2:] = rotation(0.7)
        w0 = rng.standard_normal(S.shape[0])
        W0 = exo_trajectory_stack(S, w0, ell, T)
        reg = build_M_jordan(spec, ell=ell, T=T)
        assert lstsq_rel_residual(W0, reg.matrix) < 1e-8


# ---------------------------------------------------------------------------
# build_M_krylov


def test_krylov_scalar():
    reg = build_M_krylov(ExoMatrix([[1.0]]), [1.0], ell=1, T=4)
    np.testing.assert_array_equal(reg.matrix, np.ones((1, 4)))


def test_krylov_rotation_cycles():
    reg = build_M_krylov(ExoMatrix(rotation(np.pi / 2)), [1.0, 0.0], ell=4, T=20)
    # Columns are powers S^j applied to (1, 0); verify by direct multiplication.
    S = rotation(np.pi / 2)
    v = np.array([1.0, 0.0])
    for j in range(17):
        np.testing.assert_allclose(reg.matrix[:, j], v, atol=1e-12)
        v = S @ v
    np.testing.assert_allclose(reg.matrix[0, :4], [1.0, 0.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(reg.matrix[1, :4], [0.0, -1.0, 0.0, 1.0], atol=1e-12)


def test_krylov_noncyclic_rejected():
    with pytest.raises(ValueError, match="not cyclic"):
        build_M_krylov(ExoMatrix(np.eye(2)), [1.0, 1.0], ell=1, T=8)


def test_krylov_too_short():
    with pytest.raises(ValueError, match="too short for Krylov"):
        build_M_krylov(ExoMatrix(rotation(0.5)), [1.0, 0.0], ell=3, T=3)


def test_krylov_factorization_residual():
    rng = np.random.default_rng(1)
    exo = random_unit_circle_exo(rng, 3, conjugate=True)
    w_star = rng.standard_normal(3)
    reg = build_M_krylov(exo, w_star, ell=2, T=12)
    w0 = rng.standard_normal(3)
    W0 = exo_trajectory_stack(exo.S, w0, 2, 12)
    assert lstsq_rel_residual(W0, reg.matrix) < 1e-8


# ---------------------------------------------------------------------------
# reduce_to_full_row_rank


def test_reduce_keeps_full_rank_matrix():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 8))
    Mhat, sel = reduce_to_full_row_rank(M)
    assert sel == [0, 1, 2]
    np.testing.assert_array_equal(Mhat, M)


def test_reduce_drops_duplicate_row():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 6))
    stacked = np.vstack([M, M[1]])
    Mhat, sel = reduce_to_full_row_rank(stacked)
    assert sel == [0, 1]
    np.testing.assert_array_equal(Mhat, M)


def test_reduce_jordan_block_regressor_with_copy():
    spec = JordanSpec(real_blocks=[(1.0, 2)])
    reg = build_M_jordan(spec, ell=1, T=4)
    M = np.vstack([reg.matrix, reg.matrix[1]])
    Mhat, sel = reduce_to_full_row_rank(M)
    assert sel == [0, 1]
    np.testing.assert_array_equal(Mhat, reg.matrix)


def test_reduce_drops_zero_rows():
    M = np.vstack([np.zeros(4), np.ones(4), np.zeros(4)])
    Mhat, sel = reduce_to_full_row_rank(M)
    assert sel == [1]


def test_reduce_dropped_rows_stay_in_row_space():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((3, 10))
    mix = rng.standard_normal((4, 3)) @ base
    M = np.vstack([base, mix])
    Mhat, sel = reduce_to_full_row_rank(M, tol=1e-8)
    assert len(sel) == 3
    pinv = np.linalg.pinv(Mhat)
    for i in range(M.shape[0]):
        if i in sel:
            continue
        proj = M[i] @ pinv @ Mhat
        assert np.linalg.norm(M[i] - proj) < 1e-8 * max(1.0, np.linalg.norm(M[i]))


def test_regressor_reduced_wrapper():
    spec = JordanSpec(complex_blocks=[(1.0, np.pi / 2, 1)])
    reg = build_M_jordan(spec, ell=4, T=20).reduced()
    assert reg.selection == [0, 1]
    np.testing.assert_array_equal(reg.mhat, reg.matrix)
    with pytest.raises(ValueError, match="not been reduced"):
        build_M_jordan(spec, ell=4, T=20).mhat


def test_reduce_zero_matrix_empty_selection():
    Mhat, sel = reduce_to_full_row_rank(np.zeros((3, 5)))
    assert sel == []
    assert Mhat.shape == (0, 5)
