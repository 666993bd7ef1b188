import numpy as np
import pytest

from ddreg.numerics import (
    PolynomialCoeffs,
    binomial_ext,
    minimal_polynomial,
    rank_with_tol,
    simulate_linear,
    solve_sylvester,
    spectral_radius,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


# ---------------------------------------------------------------------------
# rank_with_tol


def test_rank_identity():
    assert rank_with_tol(np.eye(3), 1e-8) == 3


def test_rank_zero_matrix():
    assert rank_with_tol(np.zeros((2, 2))) == 0


def test_rank_proportional_rows():
    assert rank_with_tol(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_rank_empty_matrix_rejected():
    with pytest.raises(ValueError, match="empty input"):
        rank_with_tol(np.zeros((0, 3)))


def test_rank_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        rank_with_tol(np.array([[1.0, np.nan]]))


def test_rank_invariance_under_permutation_and_conditioning():
    # Rank must survive row/column permutation and multiplication by a
    # well-conditioned invertible matrix (condition number < 1e3).
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n, r = 6, 5, 3
        M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        assert rank_with_tol(M) == r
        perm_r = rng.permutation(m)
        perm_c = rng.permutation(n)
        assert rank_with_tol(M[perm_r][:, perm_c]) == r
        while True:
            V = rng.standard_normal((m, m))
            if np.linalg.cond(V) < 1e3:
                break
        assert rank_with_tol(V @ M) == r


# ---------------------------------------------------------------------------
# minimal_polynomial


def test_minimal_polynomial_identity():
    poly = minimal_polynomial(np.eye(2))
    assert poly.degree == 1
    np.testing.assert_allclose(poly.coeffs, [-1.0], atol=1e-12)


def test_minimal_polynomial_rotation_quarter_turn():
    poly = minimal_polynomial(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert poly.degree == 2
    np.testing.assert_allclose(poly.coeffs, [1.0, 0.0], atol=1e-12)


def test_minimal_polynomial_repeated_eigenvalue():
    # Brute-force oracle for S = diag(2, 2, 3): enumerate degrees and check
    # annihilation of the candidate built from the distinct eigenvalues.
    S = np.diag([2.0, 2.0, 3.0])
    assert np.linalg.norm(S - 2 * np.eye(3)) > 1e-6  # degree 1 fails
    cand = (S - 2 * np.eye(3)) @ (S - 3 * np.eye(3))
    assert np.linalg.norm(cand) < 1e-12  # degree 2 annihilates
    # (x - 2)(x - 3) = 6 - 5x + x^2
    poly = minimal_polynomial(S)
    assert poly.degree == 2
    np.testing.assert_allclose(poly.coeffs, [6.0, -5.0], atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_minimal_polynomial_annihilates(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    S = rng.standard_normal((n, n))
    poly = minimal_polynomial(S, tol=1e-8)
    norm_bound = 1e-8 * max(1.0, np.linalg.norm(S, 2)) ** poly.degree
    assert np.linalg.norm(poly.eval_matrix(S)) < max(norm_bound, 1e-10)


def test_minimal_polynomial_jordan_block_defective():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    poly = minimal_polynomial(J)
    assert poly.degree == 2
    # (x - 1)^2 = 1 - 2x + x^2
    np.testing.assert_allclose(poly.coeffs, [1.0, -2.0], atol=1e-10)


def test_polynomial_horner_scalar_matches_matrix():
    poly = PolynomialCoeffs(degree=2, coeffs=np.array([6.0, -5.0]))
    assert abs(poly.eval_scalar(2.0)) < 1e-14
    assert abs(poly.eval_scalar(1.0) - 2.0) < 1e-14


# ---------------------------------------------------------------------------
# spectral_radius


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5)


def test_spectral_radius_rotation():
    assert spectral_radius(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# solve_sylvester


def test_sylvester_scalar():
    P = solve_sylvester(np.array([[0.5]]), np.array([[2.0]]), np.array([[1.5]]))
    np.testing.assert_allclose(P, [[-1.0]], atol=1e-12)


def test_sylvester_zero_rhs():
    A = np.diag([0.5, 0.2])
    S = rotation(0.7)
    P = solve_sylvester(A, S, np.zeros((2, 2)))
    np.testing.assert_allclose(P, np.zeros((2, 2)), atol=1e-12)


def test_sylvester_against_vectorized_solve():
    # Independent oracle: solve the Kronecker-vectorized linear system.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    A *= 0.8 / spectral_radius(A)
    S = rotation(np.pi / 3)
    Q = rng.standard_normal((3, 2))
    P = solve_sylvester(A, S, Q)
    K = np.kron(np.eye(2), A) - np.kron(S.T, np.eye(3))
    P_vec = np.linalg.solve(K, Q.ravel(order="F")).reshape((3, 2), order="F")
    np.testing.assert_allclose(P, P_vec, atol=1e-9)
    assert np.linalg.norm(A @ P - P @ S - Q) < 1e-9


def test_sylvester_resonant_spectra_rejected():
    A = np.diag([1.0, 0.3])
    S = np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match="resonant spectra"):
        solve_sylvester(A, S, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# binomial_ext


def test_binomial_basic():
    assert binomial_ext(3, 1) == 3
    assert binomial_ext(0, 0) == 1


def test_binomial_negative_bottom_is_zero():
    assert binomial_ext(2, -1) == 0


def test_binomial_domain_errors():
    with pytest.raises(ValueError, match="out of convention domain"):
        binomial_ext(1, 2)
    with pytest.raises(ValueError, match="out of convention domain"):
        binomial_ext(-1, -2)


def test_binomial_pascal_identity():
    # Both right-hand terms stay inside the convention domain for q <= p - 1,
    # which is exactly the range the Jordan-power induction uses.
    for p in range(1, 12):
        for q in range(-3, p):
            assert binomial_ext(p, q) == binomial_ext(p - 1, q - 1) + binomial_ext(
                p - 1, q
            )


def test_spectral_radius_benchmark_plant():
    # The benchmark state matrix is similar to a size-4 unit-eigenvalue
    # Jordan block, so its spectral radius is exactly 1.
    from ddreg.benchmarks import VTOL_A

    assert spectral_radius(VTOL_A) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# simulate_linear


def test_simulate_linear_matches_plain_loop():
    rng = np.random.default_rng(3)
    F = 0.5 * rng.standard_normal((3, 3))
    G = rng.standard_normal((3, 2))
    u = rng.standard_normal((12, 2))
    z0 = rng.standard_normal(3)
    z = simulate_linear(F, z0, 10, G, u)
    assert z.shape == (11, 3)
    state = z0
    for k in range(11):
        np.testing.assert_allclose(z[k], state, rtol=0, atol=1e-14)
        state = F @ state + G @ u[k]
    free = simulate_linear(F, z0, 4)
    np.testing.assert_array_equal(free, simulate_linear(F, z0, 4))
    np.testing.assert_allclose(free[4], np.linalg.matrix_power(F, 4) @ z0)


def test_simulate_linear_needs_enough_inputs():
    with pytest.raises(ValueError, match="at least 5 input samples"):
        simulate_linear(np.eye(2), np.ones(2), 5, np.ones((2, 1)), np.ones((4, 1)))


def test_simulate_linear_divergence_guard():
    # The guard watches the whole state, not one block of it.
    F = np.diag([0.5, 1e3])
    with pytest.raises(RuntimeError, match="divergent"):
        simulate_linear(F, [1.0, 1.0], 10)
