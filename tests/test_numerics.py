import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg.cli import paper_example_config, run_pipeline
from ddreg.exosystem import build_internal_model, minimal_polynomial
from ddreg.numerics import (
    BLOCK_STEPS,
    DIVERGENCE_GUARD,
    as_integer,
    matrix_powers,
    numerical_rank,
    real_schur,
    simulate_linear,
    solve_sylvester,
    spectral_radius,
)
from ddreg.plant import build_structural_matrices, observability_index
from ddreg.verify import assemble_closed_loop, build_auxiliary_matrices

from _scenarios import monic_horner, rotation


# ---------------------------------------------------------------------------
# numerical_rank


def rank(M):
    return numerical_rank(np.linalg.svd(M, compute_uv=False))


def test_rank_identity():
    assert rank(np.eye(3)) == 3


def test_rank_zero_matrix():
    assert rank(np.zeros((2, 2))) == 0


def test_rank_proportional_rows():
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_rank_of_no_singular_values_is_zero():
    assert numerical_rank(np.zeros(0)) == 0


def test_rank_rejects_nonfinite():
    # Outside matrices are read by as_matrix before any rank is taken.
    with pytest.raises(ValueError, match="A contains non-finite"):
        observability_index(np.array([[np.nan]]), np.ones((1, 1)))


def test_rank_invariance_under_permutation_and_conditioning():
    # Rank must survive row/column permutation and multiplication by a
    # well-conditioned invertible matrix (condition number < 1e3).
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n, r = 6, 5, 3
        M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        assert rank(M) == r
        perm_r = rng.permutation(m)
        perm_c = rng.permutation(n)
        assert rank(M[perm_r][:, perm_c]) == r
        while True:
            V = rng.standard_normal((m, m))
            if np.linalg.cond(V) < 1e3:
                break
        assert rank(V @ M) == r


# ---------------------------------------------------------------------------
# minimal_polynomial


def test_minimal_polynomial_identity():
    poly = minimal_polynomial(np.eye(2))
    assert len(poly) == 1
    np.testing.assert_allclose(poly, [-1.0], atol=1e-12)


def test_minimal_polynomial_rotation_quarter_turn():
    poly = minimal_polynomial(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert len(poly) == 2
    np.testing.assert_allclose(poly, [1.0, 0.0], atol=1e-12)


def test_minimal_polynomial_repeated_eigenvalue():
    # Brute-force oracle for S = diag(2, 2, 3): enumerate degrees and check
    # annihilation of the candidate built from the distinct eigenvalues.
    S = np.diag([2.0, 2.0, 3.0])
    assert np.linalg.norm(S - 2 * np.eye(3)) > 1e-6  # degree 1 fails
    cand = (S - 2 * np.eye(3)) @ (S - 3 * np.eye(3))
    assert np.linalg.norm(cand) < 1e-12  # degree 2 annihilates
    # (x - 2)(x - 3) = 6 - 5x + x^2
    poly = minimal_polynomial(S)
    assert len(poly) == 2
    np.testing.assert_allclose(poly, [6.0, -5.0], atol=1e-9)
    # The Horner helper the other tests evaluate with: p(1) = 2, p(2) = 0.
    assert abs(monic_horner(poly, 1.0) - 2.0) < 1e-9
    M = monic_horner(poly, np.diag([1.0, 2.0]))
    np.testing.assert_allclose(M, np.diag([2.0, 0.0]), atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_minimal_polynomial_annihilates(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    S = rng.standard_normal((n, n))
    poly = minimal_polynomial(S)
    norm_bound = 1e-8 * max(1.0, np.linalg.norm(S, 2)) ** len(poly)
    assert np.linalg.norm(monic_horner(poly, S)) < max(norm_bound, 1e-10)


def test_minimal_polynomial_jordan_block_defective():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    poly = minimal_polynomial(J)
    assert len(poly) == 2
    # (x - 1)^2 = 1 - 2x + x^2
    np.testing.assert_allclose(poly, [1.0, -2.0], atol=1e-10)


# ---------------------------------------------------------------------------
# as_integer


def test_as_integer_takes_whole_numbers_only():
    assert as_integer(20.0, "T") == 20 and type(as_integer(20.0, "T")) is int
    assert as_integer(np.int64(3)) == 3
    for value in (20.7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"T must be an integer, got {value!r}"):
            as_integer(value, "T")
    assert as_integer(2**60 + 1) == 2**60 + 1  # exact, no float round-trip
    for value in ("x", "20", True):
        with pytest.raises(ValueError, match=f"T: {value!r} is not a number"):
            as_integer(value, "T")


# ---------------------------------------------------------------------------
# spectral_radius


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5)


def test_spectral_radius_rotation():
    assert spectral_radius(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(1.0)


def test_spectral_radius_benchmark_plant():
    # The benchmark state matrix is similar to a size-4 unit-eigenvalue
    # Jordan block, so its spectral radius is exactly 1.
    from ddreg.benchmarks import VTOL_A

    assert spectral_radius(VTOL_A) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# matrix_powers


@pytest.mark.parametrize("n, count", [(1, 0), (3, 1), (4, 40)])
def test_matrix_powers_start_at_identity_and_step_by_f(n, count):
    F = np.random.default_rng(n).standard_normal((n, n))
    powers = matrix_powers(F, count)
    assert powers.shape == (count + 1, n, n)
    np.testing.assert_array_equal(powers[0], np.eye(n))
    for j in range(1, count + 1):
        np.testing.assert_array_equal(powers[j], F @ powers[j - 1])


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


def per_step(F, z0, steps, G=None, u=None):
    """Reference: one matrix-vector product per step, the drive precomputed
    as ``u @ G.T``, and the guard tested after every step (a non-finite
    state counts as past it)."""
    z = np.empty((steps + 1, len(z0)))
    z[0] = z0
    drive = None if G is None else u[:steps] @ G.T
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            z[k + 1] = F @ z[k]
            if drive is not None:
                z[k + 1] += drive[k]
            if not z[k + 1] @ z[k + 1] <= DIVERGENCE_GUARD**2:
                raise RuntimeError(
                    f"state norm {np.linalg.norm(z[k + 1]):.3e} exceeded "
                    f"{DIVERGENCE_GUARD:.0e} at step {k + 1}: divergent simulation"
                )
    return z


@pytest.mark.parametrize("steps", [39, 40, 64, 65])
def test_simulate_linear_guard_step_matches_per_step_loop(steps):
    # 2^40 > 1e12 > 2^39: the guard is first passed at step 40, inside the
    # second block of 32 for 64 steps, in its last state for 40 steps.
    F, z0 = 2.0 * np.eye(1), [1.0]
    if steps < 40:
        np.testing.assert_array_equal(
            simulate_linear(F, z0, steps), per_step(F, z0, steps)
        )
        return
    with pytest.raises(RuntimeError) as blocked:
        simulate_linear(F, z0, steps)
    with pytest.raises(RuntimeError) as plain:
        per_step(F, z0, steps)
    assert "at step 40: divergent" in str(blocked.value)
    assert str(blocked.value) == str(plain.value)


@pytest.mark.parametrize("steps", [38, 39, 64])
def test_simulate_linear_guard_is_on_the_state_norm(steps):
    # From ones(16), F = 2 I has state norm 4 * 2^k, first past 1e12 at step
    # 38, while no entry reaches 1e12 in 39 steps: a guard on the largest
    # entry without the factor sqrt(n) would clear steps 38 and 39.
    F, z0 = 2.0 * np.eye(16), np.ones(16)
    with pytest.raises(RuntimeError) as blocked:
        simulate_linear(F, z0, steps)
    with pytest.raises(RuntimeError) as plain:
        per_step(F, z0, steps)
    assert "at step 38: divergent" in str(blocked.value)
    assert str(blocked.value) == str(plain.value)
    # Beside a decaying run (a seventeenth state at rate 0.5), the growing
    # run of a block is NaN from step 38 on, and the decaying one is its
    # per-step run.
    F = np.diag([2.0] * 16 + [0.5])
    starts = np.zeros((17, 2))
    starts[:16, 0] = starts[16, 1] = 1.0
    with pytest.raises(RuntimeError, match="at step 38: divergent"):
        per_step(F, starts[:, 0], steps)
    z = simulate_linear(F, starts, steps)
    np.testing.assert_array_equal(z[:38, :, 0], per_step(F, starts[:, 0], 37))
    assert np.isnan(z[38:, :, 0]).all()
    np.testing.assert_array_equal(z[:, :, 1], per_step(F, starts[:, 1], steps))


def test_simulate_linear_nonfinite_state_is_divergent():
    # A NaN input sample leaves a NaN state, whose norm compares false
    # against any bound.
    u = np.zeros((10, 1))
    u[3] = np.nan
    with pytest.raises(RuntimeError, match="state norm nan .* at step 4: divergent"):
        simulate_linear(0.5 * np.eye(2), [1.0, 1.0], 10, np.ones((2, 1)), u)
    # 1e300 * 1e9 overflows: inf, or NaN when inf - inf is formed.
    F = np.array([[1e300, -1e300], [0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="state norm (inf|nan) .* at step 1: "):
            simulate_linear(F, [1e9, 1e9], 10)
    # A map that is not finite (a loop map that overflowed) is stepped as it
    # is: every run is past the guard at step 1 (inf, or 0 * inf = NaN).
    F = np.array([[np.inf, 0.0], [0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="state norm (inf|nan) .* at step 1: "):
            simulate_linear(F, [1.0, 1.0], 40)
        assert np.isnan(simulate_linear(F, np.eye(2), 40)[1:]).all()


def test_simulate_linear_overflowing_powers_step_like_per_step_loop():
    # F^2 overflows, but the run from (0, 1) stays on the stable axis.
    F = np.diag([1e200, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = simulate_linear(F, [0.0, 1.0], 100)
    np.testing.assert_array_equal(z, per_step(F, np.array([0.0, 1.0]), 100))
    np.testing.assert_array_equal(z[:, 1], 0.5 ** np.arange(101))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    steps=st.integers(1, 300).filter(lambda s: s % BLOCK_STEPS),
)
def test_simulate_linear_blocks_match_per_step_loop(seed, n, steps):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, n))
    F *= rng.uniform(0.2, 0.99) / spectral_radius(F)
    z0 = rng.standard_normal(n)
    want = per_step(F, z0, steps)
    got = simulate_linear(F, z0, steps)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.fixture(scope="module")
def paper_loop():
    """Closed-loop map of the gain designed on the paper example."""
    config = paper_example_config(0)
    gain = np.array(run_pipeline(config)["synthesis"]["gain"])
    plant, exo = config.plant, config.exo
    im = build_internal_model(exo, p=plant.p)
    struct = build_structural_matrices(plant, config.ell)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    return assemble_closed_loop(aux, gain).full_map


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 400))
def test_simulate_linear_paper_closed_loop_matches_per_step_loop(paper_loop, seed, steps):
    z0 = np.random.default_rng(seed).standard_normal(paper_loop.shape[0])
    want = per_step(paper_loop, z0, steps)
    got = simulate_linear(paper_loop, z0, steps)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    m=st.integers(1, 3),
    steps=st.integers(0, 80),
    radius=st.floats(0.5, 1.2),
)
def test_simulate_linear_driven_is_the_per_step_recursion(seed, n, m, steps, radius):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, n))
    F *= radius / spectral_radius(F)
    G, u = rng.standard_normal((n, m)), rng.standard_normal((steps, m))
    z0 = rng.standard_normal(n)
    np.testing.assert_array_equal(
        simulate_linear(F, z0, steps, G, u), per_step(F, z0, steps, G, u)
    )


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    c=st.integers(1, 4),
    steps=st.integers(0, 80),
    radius=st.floats(0.5, 1.2),
)
def test_simulate_linear_block_is_its_runs_alone(seed, n, c, steps, radius):
    # Column j of an autonomous block's states is the run from column j of
    # z0, to the blocked runs' round-off.  A driven system takes one state.
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, n))
    F *= radius / spectral_radius(F)
    z0 = rng.standard_normal((n, c))
    block = simulate_linear(F, z0, steps)
    assert block.shape == (steps + 1, n, c)
    for j in range(c):
        alone = simulate_linear(F, z0[:, j], steps)
        assert np.abs(block[:, :, j] - alone).max() <= 1e-12 * np.abs(alone).max()
    G, u = rng.standard_normal((n, 2)), rng.standard_normal((steps, 2))
    with pytest.raises(ValueError, match="one initial state"):
        simulate_linear(F, z0, steps, G, u)


@pytest.mark.parametrize("growth, step", [(2.0, 40), (1e200, 1)])
def test_simulate_linear_block_guards_each_run(growth, step):
    # The run from e_1 passes the guard at `step` (2^40 > 1e12, or 1e200 at
    # once, overflowing after): it is NaN from there on, where a single run
    # raises.  The run from e_2 decays beside it, untouched.
    F = np.diag([growth, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = simulate_linear(F, np.eye(2), 64)
        with pytest.raises(RuntimeError, match=f"at step {step}: divergent"):
            simulate_linear(F, [1.0, 0.0], 64)
    np.testing.assert_array_equal(z[:step, 0, 0], growth ** np.arange(step))
    assert np.isnan(z[step:, :, 0]).all()
    np.testing.assert_array_equal(z[:, :, 1], simulate_linear(F, [0.0, 1.0], 64))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), n_w=st.integers(1, 4))
def test_sylvester_on_one_schur_form_is_solve_sylvester(seed, n, n_w):
    # One dgees of a Schur-stable A gives scipy's solve_sylvester(A, -S, q)
    # bit for bit, and eigenvalues that match np.linalg.eigvals.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.1, 0.99) / spectral_radius(A)
    S, q = rng.standard_normal((n_w, n_w)), rng.standard_normal((n, n_w))
    form = real_schur(A)
    np.testing.assert_array_equal(
        solve_sylvester(form, -S, q), scipy.linalg.solve_sylvester(A, -S, q)
    )
    dist = np.abs(form.eigs[:, None] - np.linalg.eigvals(A))
    assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12
