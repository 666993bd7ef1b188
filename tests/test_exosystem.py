import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import ddreg
from ddreg.cli import paper_example_config
from ddreg.exosystem import (
    ExoMatrix,
    build_internal_model,
    companion_matrix,
    companion_regressor,
    minimal_polynomial,
)
from ddreg.numerics import simulate_linear
from ddreg.synthesis import _svd_split

from _scenarios import (
    exo_trajectory_stack,
    lstsq_rel_residual,
    monic_horner,
    random_unit_circle_exo,
    real_jordan,
    rotation,
    sweep_config,
)


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


def test_minimal_polynomial_invariant_under_similarity():
    rng = np.random.default_rng(6)
    exo = random_unit_circle_exo(rng, 4)
    while True:
        V = rng.standard_normal((4, 4))
        if np.linalg.cond(V) < 100:
            break
    exo_sim = ExoMatrix(V @ exo.S @ np.linalg.inv(V))
    im_a = build_internal_model(exo, p=1)
    im_b = build_internal_model(exo_sim, p=1)
    assert im_a.dim == im_b.dim
    np.testing.assert_allclose(im_a.companion, im_b.companion, atol=1e-6)


def test_annihilation_invariant():
    rng = np.random.default_rng(8)
    for n_w in (2, 3, 4):
        exo = random_unit_circle_exo(rng, n_w, conjugate=True)
        assert np.linalg.norm(monic_horner(exo.coeffs, exo.S)) < 1e-8


# ---------------------------------------------------------------------------
# ExoMatrix


def test_exo_matrix_rejects_contracting_eigenvalue():
    with pytest.raises(ValueError, match="inside unit circle"):
        ExoMatrix([[0.5]])


def test_exo_matrix_accepts_a_large_jordan_block_on_the_unit_circle():
    # A ramp beside a size-3 rotation block: np.linalg.eigvals puts an
    # eigenvalue at modulus 1 - 5.5e-6, but each cluster's geometric mean
    # modulus is 1 to round-off, also behind a similarity.
    J = real_jordan([(1.0, 2)], [(1.0, 0.9, 3)])
    assert np.abs(ExoMatrix(J).eigs).min() < 1.0 - 1e-6
    V = np.random.default_rng(0).standard_normal((8, 8))
    ExoMatrix(V @ J @ np.linalg.inv(V))


@pytest.mark.parametrize(
    "S",
    [
        pytest.param(block_diag(rotation(0.7), [[1.0 - 1e-6]]), id="alone"),
        pytest.param(
            block_diag(real_jordan([(1.0, 2)], [(1.0, 0.9, 3)]), [[1.0 - 1e-6]]),
            id="beside-the-ramp",
        ),
        pytest.param(np.diag([1.0 - 1e-6, 1.0 + 1e-5, 1.0, 1.0]), id="beside-one-outside"),
        pytest.param(
            block_diag(0.997 * rotation(0.4), 1.005 * rotation(0.4), rotation(1.0), rotation(2.0)),
            id="rotation-beside-a-larger-one",
        ),
        pytest.param(real_jordan([(1.0 - 1e-6, 3)]), id="jordan-block"),
    ],
)
def test_exo_matrix_rejects_an_eigenvalue_just_inside(S):
    # Well-conditioned eigenvalues inside the circle form clusters of their
    # own, so no eigenvalue outside lifts their mean; a Jordan block inside
    # has its true modulus as its cluster's mean.  Also behind a similarity.
    V = np.random.default_rng(0).standard_normal(S.shape)
    for M in (S, V @ S @ np.linalg.inv(V)):
        with pytest.raises(ValueError, match="inside unit circle"):
            ExoMatrix(M)


def test_exo_matrix_keeps_its_eigenvalues():
    # The validation's eigenvalues are kept, read-only, for every reader of
    # S's spectrum.
    exo = ExoMatrix([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(exo.eigs, np.linalg.eigvals(exo.S))
    np.testing.assert_allclose(np.sort_complex(exo.eigs), [-1j, 1j], atol=1e-15)
    assert not exo.eigs.flags.writeable


def test_unit_circle_assumption_enforced():
    with pytest.raises(ValueError, match="inside unit circle"):
        ExoMatrix(np.diag([0.9, 1.0]))


# ---------------------------------------------------------------------------
# build_internal_model


def test_vtol_internal_model():
    exo = ExoMatrix([[0.0, 1.0], [-1.0, 0.0]])
    im = build_internal_model(exo, p=1)
    assert im.dim == 2
    np.testing.assert_allclose(exo.coeffs, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(im.companion, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(im.input_map, [[0.0], [1.0]], atol=1e-12)


def test_scalar_integrator_model():
    # S = [1] has minimal polynomial x - 1, so the model is a plain integrator.
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    assert im.dim == 1
    np.testing.assert_allclose(exo.coeffs, [-1.0], atol=1e-12)
    np.testing.assert_allclose(im.companion, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(im.input_map, [[1.0]], atol=1e-12)


def test_block_pattern_two_outputs():
    exo = ExoMatrix(rotation(np.pi / 2))
    im = build_internal_model(exo, p=2)
    assert im.companion.shape == (4, 4)
    np.testing.assert_allclose(im.companion[:2, 2:], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(im.companion[:2, :2], np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(im.input_map[:2], np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(im.input_map[2:], np.eye(2), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_companion_matches_kronecker_form(seed, p):
    exo = random_unit_circle_exo(np.random.default_rng(seed), 2 + seed, conjugate=True)
    im = build_internal_model(exo, p=p)
    d = len(exo.coeffs)
    ref = np.kron(np.eye(d, k=1), np.eye(p))
    ref[(d - 1) * p :] = np.kron(-exo.coeffs, np.eye(p))
    np.testing.assert_array_equal(im.companion, ref)


def test_companion_eigenvalues_are_minimal_polynomial_roots():
    rng = np.random.default_rng(5)
    for n_w in (1, 2, 3, 4):
        exo = random_unit_circle_exo(rng, n_w, conjugate=n_w > 1)
        for p in (1, 2):
            im = build_internal_model(exo, p=p)
            for lam in np.linalg.eigvals(im.companion):
                assert abs(monic_horner(exo.coeffs, lam)) < 1e-6


def simulate_internal_model(im, eta0, y):
    """The model driven by the outputs ``y``: eta(0..len(y))."""
    return simulate_linear(im.companion, eta0, len(y), im.input_map, y)


def test_simulate_zero_stays_zero():
    im = build_internal_model(ExoMatrix(rotation(0.3)), p=1)
    eta = simulate_internal_model(im, np.zeros(2), np.zeros((10, 1)))
    assert np.all(eta == 0.0)


def test_simulate_one_step_definition():
    im = build_internal_model(ExoMatrix(rotation(0.3)), p=1)
    eta0 = np.array([0.5, -0.25])
    y = np.array([[2.0]])
    eta = simulate_internal_model(im, eta0, y)
    np.testing.assert_allclose(
        eta[1], im.companion @ eta0 + im.input_map @ y[0], atol=1e-14
    )


def test_simulate_matches_independent_recursion():
    # Plain loop oracle with the published initial state of the benchmark.
    im = build_internal_model(ExoMatrix([[0.0, 1.0], [-1.0, 0.0]]), p=1)
    rng = np.random.default_rng(11)
    y = rng.standard_normal((21, 1))
    eta = simulate_internal_model(im, [-0.4336, 0.3426], y)
    state = np.array([-0.4336, 0.3426])
    for k in range(21):
        np.testing.assert_allclose(eta[k], state, atol=1e-12)
        state = im.companion @ state + im.input_map @ y[k]
    np.testing.assert_allclose(eta[21], state, atol=1e-12)


# ---------------------------------------------------------------------------
# companion_regressor


def test_regressor_quarter_turn_rows():
    # On the quarter turn the regressor's rows are the real Jordan rows: the
    # solutions of z(t + 2) = -z(t) from (1, 0) and from (0, 1).
    reg = companion_regressor(ExoMatrix(rotation(np.pi / 2)), ell=4, T=20)
    t = np.arange(4, 21)
    np.testing.assert_allclose(reg.matrix[0], np.cos(np.pi / 2 * t), atol=1e-12)
    np.testing.assert_allclose(reg.matrix[1], np.sin(np.pi / 2 * t), atol=1e-12)


def test_regressor_constant_row():
    reg = companion_regressor(ExoMatrix([[1.0]]), ell=2, T=7)
    np.testing.assert_array_equal(reg.matrix, np.ones((1, 6)))


def test_regressor_ramp_rows():
    # The ramp, a size-two Jordan block at 1: z(t + 2) = 2 z(t + 1) - z(t),
    # whose solutions from (1, 0) and (0, 1) are 1 - t and t.
    S = np.array([[1.0, 1.0], [0.0, 1.0]])
    ell, T = 3, 9
    reg = companion_regressor(ExoMatrix(S), ell=ell, T=T)
    t = np.arange(ell, T + 1)
    np.testing.assert_allclose(reg.matrix[0], 1.0 - t, atol=1e-12)
    np.testing.assert_allclose(reg.matrix[1], t.astype(float), atol=1e-12)


def test_regressor_scalar():
    reg = companion_regressor(ExoMatrix([[-1.0]]), ell=1, T=4)
    np.testing.assert_array_equal(reg.matrix, [[-1.0, 1.0, -1.0, 1.0]])


def test_regressor_quarter_turn_cycles():
    # The Krylov columns of the quarter turn's companion repeat every four.
    reg = companion_regressor(ExoMatrix(rotation(np.pi / 2)), ell=4, T=20)
    np.testing.assert_allclose(reg.matrix[:, 4:], reg.matrix[:, :-4], atol=1e-12)
    np.testing.assert_allclose(
        reg.matrix[:, :4], [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]], atol=1e-12
    )


def test_regressor_too_short():
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
        # The sweep's seed 4 behind a similarity is V (-I) V^-1: minimal
        # polynomial z + 1.
        pytest.param(
            sweep_config(4, conjugate=True).exo.S, 2, 14, id="hidden-minus-identity"
        ),
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


# ---------------------------------------------------------------------------
# imports


def test_exosystem_imports_no_hidden_module():
    # The designer's side (S and what derives from it) loads nothing of the
    # plant, the experiment or the oracle: numerics alone.
    code = (
        "import sys, ddreg.exosystem; "
        "print(sorted(m for m in sys.modules if m.startswith('ddreg')))"
    )
    src = str(Path(ddreg.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "['ddreg', 'ddreg.exosystem', 'ddreg.numerics']"
