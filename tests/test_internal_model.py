import numpy as np
import pytest

from ddreg.internal_model import build_internal_model
from ddreg.numerics import simulate_linear
from ddreg.plant import ExoMatrix

from _scenarios import monic_horner, random_unit_circle_exo, rotation


def test_vtol_internal_model():
    exo = ExoMatrix([[0.0, 1.0], [-1.0, 0.0]])
    im = build_internal_model(exo, p=1)
    assert im.degree == 2
    np.testing.assert_allclose(im.coeffs, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(im.companion, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(im.input_map, [[0.0], [1.0]], atol=1e-12)


def test_scalar_integrator_model():
    # S = [1] has minimal polynomial x - 1, so the model is a plain integrator.
    im = build_internal_model(ExoMatrix([[1.0]]), p=1)
    assert im.degree == 1
    np.testing.assert_allclose(im.coeffs, [-1.0], atol=1e-12)
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
    d = im.degree
    ref = np.kron(np.eye(d, k=1), np.eye(p))
    ref[(d - 1) * p :] = np.kron(-im.coeffs, np.eye(p))
    np.testing.assert_array_equal(im.companion, ref)


def test_unit_circle_assumption_enforced():
    with pytest.raises(ValueError, match="inside unit circle"):
        ExoMatrix(np.diag([0.9, 1.0]))


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


def test_companion_eigenvalues_are_minimal_polynomial_roots():
    rng = np.random.default_rng(5)
    for n_w in (1, 2, 3, 4):
        exo = random_unit_circle_exo(rng, n_w, conjugate=n_w > 1)
        for p in (1, 2):
            im = build_internal_model(exo, p=p)
            for lam in np.linalg.eigvals(im.companion):
                assert abs(monic_horner(im.coeffs, lam)) < 1e-6


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
    assert im_a.degree == im_b.degree
    np.testing.assert_allclose(im_a.coeffs, im_b.coeffs, atol=1e-6)


def test_snap_coeffs_option():
    S = rotation(np.pi / 2)
    S_perturbed = S + 1e-10 * np.array([[1.0, 0.0], [0.0, -1.0]])
    im = build_internal_model(ExoMatrix(S_perturbed), p=1, snap_coeffs_tol=1e-6)
    np.testing.assert_allclose(im.coeffs, [1.0, 0.0], atol=0)


def test_annihilation_invariant():
    rng = np.random.default_rng(8)
    for n_w in (2, 3, 4):
        exo = random_unit_circle_exo(rng, n_w, conjugate=True)
        im = build_internal_model(exo, p=1)
        assert np.linalg.norm(monic_horner(im.coeffs, exo.S)) < 1e-8
