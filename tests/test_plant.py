import numpy as np
import pytest

from ddreg.plant import PlantTruth, build_structural_matrices, observability_index

from _scenarios import random_plant, scalar_plant, vtol


# ---------------------------------------------------------------------------
# observability_index


def test_observability_index_scalar():
    assert observability_index(np.zeros((1, 1)), np.ones((1, 1))) == 1


def test_observability_index_vtol_is_four():
    plant, _ = vtol()
    assert observability_index(plant.A, plant.C) == 4


def test_observability_index_two_outputs():
    # Oracle by hand: C = first two canonical rows, A = upper shift on R^3.
    # rank [C] = 2 < 3; [C; CA] contains rows e1, e2, e2, e3 -> rank 3.
    A = np.diag([1.0, 1.0], k=1)
    C = np.eye(3)[:2]
    assert np.linalg.matrix_rank(C) == 2
    assert np.linalg.matrix_rank(np.vstack([C, C @ A])) == 3
    assert observability_index(A, C) == 2


def test_observability_index_unobservable():
    A = np.diag([0.5, 0.7])
    C = np.array([[1.0, 0.0]])  # second state never reaches the output
    with pytest.raises(ValueError, match="unobservable pair"):
        observability_index(A, C)


# ---------------------------------------------------------------------------
# constructors


def test_plant_truth_rejects_unobservable():
    with pytest.raises(ValueError, match="unobservable pair"):
        PlantTruth(
            A=np.diag([0.5, 0.7]),
            B=np.ones((2, 1)),
            P=np.zeros((2, 1)),
            C=[[1.0, 0.0]],
            Q=[[0.0]],
        )


def test_plant_truth_keeps_its_observability_index():
    plant, _ = vtol()
    assert plant.obs_index == 4


def test_plant_truth_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="rows"):
        PlantTruth(
            A=np.eye(2),
            B=np.ones((3, 1)),
            P=np.zeros((2, 1)),
            C=np.eye(2),
            Q=np.zeros((2, 1)),
        )


# ---------------------------------------------------------------------------
# build_structural_matrices


def test_structural_matrices_window_one():
    plant = scalar_plant(a=0.5, b=2.0, c=1.0, p=0.3, q=0.7)
    sm = build_structural_matrices(plant, 1)
    np.testing.assert_allclose(sm.obs, plant.C)
    np.testing.assert_allclose(sm.toeplitz_u, np.zeros((1, 1)))
    np.testing.assert_allclose(sm.toeplitz_w, plant.Q)
    np.testing.assert_allclose(sm.reach_u, plant.B)
    np.testing.assert_allclose(sm.reach_w, plant.P)


def test_structural_matrices_window_two_pattern():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 1))
    P = rng.standard_normal((2, 1))
    C = rng.standard_normal((1, 2))
    Q = rng.standard_normal((1, 1))
    plant = PlantTruth(A=A, B=B, P=P, C=C, Q=Q)
    sm = build_structural_matrices(plant, 2)
    np.testing.assert_allclose(sm.obs, np.vstack([C, C @ A]))
    np.testing.assert_allclose(
        sm.toeplitz_u, np.block([[np.zeros((1, 1)), np.zeros((1, 1))], [C @ B, np.zeros((1, 1))]])
    )
    np.testing.assert_allclose(
        sm.toeplitz_w, np.block([[Q, np.zeros((1, 1))], [C @ P, Q]])
    )
    np.testing.assert_allclose(sm.reach_u, np.hstack([A @ B, B]))
    np.testing.assert_allclose(sm.reach_w, np.hstack([A @ P, P]))
    np.testing.assert_allclose(sm.obs_pinv @ sm.obs, np.eye(2), atol=1e-9)


def test_structural_matrices_left_inverse_vtol():
    plant, _ = vtol()
    sm = build_structural_matrices(plant, 4)
    np.testing.assert_allclose(sm.obs_pinv @ sm.obs, np.eye(plant.n), atol=1e-9)


@pytest.mark.parametrize("draw", [None, (0, 3, 1, 1, 2), (1, 5, 2, 2, 2), (2, 6, 2, 3, 4)])
def test_structural_matrices_match_reference_formulation(draw):
    # The paper plant, or random_plant(default_rng(s), n, m, p, n_w), at its
    # observability index and two steps past it; exact equality against
    # powers taken as A times the one before, but for A^ell against
    # matrix_power, which squares: round-off.
    if draw is None:
        plant = vtol()[0]
    else:
        plant = random_plant(np.random.default_rng(draw[0]), *draw[1:])
    p, m, n_w = plant.p, plant.m, plant.n_w
    for ell in (plant.obs_index, plant.obs_index + 2):
        sm = build_structural_matrices(plant, ell)
        np.testing.assert_array_equal(sm.obs_pinv, np.linalg.pinv(sm.obs))
        powers = [np.eye(plant.n)]
        for _ in range(ell):
            powers.append(plant.A @ powers[-1])
        np.testing.assert_array_equal(sm.a_ell, powers[ell])
        a_ell = np.linalg.matrix_power(plant.A, ell)
        np.testing.assert_allclose(
            sm.a_ell, a_ell, rtol=0, atol=1e-13 * max(1.0, np.abs(a_ell).max())
        )
        toeplitz_u = np.zeros((p * ell, m * ell))
        toeplitz_w = np.zeros((p * ell, n_w * ell))
        for i in range(ell):
            toeplitz_w[i * p : (i + 1) * p, i * n_w : (i + 1) * n_w] = plant.Q
            for j in range(i):
                blk = plant.C @ powers[i - j - 1]
                toeplitz_u[i * p : (i + 1) * p, j * m : (j + 1) * m] = blk @ plant.B
                toeplitz_w[i * p : (i + 1) * p, j * n_w : (j + 1) * n_w] = blk @ plant.P
        np.testing.assert_array_equal(sm.toeplitz_u, toeplitz_u)
        np.testing.assert_array_equal(sm.toeplitz_w, toeplitz_w)


def test_structural_matrices_window_too_short():
    plant, _ = vtol()
    with pytest.raises(ValueError, match="below observability index"):
        build_structural_matrices(plant, 2)
