import numpy as np
import pytest
from scipy.linalg import block_diag

from ddreg.experiment import collect_experiment
from ddreg.exosystem import ExoMatrix, build_internal_model
from ddreg.plant import PlantTruth, build_structural_matrices, observability_index

from _scenarios import random_plant, real_jordan, rotation, vtol


def scalar_plant(a=0.5, b=1.0, c=1.0, p=0.0, q=0.0):
    return PlantTruth(
        A=[[a]], B=[[b]], P=[[p]], C=[[c]], Q=[[q]]
    )


def scalar_exo():
    return ExoMatrix([[1.0]])


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
# plant stepping (inside the data-collection experiment)


def collect(plant, exo, w0, x0, u):
    """Plant run under the explicit inputs ``u``, for ``len(u) - 1`` steps."""
    im = build_internal_model(exo, p=plant.p)
    return collect_experiment(
        plant, exo, im, w0, x0, np.zeros(im.dim), u
    )


def test_simulate_all_zero():
    plant = scalar_plant(a=0.0)
    rec = collect(plant, scalar_exo(), [0.0], [0.0], np.zeros((6, 1)))
    assert np.all(rec.oracle.x == 0.0)
    assert np.all(rec.y == 0.0)


def test_simulate_one_step_matches_definition():
    rng = np.random.default_rng(0)
    plant, exo = vtol()
    x0 = rng.standard_normal(plant.n)
    w0 = rng.standard_normal(exo.n_w)
    u = rng.standard_normal((2, plant.m))
    rec = collect(plant, exo, w0, x0, u)
    np.testing.assert_allclose(
        rec.oracle.x[1], plant.A @ x0 + plant.B @ u[0] + plant.P @ w0, atol=1e-14
    )
    np.testing.assert_allclose(rec.y[0], plant.C @ x0 + plant.Q @ w0, atol=1e-14)


def test_simulate_matches_independent_recursion():
    # Independent oracle: re-run the recursion with bare matrix-vector steps.
    rng = np.random.default_rng(1)
    plant, exo = vtol()
    x0 = rng.standard_normal(plant.n)
    w0 = rng.standard_normal(exo.n_w)
    u = rng.standard_normal((21, plant.m))
    rec = collect(plant, exo, w0, x0, u)

    w, x = w0.copy(), x0.copy()
    for k in range(21):
        np.testing.assert_allclose(rec.oracle.w[k], w, atol=1e-12)
        np.testing.assert_allclose(rec.oracle.x[k], x, atol=1e-12)
        np.testing.assert_allclose(rec.y[k], plant.C @ x + plant.Q @ w, atol=1e-12)
        x = plant.A @ x + plant.B @ u[k] + plant.P @ w
        w = exo.S @ w


def test_simulate_deterministic():
    rng = np.random.default_rng(2)
    plant, exo = vtol()
    x0 = rng.standard_normal(plant.n)
    u = rng.standard_normal((11, 1))
    r1 = collect(plant, exo, [0.1, 0.2], x0, u)
    r2 = collect(plant, exo, [0.1, 0.2], x0, u)
    assert np.array_equal(r1.oracle.x, r2.oracle.x) and np.array_equal(r1.y, r2.y)


def test_exosignal_norm_preserved_for_rotation():
    plant, exo = vtol()
    rec = collect(plant, exo, [0.3, -0.4], np.zeros(4), np.zeros((51, 1)))
    norms = np.linalg.norm(rec.oracle.w, axis=1)
    np.testing.assert_allclose(norms, norms[0], atol=1e-10)


def test_simulate_divergence_guard():
    plant = scalar_plant(a=1e3)
    with pytest.raises(RuntimeError, match="divergent"):
        collect(plant, scalar_exo(), [0.0], [1.0], np.zeros((11, 1)))


def test_simulate_dimension_mismatch():
    plant, exo = vtol()
    with pytest.raises(ValueError):
        collect(plant, exo, [0.1], np.zeros(4), np.zeros((6, 1)))


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
