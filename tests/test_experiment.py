import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg.experiment import (
    assemble_data_matrices,
    collect_experiment,
    record_from_csv,
    record_to_csv,
    stacked_windows,
)
from ddreg.exosystem import ExoMatrix, build_internal_model
from ddreg.plant import PlantTruth

from _scenarios import probe, random_plant, random_unit_circle_exo, vtol


def vtol_setup():
    plant, exo = vtol()
    im = build_internal_model(exo, p=plant.p)
    return plant, exo, im


def vtol_record(seed=0, T=20):
    plant, exo, im = vtol_setup()
    return collect_experiment(
        plant,
        exo,
        im,
        w0=[0.0538, 0.1834],
        x0=[-2.2588, 0.8622, 0.3188, -1.3077],
        eta0=[-0.4336, 0.3426],
        u=probe(seed, T + 1, plant.m),
    )


def test_zero_experiment_all_zero():
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[0.0]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    rec = collect_experiment(
        plant, exo, im, [0.0], [0.0], [0.0], np.zeros((6, 1))
    )
    assert np.all(rec.u == 0) and np.all(rec.y == 0) and np.all(rec.eta == 0)


def test_vtol_record_has_21_samples():
    rec = vtol_record()
    assert rec.u.shape == (21, 1)
    assert rec.y.shape == (21, 1)
    assert rec.eta.shape == (22, 2)


def test_scalar_hand_recursion():
    # x(1) = 0.5 x0 + u(0); outputs read the state directly.
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[0.0]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    rec = collect_experiment(
        plant, exo, im, [0.0], [2.0], [0.0], np.array([[1.0], [0.0]])
    )
    np.testing.assert_allclose(rec.y[:, 0], [2.0, 2.0 * 0.5 + 1.0], atol=1e-14)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    m=st.integers(1, 3),
    p=st.integers(1, 3),
    n_w=st.integers(1, 4),
    conjugate=st.booleans(),
    T=st.integers(1, 30),
)
def test_collect_matches_per_system_loops(seed, n, m, p, n_w, conjugate, T):
    # Reference: exosystem, plant and internal model each stepped by its
    # own plain loop, in that order.
    rng = np.random.default_rng(seed)
    plant = random_plant(rng, n, m, p, n_w)
    exo = random_unit_circle_exo(rng, n_w, conjugate=conjugate)
    im = build_internal_model(exo, p=p)
    w0, x0, eta0 = (rng.standard_normal(d) for d in (n_w, n, im.dim))
    u = rng.standard_normal((T + 1, m))
    rec = collect_experiment(plant, exo, im, w0, x0, eta0, u)

    w, x, eta = [w0], [x0], [eta0]
    for k in range(T):
        w.append(exo.S @ w[k])
        x.append(plant.A @ x[k] + plant.B @ u[k] + plant.P @ w[k])
    y = [plant.C @ x[k] + plant.Q @ w[k] for k in range(T + 1)]
    for k in range(T + 1):
        eta.append(im.companion @ eta[k] + im.input_map @ y[k])

    for got, want in ((rec.oracle.w, w), (rec.oracle.x, x), (rec.y, y), (rec.eta, eta)):
        want = np.array(want)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_experiment_too_short(tmp_path):
    # A record read from CSV is checked where it enters: it holds the
    # config's T steps (and the config's T >= ell).
    _, exo, im = vtol_setup()
    path = tmp_path / "record.csv"
    record_to_csv(vtol_record(T=3), path)
    with pytest.raises(ValueError, match="the CSV holds T = 3, the config has T = 20"):
        record_from_csv(path, exo, T=20, im=im)


def test_internal_model_invariant_holds():
    plant, exo, im = vtol_setup()
    rec = vtol_record()
    assert rec.internal_model_residual(im) < 1e-10


def test_data_matrix_shapes_vtol():
    data = assemble_data_matrices(vtol_record(), 4)
    assert data.u1.shape == (1, 17)
    assert data.psi0.shape == (10, 17)
    assert data.psi1.shape == (10, 17)
    assert data.w0_oracle.shape == (2, 17)


def test_data_matrices_degenerate_single_column():
    rec = vtol_record(T=4)
    data = assemble_data_matrices(rec, 4)
    assert data.psi0.shape[1] == 1 and data.u1.shape[1] == 1


def test_data_matrix_layout_matches_record():
    rec = vtol_record(seed=3)
    data = assemble_data_matrices(rec, 4)
    ell, p, m = 4, rec.y.shape[1], rec.u.shape[1]
    j = 5
    np.testing.assert_array_equal(
        data.psi0[: p * ell, j], rec.y[j : j + ell].ravel()
    )
    np.testing.assert_array_equal(
        data.psi0[p * ell : p * ell + m * ell, j], rec.u[j : j + ell].ravel()
    )
    np.testing.assert_array_equal(data.psi0[p * ell + m * ell :, j], rec.eta[j + ell])
    np.testing.assert_array_equal(data.u1[:, j], rec.u[ell + j])
    np.testing.assert_array_equal(data.w0_oracle[:, j], rec.oracle.w[ell + j])


def test_data_matrices_match_per_column_loop():
    # Reference: the stacks built one column at a time; the windows hold
    # the same samples, so the match is exact.
    rec = vtol_record(seed=8, T=25)
    data = assemble_data_matrices(rec, 5)
    ell = 5

    def column(j):
        return np.concatenate(
            [rec.y[j : j + ell].ravel(), rec.u[j : j + ell].ravel(), rec.eta[j + ell]]
        )

    columns = [column(j) for j in range(rec.T - ell + 2)]
    np.testing.assert_array_equal(data.psi0, np.column_stack(columns[:-1]))
    np.testing.assert_array_equal(data.psi1, np.column_stack(columns[1:]))


def test_sliding_window_consistency():
    # psi1 column j equals psi0 column j+1 except for anything beyond T-ell.
    data = assemble_data_matrices(vtol_record(seed=4), 4)
    np.testing.assert_array_equal(data.psi1[:, :-1], data.psi0[:, 1:])


@pytest.mark.parametrize(
    "a, ell",
    [
        (np.arange(30.0).reshape(10, 3), 4),  # contiguous
        (np.arange(70.0).reshape(10, 7)[:, 2:4], 3),  # column slice of a wider array
        (np.arange(12.0).reshape(4, 3), 4),  # a single window
    ],
)
def test_stacked_windows_match_explicit_loop(a, ell):
    windows = stacked_windows(a, ell)
    ref = np.array([a[j : j + ell].ravel() for j in range(len(a) - ell + 1)])
    np.testing.assert_array_equal(windows, ref)
    assert not windows.flags.writeable


def test_determinism_same_seed_bit_identical():
    d1 = assemble_data_matrices(vtol_record(seed=9), 4)
    d2 = assemble_data_matrices(vtol_record(seed=9), 4)
    assert np.array_equal(d1.psi0, d2.psi0)
    assert np.array_equal(d1.psi1, d2.psi1)
    assert np.array_equal(d1.u1, d2.u1)


def csv_round_trip(tmp_path, T):
    plant, exo, im = vtol_setup()
    rec = vtol_record(seed=5, T=T)
    path = tmp_path / "record.csv"
    record_to_csv(rec, path)
    loaded = record_from_csv(path, exo, T=rec.T, im=im)
    np.testing.assert_allclose(loaded.u, rec.u, atol=0)
    np.testing.assert_allclose(loaded.y, rec.y, atol=0)
    np.testing.assert_allclose(loaded.eta, rec.eta, atol=1e-12)
    # Designer-mode CSV carries no oracle columns.
    assert loaded.oracle.w.shape[1] == 0

    d1 = assemble_data_matrices(rec, 4)
    d2 = assemble_data_matrices(loaded, 4)
    np.testing.assert_allclose(d2.psi1, d1.psi1, atol=1e-12)


def test_csv_round_trip(tmp_path):
    csv_round_trip(tmp_path, T=20)


def test_csv_round_trip_long_record(tmp_path):
    # At T = 300 the outputs reach ~3e7: the stored eta sequence's defect
    # against its recursion is round-off at that scale, not an inconsistency.
    csv_round_trip(tmp_path, T=300)


def test_csv_rejects_perturbed_eta(tmp_path):
    plant, exo, im = vtol_setup()
    rec = vtol_record(seed=5)
    path = tmp_path / "record.csv"
    record_to_csv(rec, path)
    lines = path.read_text().splitlines()
    row = lines[11].split(",")
    col = lines[0].split(",").index("eta_1")
    row[col] = repr(float(row[col]) + 1e-6)
    lines[11] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="inconsistent with the internal model"):
        record_from_csv(path, exo, T=rec.T, im=im)


def test_csv_unmask_adds_exosignal(tmp_path):
    rec = vtol_record(seed=6)
    path = tmp_path / "record.csv"
    record_to_csv(rec, path, unmask=True)
    header = path.read_text().splitlines()[0]
    assert "w_1" in header and "w_2" in header
    path2 = tmp_path / "masked.csv"
    record_to_csv(rec, path2)
    assert "w_1" not in path2.read_text().splitlines()[0]
