import numpy as np
import pytest

from ddreg.benchmarks import VTOL_ETA0, VTOL_W0, VTOL_X0, vtol
from ddreg import experiment, verify
from ddreg.exosystem import ExoMatrix, build_internal_model, companion_regressor
from ddreg.experiment import assemble_data_matrices, collect_experiment
from ddreg.numerics import real_schur, simulate_linear
from ddreg.plant import PlantTruth, build_structural_matrices, observability_index
from ddreg.synthesis import assemble_sdp, solve_feasibility_sdp
from ddreg.verify import (
    assemble_closed_loop,
    build_auxiliary_matrices,
    check_claim1,
    check_data_identity,
    check_internal_stability,
    check_regulator_equations,
    check_representation_equivalence,
    check_solution_correspondence,
    oracle_factorization_residual,
    simulate_closed_loop,
)

from _scenarios import probe, random_plant, random_unit_circle_exo, rotation


def vtol_setup(seed=0, T=20, ell=4):
    plant, exo = vtol()
    im = build_internal_model(exo, p=plant.p)
    rec = collect_experiment(
        plant, exo, im, VTOL_W0, VTOL_X0, VTOL_ETA0,
        probe(seed, T + 1, plant.m),
    )
    struct = build_structural_matrices(plant, ell)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    return plant, exo, im, rec, struct, aux


def correspondence(aux, exo, plant, u, w0, x0):
    """Correspondence along the plant run under the explicit inputs ``u``
    (``len(u) - 1`` steps from ``w0``, ``x0``)."""
    im = build_internal_model(exo, p=plant.p)
    rec = collect_experiment(
        plant, exo, im, w0, x0, np.zeros(im.dim), u
    )
    return check_solution_correspondence(
        aux, rec.oracle.w, rec.oracle.x[0], rec.y, rec.u
    )


def vtol_design(seed=0):
    plant, exo, im, rec, struct, aux = vtol_setup(seed=seed)
    data = assemble_data_matrices(rec, 4)
    reg = companion_regressor(exo, ell=4, T=20)
    prob = assemble_sdp(data, reg)
    res = solve_feasibility_sdp(prob)
    assert res.status == "feasible"
    G = np.linalg.solve(res.X, res.Y.T).T
    psi1_g = prob.psi1 @ G
    return plant, exo, im, aux, data, res, psi1_g


def inverse_power_stack(S, ell):
    """[S^-ell; ...; S^-1; I], each power taken as build_auxiliary_matrices
    takes it (S^-1 times the one before)."""
    s_inv = np.linalg.inv(S)
    stack = [np.eye(len(S))]
    for _ in range(ell):
        stack.append(s_inv @ stack[-1])
    return np.vstack(stack[::-1])


def y_from_stack(plant, struct, aux):
    """The output map of the stacked exosignal w(k - ell), ..., w(k)."""
    core = aux.y_from_window[:, : plant.p * struct.ell]  # C A^ell obs_pinv
    return np.hstack([plant.C @ struct.reach_w - core @ struct.toeplitz_w, plant.Q])


# ---------------------------------------------------------------------------
# auxiliary matrices


def test_aux_shift_and_injector_patterns():
    plant, exo, im, rec, struct, aux = vtol_setup()
    ell, p, m = 4, 1, 1
    wd = aux.window_dim
    assert wd == 8
    shift = aux.ctrl_a[:wd, :wd]
    # Output part of the shift is the p-block upper shift with a zero last row.
    np.testing.assert_array_equal(shift[:ell, :ell], np.diag(np.ones(3), 1))
    np.testing.assert_array_equal(shift[ell:, ell:], np.diag(np.ones(3), 1))
    np.testing.assert_array_equal(shift[:ell, ell:], np.zeros((4, 4)))
    # Newest output lands in the last output slot, newest input in the last
    # input slot.
    expected_y = np.zeros((8, 1))
    expected_y[3, 0] = 1.0
    np.testing.assert_array_equal(aux.ctrl_y[:wd], expected_y)
    expected_u = np.zeros((8, 1))
    expected_u[7, 0] = 1.0
    np.testing.assert_array_equal(aux.ext_b[:wd], expected_u)


def test_aux_output_maps_scalar_window_one():
    # At window length 1 with C = 1 the output map reduces to [A, CB].
    plant = PlantTruth(A=[[0.7]], B=[[2.0]], P=[[0.4]], C=[[1.0]], Q=[[0.3]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    struct = build_structural_matrices(plant, 1)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    np.testing.assert_allclose(aux.y_from_window, [[0.7, 2.0]], atol=1e-12)
    # The exosignal output map is the stacked one, [P - A Q, Q], composed
    # with the inverse-power stack [S^-1; I] = [1; 1].
    np.testing.assert_array_equal(inverse_power_stack(exo.S, 1), [[1.0], [1.0]])
    np.testing.assert_allclose(aux.y_from_exo, [[0.4 - 0.7 * 0.3 + 0.3]], atol=1e-12)


def test_aux_dimensions_vtol():
    _, _, _, _, _, aux = vtol_setup()
    assert aux.y_from_window.shape == (1, 8)
    # The stacked exosignal maps have 10 columns; composed with the
    # inverse-power stack they map the 2-dimensional exosignal state.
    assert aux.y_from_exo.shape == (1, 2)
    assert aux.ext_a.shape == (10, 10)
    assert aux.ext_b.shape == (10, 1)
    assert aux.ext_p.shape == (10, 2)


def test_exo_window_map_stacks_inverse_powers():
    # y_from_exo at w(4) = S^4 w is the stacked output map at the stacked
    # exosignal w(0), ..., w(4).
    plant, exo, _, _, struct, aux = vtol_setup()
    S = exo.S
    w = np.array([0.3, -0.2])
    stacked = np.concatenate([np.linalg.matrix_power(S, j) @ w for j in range(5)])
    w4 = np.linalg.matrix_power(S, 4) @ w
    np.testing.assert_allclose(inverse_power_stack(S, 4) @ w4, stacked, atol=1e-12)
    np.testing.assert_allclose(
        aux.y_from_exo @ w4, y_from_stack(plant, struct, aux) @ stacked, atol=1e-12
    )


# ---------------------------------------------------------------------------
# data identity


def test_data_identity_on_record():
    plant, exo, im, rec, struct, aux = vtol_setup(seed=1)
    data = assemble_data_matrices(rec, 4)
    assert check_data_identity(data, aux) < 1e-8


def test_data_identity_sensitive_to_corruption():
    # Modest-scale record so a unit-entry corruption is clearly visible in
    # the relative residual.
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.2]], C=[[1.0]], Q=[[0.4]])
    exo = ExoMatrix([[-1.0]])
    im = build_internal_model(exo, p=1)
    rec = collect_experiment(
        plant, exo, im, [0.7], [0.3], [0.0], probe(1, 13, plant.m)
    )
    struct = build_structural_matrices(plant, 1)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    data = assemble_data_matrices(rec, 1)
    assert check_data_identity(data, aux) < 1e-10
    data.psi1[1, 3] += 1.0
    assert check_data_identity(data, aux) > 1e-3


def test_data_identity_zero_record():
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[0.0]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    rec = collect_experiment(
        plant, exo, im, [0.0], [0.0], [0.0], np.zeros((9, 1))
    )
    struct = build_structural_matrices(plant, 1)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    assert check_data_identity(assemble_data_matrices(rec, 1), aux) < 1e-15


def test_data_identity_randomized_plants():
    rng = np.random.default_rng(10)
    from ddreg.plant import observability_index

    for trial in range(5):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        n_w = int(rng.integers(1, 4))
        plant = random_plant(rng, n, m, p, n_w)
        exo = random_unit_circle_exo(rng, n_w)
        im = build_internal_model(exo, p=p)
        ell = observability_index(plant.A, plant.C)
        T = ell + 12
        rec = collect_experiment(
            plant, exo, im,
            rng.standard_normal(n_w), rng.standard_normal(n), np.zeros(im.dim),
            probe(trial, T + 1, plant.m),
        )
        struct = build_structural_matrices(plant, ell)
        aux = build_auxiliary_matrices(plant, struct, exo, im)
        assert check_data_identity(assemble_data_matrices(rec, ell), aux) < 1e-8


# ---------------------------------------------------------------------------
# claim-1 window identities


def test_claim1_vtol():
    plant, exo, im, rec, struct, aux = vtol_setup(seed=2)
    r1, r2, r3 = check_claim1(rec, plant, struct)
    assert max(r1, r2, r3) < 1e-8


def test_claim1_zero_record():
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[0.0]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    rec = collect_experiment(
        plant, exo, im, [0.0], [0.0], [0.0], np.zeros((9, 1))
    )
    struct = build_structural_matrices(plant, 1)
    assert max(check_claim1(rec, plant, struct)) == 0.0


def test_claim1_random_stable_plant_long_run():
    rng = np.random.default_rng(3)
    from ddreg.plant import observability_index

    plant = random_plant(rng, 3, 1, 2, 2)
    exo = random_unit_circle_exo(rng, 2)
    im = build_internal_model(exo, p=2)
    ell = observability_index(plant.A, plant.C)
    rec = collect_experiment(
        plant, exo, im, [0.4, -0.2], rng.standard_normal(3), np.zeros(im.dim),
        probe(30, 51, plant.m),
    )
    struct = build_structural_matrices(plant, ell)
    assert max(check_claim1(rec, plant, struct)) < 1e-8


# ---------------------------------------------------------------------------
# solution correspondence


def test_correspondence_zero():
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[0.0]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    struct = build_structural_matrices(plant, 1)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    r_state, r_out = correspondence(aux, exo, plant, np.zeros((31, 1)), [0.0], [0.0])
    assert r_state == 0.0 and r_out == 0.0


def test_correspondence_vtol_random_input():
    plant, exo, im, rec, struct, aux = vtol_setup()
    rng = np.random.default_rng(4)
    r_state, r_out = correspondence(
        aux, exo, plant, rng.standard_normal((31, 1)), VTOL_W0, VTOL_X0
    )
    assert r_state < 1e-8 and r_out < 1e-8


def test_correspondence_unstable_scalar():
    plant = PlantTruth(A=[[2.0]], B=[[1.0]], P=[[0.5]], C=[[1.0]], Q=[[1.0]])
    exo = ExoMatrix([[-1.0]])
    im = build_internal_model(exo, p=1)
    struct = build_structural_matrices(plant, 1)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    rng = np.random.default_rng(5)
    r_state, r_out = correspondence(
        aux, exo, plant, rng.standard_normal((21, 1)), [0.7], [0.3]
    )
    assert r_state < 1e-8 and r_out < 1e-8


def test_correspondence_with_closed_loop_input():
    # The correspondence also holds along the closed loop's own input.
    plant, exo, im, aux, data, res, psi1_g = vtol_design(seed=0)
    cl = assemble_closed_loop(aux, res.K)
    run = simulate_closed_loop(cl, VTOL_W0, VTOL_X0, np.zeros(8), VTOL_ETA0, 40)
    r_state, r_out = check_solution_correspondence(aux, run.w, run.x[0], run.y, run.u)
    assert r_state < 1e-8 and r_out < 1e-8


def test_closed_loop_inputs_read_off_the_states(monkeypatch):
    # run.u is formed on first read from the same strided view of the
    # stored states as the product z[:steps, c:] K^T, so it is that product
    # bit for bit, and every read returns the one array.
    plant, exo, im, aux, data, res, psi1_g = vtol_design(seed=0)
    cl = assemble_closed_loop(aux, res.K)
    stored = []

    def keep(*args):
        stored.append(simulate_linear(*args))
        return stored[-1]

    monkeypatch.setattr(verify, "simulate_linear", keep)
    run = simulate_closed_loop(cl, VTOL_W0, VTOL_X0, np.zeros(8), VTOL_ETA0, 40)
    (both,) = stored
    z, c = both[:, :, 0], cl.dims[0] + cl.dims[1]
    expected = z[:40, c:] @ cl.gain.T
    assert run.u is run.u
    assert run.u.shape == expected.shape and run.u.tobytes() == expected.tobytes()


def test_correspondence_flags_perturbed_output():
    # The check reads the run it is given: one output sample moved by 1e-6
    # shows in every window that holds it and in the output comparison.
    # Its residuals are relative to the run's size, so the run comes from a
    # stable plant with O(1) outputs.
    rng = np.random.default_rng(13)
    plant = random_plant(rng, 3, 1, 1, 2)
    exo = ExoMatrix(rotation(0.9))
    im = build_internal_model(exo, p=1)
    ell = observability_index(plant.A, plant.C)
    aux = build_auxiliary_matrices(
        plant, build_structural_matrices(plant, ell), exo, im
    )
    rec = collect_experiment(
        plant, exo, im, [0.3, -0.2], rng.standard_normal(3), np.zeros(im.dim),
        probe(3, 21, plant.m),
    )
    assert np.abs(rec.y).max() < 10.0
    start = (aux, rec.oracle.w, rec.oracle.x[0])
    assert max(check_solution_correspondence(*start, rec.y, rec.u)) < 1e-8
    y = rec.y.copy()
    y[10, 0] += 1e-6
    assert max(check_solution_correspondence(*start, y, rec.u)) > 1e-8


# ---------------------------------------------------------------------------
# closed loop


def test_closed_loop_matches_hand_assembled_map():
    plant, exo, im, rec, struct, aux = vtol_setup()
    rng = np.random.default_rng(6)
    K = rng.standard_normal((1, 10))
    cl = assemble_closed_loop(aux, K)
    # Independent oracle: push basis vectors through the raw block equations.
    dim = sum(cl.dims)
    n_w, n, wd, di = cl.dims
    cols = []
    for j in range(dim):
        v = np.zeros(dim)
        v[j] = 1.0
        w, x, chi, eta = v[:n_w], v[n_w : n_w + n], v[n_w + n : n_w + n + wd], v[n_w + n + wd :]
        u = K @ np.concatenate([chi, eta])
        y = plant.C @ x + plant.Q @ w
        cols.append(
            np.concatenate(
                [
                    exo.S @ w,
                    plant.A @ x + plant.B @ u + plant.P @ w,
                    aux.ctrl_a[:wd, :wd] @ chi
                    + aux.ctrl_y[:wd] @ y
                    + aux.ext_b[:wd] @ u,
                    im.companion @ eta + im.input_map @ y,
                ]
            )
        )
    np.testing.assert_allclose(cl.full_map, np.column_stack(cols), atol=1e-12)


@pytest.mark.parametrize("draw", [None, (0, 3, 1, 1, 2), (1, 5, 2, 2, 2), (2, 6, 2, 3, 4)])
def test_assembled_maps_match_block_formulation(draw, monkeypatch):
    # The paper plant, or random_plant(default_rng(s), n, m, p, n_w) with a
    # random unit-circle exosystem, under a random gain: the experiment's
    # map and input map, ext_a, full_map and core_map equal their np.block
    # forms exactly, and y_from_exo and ext_p the stacked-exosignal maps
    # times the inverse-power stack.
    if draw is None:
        plant, exo = vtol()
        rng = np.random.default_rng(9)
    else:
        rng = np.random.default_rng(draw[0])
        plant = random_plant(rng, *draw[1:])
        exo = random_unit_circle_exo(rng, plant.n_w)
    im = build_internal_model(exo, p=plant.p)
    ell = plant.obs_index
    struct = build_structural_matrices(plant, ell)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    assert aux.plant is plant and aux.exo is exo and aux.im is im
    wd, di, n, n_w = aux.window_dim, im.dim, plant.n, plant.n_w
    shift, inject_y, inject_u = aux.ctrl_a[:wd, :wd], aux.ctrl_y[:wd], aux.ext_b[:wd]

    maps = []

    def recorded(F, z0, steps, G, u):
        maps.append((F, G))
        return simulate_linear(F, z0, steps, G, u)

    monkeypatch.setattr(experiment, "simulate_linear", recorded)
    zeros = [np.zeros(k) for k in (n_w, n, di)]
    collect_experiment(plant, exo, im, *zeros, probe(0, ell + 1, plant.m))
    (F, G), = maps
    loop = np.block(
        [
            [exo.S, np.zeros((n_w, n + di))],
            [plant.P, plant.A, np.zeros((n, di))],
            [im.input_map @ plant.Q, im.input_map @ plant.C, im.companion],
        ]
    )
    np.testing.assert_array_equal(F, loop)
    zeros = np.zeros((n_w + n + di, plant.m))
    zeros[n_w : n_w + n] = plant.B
    np.testing.assert_array_equal(G, zeros)
    ext_a = np.block(
        [
            [shift + inject_y @ aux.y_from_window, np.zeros((wd, di))],
            [im.input_map @ aux.y_from_window, im.companion],
        ]
    )
    np.testing.assert_array_equal(aux.ext_a, ext_a)
    stacked = y_from_stack(plant, struct, aux)
    exo_window_map = inverse_power_stack(exo.S, ell)
    np.testing.assert_array_equal(aux.y_from_exo, stacked @ exo_window_map)
    ext_p = np.vstack([inject_y @ stacked, im.input_map @ stacked])
    np.testing.assert_array_equal(aux.ext_p, ext_p @ exo_window_map)

    gain = rng.standard_normal((plant.m, wd + di))
    cl = assemble_closed_loop(aux, gain)
    k_chi, k_eta = gain[:, :wd], gain[:, wd:]
    A, B, P, C, Q = plant.A, plant.B, plant.P, plant.C, plant.Q
    core = np.block(
        [
            [A, B @ k_chi, B @ k_eta],
            [
                inject_y @ C,
                shift + inject_u @ k_chi,
                inject_u @ k_eta,
            ],
            [im.input_map @ C, np.zeros((di, wd)), im.companion],
        ]
    )
    w_col = np.vstack([P, inject_y @ Q, im.input_map @ Q])
    full = np.block([[exo.S, np.zeros((n_w, n + wd + di))], [w_col, core]])
    np.testing.assert_array_equal(cl.core_map, core)
    np.testing.assert_array_equal(cl.full_map, full)
    assert cl.core_map.flags.c_contiguous and cl.full_map.flags.c_contiguous


def test_closed_loop_dims_vtol():
    plant, exo, im, rec, struct, aux = vtol_setup()
    cl = assemble_closed_loop(aux, np.zeros((1, 10)))
    assert cl.dims == (2, 4, 8, 2)
    assert cl.full_map.shape == (16, 16)


def test_zero_gain_block_structure():
    plant, exo, im, rec, struct, aux = vtol_setup()
    cl = assemble_closed_loop(aux, np.zeros((1, 10)))
    # With zero gain the core map is block lower-triangular: its spectrum is
    # the union of the plant, shift, and companion spectra.
    rho = check_internal_stability(cl)
    assert rho == pytest.approx(
        max(np.max(np.abs(np.linalg.eigvals(plant.A))), 1.0), abs=1e-9
    )
    assert rho >= 1.0


def test_internal_stability_feasible_design():
    plant, exo, im, aux, data, res, psi1_g = vtol_design()
    cl = assemble_closed_loop(aux, res.K)
    assert check_internal_stability(cl) < 1.0


def test_stability_trivial_union_case():
    # Plant A = 0 with zero gain: the companion block of the constant-signal
    # model pins the radius at exactly 1.
    plant = PlantTruth(A=[[0.0]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[1.0]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    struct = build_structural_matrices(plant, 1)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    cl = assemble_closed_loop(aux, np.zeros((1, 3)))
    assert check_internal_stability(cl) == pytest.approx(1.0, abs=1e-12)


def test_simulation_zero_exosignal_decays():
    plant, exo, im, aux, data, res, psi1_g = vtol_design()
    cl = assemble_closed_loop(aux, res.K)
    run = simulate_closed_loop(cl, np.zeros(2), VTOL_X0, np.zeros(8), VTOL_ETA0, 300)
    core = np.linalg.norm(np.hstack([run.x, run.chi, run.eta]), axis=1)
    assert core[300] < 1e-6 * core[0]
    assert run.tail_max_y < 1e-6


def test_simulation_regulates_with_persistent_exosignal():
    plant, exo, im, aux, data, res, psi1_g = vtol_design()
    cl = assemble_closed_loop(aux, res.K)
    run = simulate_closed_loop(cl, VTOL_W0, VTOL_X0, np.zeros(8), VTOL_ETA0, 300)
    assert run.tail_max_y < 1e-4
    assert run.settle_step is not None
    # The exosignal itself never decays.
    assert np.linalg.norm(run.w[-1]) == pytest.approx(
        np.linalg.norm(run.w[0]), abs=1e-10
    )


def test_zero_gain_does_not_regulate():
    plant, exo, im, rec, struct, aux = vtol_setup()
    cl = assemble_closed_loop(aux, np.zeros((1, 10)))
    run = simulate_closed_loop(cl, VTOL_W0, VTOL_X0, np.zeros(8), VTOL_ETA0, 300)
    assert run.tail_max_y > 1e-2


# ---------------------------------------------------------------------------
# regulator equations and representation equivalence


def regulator_equations(aux, a_cl):
    """``check_regulator_equations`` on the real Schur form of ``a_cl``."""
    return check_regulator_equations(aux, a_cl, real_schur(a_cl))


def test_regulator_equations_feasible_design():
    plant, exo, im, aux, data, res, psi1_g = vtol_design()
    identity, syl = regulator_equations(aux, psi1_g)
    assert identity < 1e-6
    assert syl < 1e-8


def test_regulator_equations_noise_free_world():
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[0.0]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    struct = build_structural_matrices(plant, 1)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    a_cl = np.diag([0.5, 0.4, 0.3])
    identity, syl = regulator_equations(aux, a_cl)
    assert identity == pytest.approx(0.0, abs=1e-14)
    assert syl == pytest.approx(0.0, abs=1e-14)


def test_regulator_equations_negative_control():
    # A stable but wrong closed-loop matrix breaks the steady-state identity.
    plant, exo, im, aux, data, res, psi1_g = vtol_design()
    rng = np.random.default_rng(8)
    found = 0
    for _ in range(50):
        wrong = psi1_g + 1e-3 * rng.standard_normal(psi1_g.shape)
        if np.max(np.abs(np.linalg.eigvals(wrong))) < 1.0:
            identity, _ = regulator_equations(aux, wrong)
            assert identity > 1e-4
            found += 1
            if found >= 3:
                return
    assert found > 0, "no stable perturbation found"


def test_regulator_identity_holds_for_any_structured_stabilizer():
    # As long as the controller keeps the companion copy of the exosystem,
    # the steady-state identity holds for every stabilizing gain, not just
    # the designed one.
    plant, exo, im, aux, data, res, psi1_g = vtol_design()
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(20):
        gain = res.K + 0.01 * rng.standard_normal(res.K.shape)
        a_cl = aux.ext_a + aux.ext_b @ gain
        if np.max(np.abs(np.linalg.eigvals(a_cl))) < 1.0:
            identity, _ = regulator_equations(aux, a_cl)
            assert identity < 1e-8
            checked += 1
    assert checked > 0


def test_regulator_equations_rejects_unstable():
    plant, exo, im, rec, struct, aux = vtol_setup()
    with pytest.raises(ValueError, match="not Schur"):
        regulator_equations(aux, 1.5 * np.eye(10))


def test_regulator_equations_against_vectorized_solve():
    # Independent oracle: solve the Kronecker-vectorized Sylvester system
    # A P - P S = -ext_p and evaluate the identity on it.
    plant, exo, im, rec, struct, aux = vtol_setup()
    rng = np.random.default_rng(3)
    a_cl = rng.standard_normal((10, 10))
    a_cl *= 0.8 / np.max(np.abs(np.linalg.eigvals(a_cl)))
    rhs = -aux.ext_p
    kron = np.kron(np.eye(2), a_cl) - np.kron(exo.S.T, np.eye(10))
    Pi = np.linalg.solve(kron, rhs.ravel(order="F")).reshape((10, 2), order="F")
    expected = np.linalg.norm(aux.y_from_exo + aux.y_from_window @ Pi[:8])
    identity, syl = regulator_equations(aux, a_cl)
    assert identity == pytest.approx(expected, rel=1e-9)
    assert identity > 1e-3  # a random loop does not regulate
    assert syl < 1e-14


def test_regulator_equations_resonant_spectra_rejected():
    # S's eigenvalue 1 - 5e-10 lies inside the unit circle's slack, so a
    # Schur closed loop can come within 1e-9 of it: no unique steady state.
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.0]], C=[[1.0]], Q=[[0.0]])
    exo = ExoMatrix([[1.0 - 5e-10]])
    im = build_internal_model(exo, p=1)
    aux = build_auxiliary_matrices(
        plant, build_structural_matrices(plant, 1), exo, im
    )
    with pytest.raises(ValueError, match="resonant spectra"):
        regulator_equations(aux, np.diag([1.0 - 1e-9, 0.4, 0.3]))
    identity, syl = regulator_equations(aux, np.diag([0.5, 0.4, 0.3]))
    assert identity == pytest.approx(0.0, abs=1e-14)


def test_representation_equivalence():
    plant, exo, im, aux, data, res, psi1_g = vtol_design()
    model_side = aux.ext_a + aux.ext_b @ res.K
    data_eigs = np.linalg.eigvals(psi1_g)
    assert check_representation_equivalence(model_side, data_eigs) < 1e-8


def test_oracle_factorization_residual():
    plant, exo, im, rec, struct, aux = vtol_setup(seed=5)
    data = assemble_data_matrices(rec, 4)
    reg = companion_regressor(exo, ell=4, T=20)
    assert oracle_factorization_residual(data, reg.matrix) < 1e-8


def test_identities_hold_above_observability_index():
    # Window length 5 exceeds the observability index 4; the window
    # identities and the data relation still hold there.
    plant, exo, im, rec, struct, aux = vtol_setup(seed=7, T=24, ell=5)
    r = check_claim1(rec, plant, struct)
    assert max(r) < 1e-8
    assert check_data_identity(assemble_data_matrices(rec, 5), aux) < 1e-8
    rng = np.random.default_rng(12)
    r_state, r_out = correspondence(
        aux, exo, plant, rng.standard_normal((31, 1)), VTOL_W0, VTOL_X0
    )
    assert r_state < 1e-8 and r_out < 1e-8
