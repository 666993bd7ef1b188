import numpy as np
import pytest

from ddreg.benchmarks import VTOL_ETA0, VTOL_W0, VTOL_X0, vtol, wide_output
from ddreg.exo_factorization import JordanSpec, analyze_exosystem, build_M_jordan
from ddreg.experiment import NormalInputPolicy, assemble_data_matrices, collect_experiment
from ddreg.internal_model import build_internal_model
from ddreg.plant import ExoMatrix, PlantTruth
from ddreg.synthesis import (
    DEFAULT_FEAS_TOL,
    SdpProblem,
    SolverOptions,
    _elimination,
    _nullspace,
    _sdp_block,
    _surfaces,
    _symmetry_system,
    assemble_sdp,
    extract_gain,
    feasibility_precheck,
    solve_feasibility_sdp,
)


def vtol_problem(seed=0, T=20, ell=4, similarity=None):
    # ``similarity`` changes the plant's state coordinates x -> similarity x,
    # which leaves the input-output data unchanged up to round-off.
    plant, exo = vtol()
    x0 = VTOL_X0
    if similarity is not None:
        inv = np.linalg.inv(similarity)
        plant = PlantTruth(
            A=similarity @ plant.A @ inv,
            B=similarity @ plant.B,
            P=similarity @ plant.P,
            C=plant.C @ inv,
            Q=plant.Q,
        )
        x0 = similarity @ x0
    im = build_internal_model(exo, p=plant.p)
    rec = collect_experiment(
        plant, exo, im, VTOL_W0, x0, VTOL_ETA0,
        NormalInputPolicy(seed=seed), T=T, ell=ell,
    )
    data = assemble_data_matrices(rec)
    reg = build_M_jordan(analyze_exosystem(exo), ell=ell, T=T).reduced()
    return assemble_sdp(data, reg)


def scalar_problem(seed=0, T=6):
    # Scalar stable plant with a constant disturbance: the smallest feasible
    # design problem (nu = 3, one-row regressor).
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.3]], C=[[1.0]], Q=[[0.2]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    rec = collect_experiment(
        plant, exo, im, [1.0], [0.5], [0.0], NormalInputPolicy(seed=seed), T=T, ell=1
    )
    data = assemble_data_matrices(rec)
    reg = build_M_jordan(JordanSpec(real_blocks=[(1.0, 1)]), ell=1, T=T).reduced()
    return assemble_sdp(data, reg)


# ---------------------------------------------------------------------------
# assemble_sdp


def test_vtol_problem_dimensions():
    prob = vtol_problem()
    assert prob.nu == 10
    assert prob.n_cols == 17
    assert prob.nhat_w == 2


def test_minimal_siso_dimensions():
    prob = scalar_problem(T=3)
    assert prob.nu == 3
    assert prob.n_cols == 3


def test_assemble_requires_reduced_regressor():
    plant, exo = vtol()
    im = build_internal_model(exo, p=plant.p)
    rec = collect_experiment(
        plant, exo, im, VTOL_W0, VTOL_X0, VTOL_ETA0,
        NormalInputPolicy(seed=0), T=20, ell=4,
    )
    data = assemble_data_matrices(rec)
    reg = build_M_jordan(analyze_exosystem(exo), ell=4, T=20)
    with pytest.raises(ValueError, match="not been reduced"):
        assemble_sdp(data, reg)


def test_reduction_reflected_in_regressor_rows():
    # A regressor with a redundant third row shrinks back to two after
    # reduction, and the problem sees the reduced row count.
    plant, exo = vtol()
    im = build_internal_model(exo, p=plant.p)
    rec = collect_experiment(
        plant, exo, im, VTOL_W0, VTOL_X0, VTOL_ETA0,
        NormalInputPolicy(seed=0), T=20, ell=4,
    )
    data = assemble_data_matrices(rec)
    reg = build_M_jordan(analyze_exosystem(exo), ell=4, T=20)
    from ddreg.exo_factorization import Regressor

    padded = Regressor(
        matrix=np.vstack([reg.matrix, reg.matrix[0] + reg.matrix[1]]),
        method="jordan",
    ).reduced()
    prob = assemble_sdp(data, padded)
    assert prob.nhat_w == 2


# ---------------------------------------------------------------------------
# equality elimination


def _symmetry_system_loop(H0):
    """Loop reference for the symmetry-and-trace system on vec(Z)."""
    nu, q = H0.shape
    n_sym = nu * (nu - 1) // 2
    E = np.zeros((n_sym + 1, q * nu))
    rhs = np.zeros(n_sym + 1)
    row = 0
    for i in range(nu):
        for j in range(i + 1, nu):
            for a in range(q):
                E[row, a * nu + j] += H0[i, a]
                E[row, a * nu + i] -= H0[j, a]
            row += 1
    for i in range(nu):
        for a in range(q):
            E[n_sym, a * nu + i] += H0[i, a]
    rhs[n_sym] = float(nu)
    return E, rhs


def test_symmetry_system_matches_loop_reference():
    rng = np.random.default_rng(3)
    prob = vtol_problem()
    cases = [
        prob.psi0 @ _nullspace(prob.mhat),
        rng.standard_normal((1, 3)),
        rng.standard_normal((5, 2)),
        rng.standard_normal((3, 7)),
        np.array([[0.0, -0.0], [-0.0, 1.5], [2.0, 0.0]]),  # signed zeros
    ]
    for H0 in cases:
        E, rhs = _symmetry_system(H0)
        E_ref, rhs_ref = _symmetry_system_loop(H0)
        # Every entry is written once, so the result is bit-identical.
        assert E.tobytes() == E_ref.tobytes()
        assert rhs.tobytes() == rhs_ref.tobytes()


def test_elimination_drops_directions_the_blocks_cannot_see():
    # Y = null_m Z: null_m spans the part of ker(mhat) that [psi0; psi1]
    # sees, so no direction of Z leaves both X and W unchanged.
    prob = vtol_problem()
    null_m = _elimination(prob)[0]
    full = _nullspace(prob.mhat)
    H = np.vstack([prob.psi0, prob.psi1])
    assert null_m.shape[1] == np.linalg.matrix_rank(H @ full) < full.shape[1]
    assert np.allclose(null_m.T @ null_m, np.eye(null_m.shape[1]), atol=1e-12)
    assert np.abs(prob.mhat @ null_m).max() < 1e-10 * np.abs(prob.mhat).max()
    s = np.linalg.svd(H @ null_m, compute_uv=False)
    assert s[-1] > 1e-8 * s[0]


def _blocks_loop(H0, H1, cols):
    """Reference assembly, one column at a time: the X, W and stability
    block stacks."""
    nu, q = H0.shape
    X, W, S = [], [], []
    for k in range(cols.shape[1]):
        Z = cols[:, k].reshape(q, nu)
        P = H0 @ Z
        Xk = 0.5 * (P + P.T)
        Wk = H1 @ Z
        X.append(Xk)
        W.append(Wk)
        S.append(np.block([[Xk, Wk], [Wk.T, Xk]]))
    return X, W, S


def test_batched_assembly_matches_loop_reference():
    rng = np.random.default_rng(6)
    prob = vtol_problem()
    null_m, z0, basis = _elimination(prob)
    # (nu, q, number of columns).  Without free parameters the images have
    # no columns and the blocks one (their constant term).
    cases = [(prob.psi0 @ null_m, prob.psi1 @ null_m, np.column_stack([z0, basis]))]
    for nu, q, k in ((1, 2, 3), (3, 5, 7), (2, 3, 0), (2, 3, 1)):
        H0, H1 = rng.standard_normal((2, nu, q))
        cases.append((H0, H1, rng.standard_normal((q * nu, k))))
    for H0, H1, cols in cases:
        X, W = _surfaces(H0, H1, cols)
        X_ref, W_ref, S_ref = _blocks_loop(H0, H1, cols)
        nu = H0.shape[0]
        assert X.shape == W.shape == (cols.shape[1], nu, nu)
        stacks = [(X, X_ref), (W, W_ref)]
        if cols.shape[1]:
            # The first column is the constant term of the block.
            b = _sdp_block(H0, H1, cols)
            stacks.append((np.concatenate([b.const[None], b.coeff]), S_ref))
        # Same products, same order of operations: byte-identical.
        for got, ref in stacks:
            assert len(got) == len(ref)
            assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))


# ---------------------------------------------------------------------------
# solve_feasibility_sdp


def test_vtol_design_feasible_and_contracts():
    prob = vtol_problem(seed=0)
    res = solve_feasibility_sdp(prob)
    assert res.status == "feasible"
    assert res.margin > 1e-6
    # Re-evaluate every constraint independently of the solver.
    X, Y = res.X, res.Y
    assert np.allclose(X, X.T, atol=1e-12)
    assert np.linalg.eigvalsh(X)[0] >= res.margin - 1e-9
    assert np.linalg.norm(prob.mhat @ Y) < 1e-7 * np.linalg.norm(Y)
    assert np.linalg.norm(prob.psi0 @ Y - X) < 1e-7 * np.linalg.norm(X)
    W = prob.psi1 @ Y
    schur = np.block([[X, W], [W.T, X]])
    assert np.linalg.eigvalsh(schur)[0] >= res.margin - 1e-9
    assert np.isclose(np.trace(X), prob.nu, rtol=1e-9)
    # Schur stability of the data-side closed loop.
    G = np.linalg.solve(X, Y.T).T
    rho = np.max(np.abs(np.linalg.eigvals(prob.psi1 @ G)))
    assert rho < 1.0


def test_zero_psi0_is_infeasible():
    rng = np.random.default_rng(0)
    prob = SdpProblem(
        u1=rng.standard_normal((1, 6)),
        psi0=np.zeros((3, 6)),
        psi1=rng.standard_normal((3, 6)),
        mhat=np.ones((1, 6)),
    )
    res = solve_feasibility_sdp(prob)
    assert res.status == "infeasible"
    assert res.margin == -np.inf


def test_wide_output_plant_infeasible():
    plant, exo = wide_output()
    im = build_internal_model(exo, p=plant.p)
    rng = np.random.default_rng(7)
    rec = collect_experiment(
        plant, exo, im, [0.2, -0.1], rng.standard_normal(3), np.zeros(im.dim),
        NormalInputPolicy(seed=7), T=20, ell=2,
    )
    data = assemble_data_matrices(rec)
    reg = build_M_jordan(analyze_exosystem(exo), ell=2, T=20).reduced()
    prob = assemble_sdp(data, reg)
    res = solve_feasibility_sdp(prob)
    assert res.status == "infeasible"
    assert res.margin <= 1e-6


def test_scale_invariance():
    base = vtol_problem(seed=1)
    res0 = solve_feasibility_sdp(base)
    for alpha in (0.1, 10.0):
        scaled = SdpProblem(
            u1=alpha * base.u1,
            psi0=alpha * base.psi0,
            psi1=alpha * base.psi1,
            mhat=base.mhat,
        )
        res = solve_feasibility_sdp(scaled)
        assert res.status == "feasible"
        assert np.abs(res.K - res0.K).max() < 1e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gain_invariant_under_plant_similarity(seed):
    # The design sees input-output data only, so a change of the plant's
    # state coordinates must not move the gain.
    K0 = solve_feasibility_sdp(vtol_problem(seed=seed)).K
    rng = np.random.default_rng(100 + seed)
    for _ in range(3):
        similarity = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        res = solve_feasibility_sdp(vtol_problem(seed=seed, similarity=similarity))
        assert res.status == "feasible"
        assert np.abs(res.K - K0).max() < 1e-8 * np.abs(K0).max()


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_gain_stable_under_data_round_off(seed):
    # Relative changes of 1e-14 in the data must not move the gain beyond
    # round-off: the returned point is a central point, not wherever the
    # predictor-corrector path happened to be (which moved K by up to 5e-8
    # relative under plant similarity).
    base = vtol_problem(seed=seed)
    K0 = solve_feasibility_sdp(base).K
    rng = np.random.default_rng(200 + seed)

    def jitter(M):
        return M * (1.0 + 1e-14 * rng.standard_normal(M.shape))

    for _ in range(3):
        prob = SdpProblem(
            u1=base.u1, psi0=jitter(base.psi0), psi1=jitter(base.psi1), mhat=base.mhat
        )
        res = solve_feasibility_sdp(prob)
        assert res.status == "feasible"
        assert np.abs(res.K - K0).max() < 1e-8 * np.abs(K0).max()


def test_gain_independent_of_gap_tol():
    # The solve stops at the certified feasible verdict, before gap_tol is
    # reached, so K does not depend on how far the path would have run.
    # Driving the margin to its optimum instead leaves X nearly singular
    # and moved K by 7.4e-3 (1.6e-4 relative) between these two tolerances.
    prob = vtol_problem(seed=1)
    loose = solve_feasibility_sdp(prob, SolverOptions(gap_tol=1e-8))
    tight = solve_feasibility_sdp(prob, SolverOptions(gap_tol=1e-12))
    for res in (loose, tight):
        assert res.status == "feasible"
        assert any("stop=verdict" in line for line in res.diagnostics)
        assert res.margin > DEFAULT_FEAS_TOL
        assert res.gap_bound < res.margin
    scale = np.abs(loose.K).max()
    assert np.abs(tight.K - loose.K).max() < 1e-8 * scale


def test_determinism():
    prob = vtol_problem(seed=2)
    r1 = solve_feasibility_sdp(prob)
    r2 = solve_feasibility_sdp(prob)
    assert r1.status == r2.status
    assert np.abs(r1.K - r2.K).max() < 1e-9
    assert r1.margin == r2.margin


def test_scalar_problem_feasible():
    res = solve_feasibility_sdp(scalar_problem())
    assert res.status == "feasible"
    assert res.K.shape == (1, 3)


@pytest.mark.parametrize("backend", ["cvxpy"])
def test_external_backend_agrees(backend):
    pytest.importorskip("cvxpy")
    prob = scalar_problem(T=8)
    res_ip = solve_feasibility_sdp(prob)
    res_ext = solve_feasibility_sdp(prob, SolverOptions(backend=backend))
    assert res_ext.status == res_ip.status == "feasible"
    # The interior-point solve stops at the certified verdict, so its margin
    # is a lower bound on the optimum that the external backend reaches,
    # and its gap bound caps how far below the optimum it may sit.
    slack = 1e-7
    assert res_ip.margin - slack <= res_ext.margin
    assert res_ext.margin <= res_ip.margin + res_ip.gap_bound + slack


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown solver backend"):
        solve_feasibility_sdp(scalar_problem(), SolverOptions(backend="nope"))


# ---------------------------------------------------------------------------
# extract_gain


def test_gain_shape_and_identity():
    prob = vtol_problem(seed=3)
    res = solve_feasibility_sdp(prob)
    assert res.K.shape == (1, 10)
    G = np.linalg.solve(res.X, res.Y.T).T
    stacked = np.vstack([prob.u1, prob.psi0, prob.mhat]) @ G
    target = np.vstack([res.K, np.eye(prob.nu), np.zeros((prob.nhat_w, prob.nu))])
    assert np.linalg.norm(stacked - target) < 1e-6


def test_extract_gain_rejects_singular_x():
    prob = scalar_problem()
    res = solve_feasibility_sdp(prob)
    bad_x = np.zeros_like(res.X)
    with pytest.raises(ValueError, match="singular"):
        extract_gain(prob, bad_x, res.Y)


# ---------------------------------------------------------------------------
# feasibility_precheck


def test_precheck_vtol_no_warnings():
    prob = vtol_problem(seed=0)
    report = feasibility_precheck(1, 4, prob.mhat, prob.psi0, n_truth=4)
    assert not report.provably_infeasible
    assert report.messages == []


def test_precheck_wide_output_warns():
    plant, exo = wide_output()
    im = build_internal_model(exo, p=plant.p)
    rec = collect_experiment(
        plant, exo, im, [0.2, -0.1], [0.5, -0.3, 0.2], np.zeros(im.dim),
        NormalInputPolicy(seed=0), T=20, ell=2,
    )
    data = assemble_data_matrices(rec)
    reg = build_M_jordan(analyze_exosystem(exo), ell=2, T=20).reduced()
    prob = assemble_sdp(data, reg)
    report = feasibility_precheck(plant.p, 2, prob.mhat, prob.psi0, n_truth=plant.n)
    assert report.provably_infeasible
    assert any("provably infeasible" in msg for msg in report.messages)


def test_precheck_empty_regressor_guidance_only():
    rng = np.random.default_rng(1)
    psi0 = rng.standard_normal((4, 3))  # too few columns
    report = feasibility_precheck(1, 1, np.zeros((0, 3)), psi0)
    assert not report.provably_infeasible
    assert any("experiment-length guidance" in msg for msg in report.messages)
