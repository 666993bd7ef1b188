import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg import synthesis
from ddreg.benchmarks import VTOL_ETA0, VTOL_W0, VTOL_X0, vtol, wide_output
from ddreg.cli import (
    RunConfig,
    build_regressor,
    collect_stage,
    paper_example_config,
    run_pipeline,
    synthesize_stage,
)
from ddreg.config import DEFAULTS
from ddreg.exo_factorization import JordanSpec, analyze_exosystem, build_M_jordan
from ddreg.experiment import NormalInputPolicy, assemble_data_matrices, collect_experiment
from ddreg.internal_model import build_internal_model
from ddreg.numerics import rank_with_tol
from ddreg.plant import ExoMatrix, PlantTruth, observability_index
from ddreg.sdp import AffineBlock
from ddreg.synthesis import (
    SdpProblem,
    _design_z,
    _elimination,
    _sdp_block,
    _svd_split,
    _sym_basis,
    assemble_sdp,
    extract_gain,
    feasibility_precheck,
    solve_feasibility_sdp,
)

from _scenarios import random_plant, random_unit_circle_exo


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


def paper_problem(seed, factorization):
    """The design problem of ``ddreg paper-example`` at one probing seed."""
    config = paper_example_config(seed, factorization)
    rec, _ = collect_stage(config)
    return assemble_sdp(assemble_data_matrices(rec), build_regressor(config))


def wide_problem(seed=7):
    # Over-instrumented plant (p * ell > n): the design is infeasible.
    plant, exo = wide_output()
    im = build_internal_model(exo, p=plant.p)
    rng = np.random.default_rng(seed)
    rec = collect_experiment(
        plant, exo, im, [0.2, -0.1], rng.standard_normal(3), np.zeros(im.dim),
        NormalInputPolicy(seed=seed), T=20, ell=2,
    )
    data = assemble_data_matrices(rec)
    reg = build_M_jordan(analyze_exosystem(exo), ell=2, T=20).reduced()
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


def test_elimination_drops_directions_the_blocks_cannot_see():
    # Y = null_m Z: null_m spans the part of ker(mhat) that [psi0; psi1]
    # sees, so no direction of Z leaves both X and W unchanged.
    prob = vtol_problem()
    null_m = _elimination(prob)[0]
    full = _svd_split(prob.mhat)[3]
    H = np.vstack([prob.psi0, prob.psi1])
    assert null_m.shape[1] == np.linalg.matrix_rank(H @ full) < full.shape[1]
    assert np.allclose(null_m.T @ null_m, np.eye(null_m.shape[1]), atol=1e-12)
    assert np.abs(prob.mhat @ null_m).max() < 1e-10 * np.abs(prob.mhat).max()
    s = np.linalg.svd(H @ null_m, compute_uv=False)
    assert s[-1] > 1e-8 * s[0]


@pytest.mark.parametrize(
    "prob, full_rank",
    [
        (paper_problem(0, "jordan"), True),
        (paper_problem(1, "krylov"), True),
        (wide_problem(7), False),
        (wide_problem(8), False),
    ],
    ids=["paper-jordan", "paper-krylov", "wide-7", "wide-8"],
)
def test_elimination_contract(prob, full_rank):
    # kernel is an orthonormal basis of ker H0 and pinv is H0^+, so rank H0
    # is q minus the kernel's columns.  With full row rank, Z = H0^+ X + N R
    # gives H0 Z = X for every symmetric X and every R.
    null_m, s, pinv, kernel = _elimination(prob)
    H0 = prob.psi0 @ null_m
    nu, q = H0.shape
    rank = q - kernel.shape[1]
    assert np.abs(kernel.T @ kernel - np.eye(q - rank)).max() <= 1e-12
    assert np.abs(H0 @ kernel).max() <= 1e-12 * s[0]
    assert np.abs(kernel.T @ pinv).max() <= 1e-12 * np.abs(pinv).max()
    assert np.allclose(s, np.linalg.svd(H0, compute_uv=False), rtol=1e-12, atol=0)
    if not full_rank:
        # The wide-output plant: X = psi0 Y is singular for every Y, with a
        # wide gap between round-off and the next singular value.
        assert rank == nu - 1
        assert s[nu - 1] < 1e-14 * s[0] and s[nu - 2] > 1e-4 * s[0]
        return
    assert rank == nu
    rng = np.random.default_rng(5)
    X = rng.standard_normal((nu, nu))
    X = X + X.T
    R = rng.standard_normal((q - nu, nu))
    assert np.abs(H0 @ (pinv @ X + kernel @ R) - X).max() <= 1e-10 * np.abs(X).max()


def test_wide_output_rank_branch_skips_the_solve(monkeypatch):
    # rank H0 < nu settles the verdict: no interior-point solve runs.
    def no_solve(*args, **kwargs):
        raise AssertionError("maximize_margin called")

    monkeypatch.setattr(synthesis, "maximize_margin", no_solve)
    for seed in (7, 8):
        res = solve_feasibility_sdp(wide_problem(seed))
        assert res.status == "infeasible"
        assert res.margin == -np.inf and res.gap_bound is None
        assert res.rank == 9 < wide_problem(seed).nu == 10
        assert res.stop is None and res.iterations == 0 and res.free_params is None
        # The cut falls between a clear and a round-off singular value.
        assert res.sigma_kept > 1e-4 and res.sigma_dropped < 1e-14


@pytest.mark.parametrize("factorization", ["jordan", "krylov"])
def test_design_invariant_under_nullspace_basis(factorization, monkeypatch):
    # The HKM direction and the start point do not change under a change of
    # basis of the free variables, so rotating the (X, R) basis of the
    # design block moves the returned central point by round-off only.
    # This is what makes any basis of the trace-zero symmetric X and any
    # orthonormal N a valid choice.
    rng = np.random.default_rng(11)
    sdp_block, solve = synthesis._sdp_block, synthesis.maximize_margin
    solves, Q = [], []

    def rotated_block(*args):
        # F'(w) = F(Q w): the coefficients mix through Q.
        b = sdp_block(*args)
        Q.append(np.linalg.qr(rng.standard_normal((b.nvar, b.nvar)))[0])
        return AffineBlock(b.const, np.tensordot(Q[-1].T, b.coeff, axes=1))

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    def rotated_recording(*args, **kwargs):
        res = recording(*args, **kwargs)
        return dataclasses.replace(res, v=Q[-1] @ res.v)

    for seed in range(3):
        prob = paper_problem(seed, factorization)
        monkeypatch.setattr(synthesis, "maximize_margin", recording)
        base = solve_feasibility_sdp(prob)
        monkeypatch.setattr(synthesis, "_sdp_block", rotated_block)
        monkeypatch.setattr(synthesis, "maximize_margin", rotated_recording)
        rotated = solve_feasibility_sdp(prob)
        monkeypatch.setattr(synthesis, "_sdp_block", sdp_block)
        base_solve, rotated_solve = solves[-2:]
        assert base.status == rotated.status == "feasible"
        assert rotated_solve.stop == base_solve.stop == "verdict"
        assert rotated_solve.newton_steps == base_solve.newton_steps
        assert abs(rotated.margin - base.margin) <= 1e-9 * abs(base.margin)
        assert np.linalg.norm(rotated.K - base.K) <= 1e-8 * np.linalg.norm(base.K)


def _design_block_loop(H1, pinv, kernel):
    """Reference assembly, one parameter at a time: the (X, R) pairs of the
    constant term and of every coefficient, each mapped to
    ``Z = H0^+ X + N R`` and to the block ``[[X, H1 Z], [(H1 Z)^T, X]]``."""
    nu, r = pinv.shape[1], kernel.shape[1]
    pairs = [(np.eye(nu), np.zeros((r, nu)))]
    for i in range(nu - 1):
        X = np.zeros((nu, nu))
        X[i, i], X[-1, -1] = 1.0, -1.0
        pairs.append((X, np.zeros((r, nu))))
    for i in range(nu):
        for j in range(i + 1, nu):
            X = np.zeros((nu, nu))
            X[i, j] = X[j, i] = 1.0
            pairs.append((X, np.zeros((r, nu))))
    for a in range(r):
        for b in range(nu):
            R = np.zeros((r, nu))
            R[a, b] = 1.0
            pairs.append((np.zeros((nu, nu)), R))
    blocks = []
    for X, R in pairs:
        W = H1 @ (pinv @ X + kernel @ R)
        blocks.append(np.block([[X, W], [W.T, X]]))
    return np.array(blocks)


def test_batched_assembly_matches_loop_reference():
    rng = np.random.default_rng(6)
    prob = vtol_problem()
    null_m, _, pinv, kernel = _elimination(prob)
    cases = [(prob.psi1 @ null_m, pinv, kernel)]
    # (nu, q): one row, no R (q = nu), and wider ones.
    for nu, q in ((1, 2), (2, 2), (3, 5), (4, 6)):
        cases.append(
            (
                rng.standard_normal((nu, q)),
                rng.standard_normal((q, nu)),
                rng.standard_normal((q, q - nu)),
            )
        )
    for H1, pinv, kernel in cases:
        nu, q = pinv.shape[1], pinv.shape[0]
        basis = _sym_basis(nu)
        b = _sdp_block(H1, pinv, kernel, basis)
        ref = _design_block_loop(H1, pinv, kernel)
        assert b.nvar == nu * (nu + 1) // 2 - 1 + (q - nu) * nu
        got = np.concatenate([b.const[None], b.coeff])
        # Gamma X + Lambda R associates the products differently.
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got, got.transpose(0, 2, 1))
        # _design_z maps the parameters back to the Z whose image is W.
        v = rng.standard_normal(b.nvar)
        W = H1 @ _design_z(v, pinv, kernel, basis)
        assert np.abs(b.value(v)[:nu, nu:] - W).max() <= 1e-12 * np.abs(W).max()


@pytest.mark.parametrize("factorization", ["jordan", "krylov"])
def test_gain_invariant_under_column_scaling(factorization):
    # Scaling the data columns, Y -> D^{-1} Y, is an exact change of
    # variables: the set of blocks and the map to K do not move.  Since the
    # solve starts at a point the set defines, neither does K.
    rng = np.random.default_rng(12)
    for seed in range(6):
        prob = paper_problem(seed, factorization)
        base = solve_feasibility_sdp(prob)
        d = np.exp(rng.uniform(-2.0, 2.0, prob.n_cols))
        scaled = SdpProblem(
            u1=prob.u1 * d, psi0=prob.psi0 * d, psi1=prob.psi1 * d, mhat=prob.mhat * d
        )
        res = solve_feasibility_sdp(scaled)
        assert base.status == res.status == "feasible"
        assert abs(res.margin - base.margin) <= 1e-9 * abs(base.margin)
        assert np.linalg.norm(res.K - base.K) <= 1e-8 * np.linalg.norm(base.K)


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
    res = solve_feasibility_sdp(wide_problem())
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
    loose = solve_feasibility_sdp(prob, gap_tol=1e-8)
    tight = solve_feasibility_sdp(prob, gap_tol=1e-12)
    for res in (loose, tight):
        assert res.status == "feasible"
        assert res.stop == "verdict"
        assert res.margin > DEFAULTS["tolerances"]["feas_tol"]
        assert res.gap_bound < res.margin
    scale = np.abs(loose.K).max()
    assert np.abs(tight.K - loose.K).max() < 1e-8 * scale


def test_failed_solve_keeps_its_solver_state(monkeypatch):
    # A solve cut short by its iteration budget still reports where it
    # stopped, with its certificate; one that raises reports the error.
    prob = vtol_problem(seed=0)
    res = solve_feasibility_sdp(prob, max_newton=2)
    assert res.status == "numerical_failure"
    assert (res.stop, res.iterations) == ("newton_budget", 2)
    assert res.gap_bound is not None and res.gap_bound > 0
    assert res.free_params == 64 and res.rank == prob.nu

    def raising(*args, **kwargs):
        raise RuntimeError("non-finite Newton system")

    monkeypatch.setattr(synthesis, "maximize_margin", raising)
    res = solve_feasibility_sdp(prob)
    assert res.status == "numerical_failure" and np.isnan(res.margin)
    assert res.stop is None and res.gap_bound is None
    assert res.to_dict()["error"] == "non-finite Newton system"


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


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 2),
    p=st.integers(2, 3),
    n_w=st.integers(1, 3),
)
def test_wide_window_is_infeasible(seed, n, m, p, n_w):
    # p * ell > n with a full-row-rank regressor: the output window carries
    # more rows than the plant has states, so X = psi0 Y is singular for
    # every Y and the design is infeasible.
    rng = np.random.default_rng(seed)
    plant = random_plant(rng, n, m, p, n_w)
    exo = random_unit_circle_exo(rng, n_w)
    ell = max(observability_index(plant.A, plant.C), n // p + 1)
    config = RunConfig(
        exo_s=exo.S,
        ell=ell,
        T=ell + 20,
        seed=seed % 1000,
        plant=plant,
        w0=rng.standard_normal(n_w),
        x0=rng.standard_normal(n),
    )
    rec, _ = collect_stage(config)
    _, _, prob, pre, res = synthesize_stage(config, rec)
    assert rank_with_tol(prob.mhat) == prob.nhat_w
    # The designer-side rank test settles it: psi0 null_m is short of rank
    # nu, so no solve runs.
    assert res.rank < prob.nu and res.stop is None
    assert res.status == "infeasible"


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
    # 17 data columns against nu = 10 rows of psi0 and 2 of the regressor.
    report = feasibility_precheck(vtol_problem(seed=0))
    assert report == {"columns": 17, "columns_needed": 12}


def test_precheck_empty_regressor_guidance_only():
    rng = np.random.default_rng(1)
    psi0 = rng.standard_normal((4, 3))  # too few columns
    prob = SdpProblem(
        u1=np.zeros((1, 3)), psi0=psi0, psi1=np.zeros((4, 3)), mhat=np.zeros((0, 3))
    )
    assert feasibility_precheck(prob) == {"columns": 3, "columns_needed": 4}


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 2),
    p=st.integers(1, 2),
    n_w=st.integers(1, 3),
)
def test_feasible_design_stabilizes_and_regulates(seed, n, m, p, n_w):
    # A feasible verdict certifies a Schur closed loop that solves the
    # regulator equations.  It does not certify a decay rate: a feasible
    # design may still miss regulation_tail or zero_exo_decay in the
    # default 300 steps (rho up to 0.989), so those rows are not asserted.
    rng = np.random.default_rng(seed)
    plant = random_plant(rng, n, m, p, n_w)
    exo = random_unit_circle_exo(rng, n_w)
    ell = observability_index(plant.A, plant.C)
    nu = (m + p) * ell + p * len(exo.coeffs)
    config = RunConfig(
        exo_s=exo.S,
        ell=ell,
        T=ell + nu + n_w * ell + 10,
        seed=seed % 1000,
        plant=plant,
        w0=rng.standard_normal(n_w),
        x0=rng.standard_normal(n),
    )
    report = run_pipeline(config)
    if report["synthesis"]["status"] != "feasible":
        return
    rows = {c["name"]: c for c in report["checks"]}
    assert rows["stability_radius"]["value"] < 1.0
    assert rows["regulator_identity"]["pass"] and rows["sylvester_residual"]["pass"]
