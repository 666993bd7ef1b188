import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg import sdp, synthesis
from ddreg.benchmarks import VTOL_ETA0, VTOL_W0, VTOL_X0, vtol, wide_output
from ddreg.cli import (
    RunConfig,
    _design_checks,
    build_regressor,
    collect_stage,
    paper_example_config,
    run_pipeline,
    synthesize_stage,
)
from ddreg.exosystem import (
    ExoMatrix,
    Regressor,
    build_internal_model,
    companion_regressor,
)
from ddreg.experiment import (
    assemble_data_matrices,
    collect_experiment,
    record_from_csv,
    record_to_csv,
)
from ddreg.plant import PlantTruth, observability_index
from ddreg.sdp import AffineBlock, maximize_margin
from ddreg.synthesis import (
    Quotient,
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
    window_residual,
)

from _scenarios import (
    paper_config,
    probe,
    random_plant,
    random_unit_circle_exo,
    sweep_config,
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
        probe(seed, T + 1, plant.m),
    )
    data = assemble_data_matrices(rec, ell)
    reg = companion_regressor(exo, ell=ell, T=T)
    return assemble_sdp(data, reg)


def paper_problem(seed, presentation="jordan"):
    """The design problem of ``ddreg paper-example`` at one probing seed,
    the exosystem presented as :func:`paper_config` says."""
    config = paper_config(seed, presentation)
    rec = collect_stage(config)
    return assemble_sdp(assemble_data_matrices(rec, config.ell), build_regressor(config))


def wide_problem(seed=7):
    # Over-instrumented plant (p * ell > n): the design is infeasible.
    plant, exo = wide_output()
    im = build_internal_model(exo, p=plant.p)
    rng = np.random.default_rng(seed)
    rec = collect_experiment(
        plant, exo, im, [0.2, -0.1], rng.standard_normal(3), np.zeros(im.dim),
        probe(seed, 21, plant.m),
    )
    data = assemble_data_matrices(rec, 2)
    reg = companion_regressor(exo, ell=2, T=20)
    return assemble_sdp(data, reg)


def scalar_problem(seed=0, T=6):
    # Scalar stable plant with a constant disturbance: the smallest feasible
    # design problem (nu = 3, one-row regressor).
    plant = PlantTruth(A=[[0.5]], B=[[1.0]], P=[[0.3]], C=[[1.0]], Q=[[0.2]])
    exo = ExoMatrix([[1.0]])
    im = build_internal_model(exo, p=1)
    rec = collect_experiment(
        plant, exo, im, [1.0], [0.5], [0.0], probe(seed, T + 1, plant.m)
    )
    data = assemble_data_matrices(rec, 1)
    reg = companion_regressor(exo, ell=1, T=T)
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


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("extra", ["zero", "copy", "sum"])
def test_dependent_regressor_row_changes_no_design(seed, extra):
    # The design takes the regressor as built, and only its nullspace
    # enters: a dependent row (zero, a copy of row 0, or row 0 + row 1)
    # leaves the verdict, the solve and the gain where they were.
    config = paper_config(seed, "jordan")
    data = assemble_data_matrices(collect_stage(config), config.ell)
    reg = build_regressor(config)
    row = {
        "zero": np.zeros(reg.matrix.shape[1]),
        "copy": reg.matrix[0],
        "sum": reg.matrix[0] + reg.matrix[1],
    }[extra]
    padded = assemble_sdp(data, Regressor(np.vstack([reg.matrix, row])))
    assert padded.nhat_w == 3
    base = solve_feasibility_sdp(assemble_sdp(data, reg))
    res = solve_feasibility_sdp(padded)
    assert (res.status, res.stop, res.iterations) == (
        base.status, base.stop, base.iterations
    )
    assert base.status == "feasible"
    assert abs(res.margin - base.margin) <= 1e-9 * abs(base.margin)
    assert np.linalg.norm(res.K - base.K) <= 1e-8 * np.linalg.norm(base.K)


# ---------------------------------------------------------------------------
# equality elimination


def test_elimination_drops_directions_the_blocks_cannot_see():
    # Y = null_m Z: null_m spans the part of ker(mhat) that [psi0; psi1]
    # sees, so no direction of Z leaves both X and W unchanged.
    prob = vtol_problem()
    null_m = _elimination(prob).null_m
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
        (paper_problem(0), True),
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
    quotient = _elimination(prob)
    null_m, s = quotient.null_m, quotient.s
    pinv, kernel, rank = quotient.pinv, quotient.kernel, quotient.rank
    H0 = prob.psi0 @ null_m
    nu, q = H0.shape
    assert rank == q - kernel.shape[1]
    assert np.abs(kernel.T @ kernel - np.eye(q - rank)).max() <= 1e-12
    assert np.abs(H0 @ kernel).max() <= 1e-12 * s[0]
    assert np.abs(kernel.T @ pinv).max() <= 1e-12 * np.abs(pinv).max()
    assert np.allclose(s, np.linalg.svd(H0, compute_uv=False), rtol=1e-12, atol=0)
    # Gamma = H1 H0^+ and Lambda = H1 N, each product formed once, in this
    # order.
    H1 = prob.psi1 @ null_m
    assert np.array_equal(quotient.gamma, H1 @ pinv)
    assert np.array_equal(quotient.lam, H1 @ kernel)
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
    # The block's off-diagonal Gamma X + Lambda R is psi1 Y at the Y of the
    # design map.
    basis = _sym_basis(nu)
    block = _sdp_block(quotient, basis)
    v = rng.standard_normal(block.nvar)
    W = prob.psi1 @ _design_z(v, quotient, basis)[1]
    assert np.abs(block.value(v)[:nu, nu:] - W).max() <= 1e-12 * np.abs(W).max()


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


@pytest.mark.parametrize("presentation", ["jordan", "krylov"])
def test_design_invariant_under_nullspace_basis(presentation, monkeypatch):
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
        prob = paper_problem(seed, presentation)
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
    elim = _elimination(prob)
    cases = [(prob.psi1 @ elim.null_m, elim.pinv, elim.kernel)]
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
        # null_m = I, so Y = Z; the assembly does not read s.
        quotient = Quotient(np.eye(q), None, pinv, kernel, H1 @ pinv, H1 @ kernel)
        b = _sdp_block(quotient, basis)
        ref = _design_block_loop(H1, pinv, kernel)
        assert b.nvar == nu * (nu + 1) // 2 - 1 + (q - nu) * nu
        got = np.concatenate([b.const[None], b.coeff])
        # Gamma X + Lambda R associates the products differently.
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got, got.transpose(0, 2, 1))
        # _design_z maps the parameters back to the Z whose image is W.
        v = rng.standard_normal(b.nvar)
        W = H1 @ _design_z(v, quotient, basis)[1]
        assert np.abs(b.value(v)[:nu, nu:] - W).max() <= 1e-12 * np.abs(W).max()


def test_sym_basis_is_built_once_and_read_only():
    # One shared read-only array per nu; the design block and the design map
    # read it exactly as they read a freshly built one.
    prob = vtol_problem()
    elim = _elimination(prob)
    basis = _sym_basis(prob.nu)
    assert _sym_basis(prob.nu) is basis and not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 2.0
    fresh = _sym_basis.__wrapped__(prob.nu)
    assert fresh is not basis and np.array_equal(fresh, basis)
    cached, built = _sdp_block(elim, basis), _sdp_block(elim, fresh)
    assert cached.const.tobytes() == built.const.tobytes()
    assert cached.coeff.tobytes() == built.coeff.tobytes()
    v = np.random.default_rng(7).standard_normal(cached.nvar)
    for a, b in zip(_design_z(v, elim, basis), _design_z(v, elim, fresh)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("presentation", ["jordan", "krylov"])
def test_gain_invariant_under_column_scaling(presentation):
    # Scaling the data columns, Y -> D^{-1} Y, is an exact change of
    # variables: the set of blocks and the map to K do not move.  Since the
    # solve starts at a point the set defines, neither does K.
    rng = np.random.default_rng(12)
    for seed in range(6):
        prob = paper_problem(seed, presentation)
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_returned_x_is_the_certified_x(seed, monkeypatch):
    # X is the program's own variable at the solver's point, not one
    # re-derived from Y, and equality_residual measures |psi0 Y - X| there.
    solved, solve = [], synthesis.maximize_margin

    def recording(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(synthesis, "maximize_margin", recording)
    prob = paper_problem(seed)
    res = solve_feasibility_sdp(prob)
    assert res.status == "feasible" and len(solved) == 1
    basis = _sym_basis(prob.nu)
    nx = len(basis) - 1
    X = basis[0] + np.tensordot(solved[0].v[:nx], basis[1:], axes=1)
    assert np.array_equal(res.X, X) and np.array_equal(X, X.T)
    assert res.equality_residual == np.linalg.norm(prob.psi0 @ res.Y - X)


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
    # With feas_tol the solve ends at its certificate and never reads
    # gap_tol, so the point the gain is read off does not depend on it.  A
    # stop at gap_tol 1e-4 would end this solve after 6 iterations, at a
    # margin of 2.9e-7 below feas_tol and with no certificate.
    prob = paper_problem(0)
    block = _sdp_block(_elimination(prob), _sym_basis(prob.nu))
    base = maximize_margin([block], feas_tol=1e-6)
    for gap_tol in (1e-4, 1e-8, 1e-12):
        res = maximize_margin([block], gap_tol=gap_tol, feas_tol=1e-6)
        assert (res.stop, res.newton_steps) == ("verdict", 11)
        assert np.array_equal(res.v, base.v) and res.margin == base.margin


# A gap_tol=1e-12 solve brackets the optimum of the paper block (probing
# seed 0) in [1.2753059e-5, 1.2754319e-5].
@pytest.mark.parametrize(
    "feas_tol, statuses",
    [(1.2753e-5, ("feasible",)), (1.2753059e-5, ("feasible", "numerical_failure"))],
    ids=["below-optimum", "at-optimum"],
)
def test_threshold_near_the_optimum_is_not_called_infeasible(feas_tol, statuses):
    # Both thresholds lie below the optimum, so no dual bound lies at or
    # below them: an infeasible status would have no certificate.
    res = solve_feasibility_sdp(paper_problem(0), feas_tol=feas_tol)
    assert res.status in statuses
    if res.status == "feasible":
        assert res.stop == "verdict" and res.margin > feas_tol


def test_failed_solve_keeps_its_solver_state(monkeypatch):
    # A solve cut short by its iteration budget still reports where it
    # stopped, with its certificate; one that raises reports the error.
    prob = vtol_problem(seed=0)
    monkeypatch.setattr(sdp, "MAX_NEWTON", 2)
    res = solve_feasibility_sdp(prob)
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
    rec = collect_stage(config)
    _, _, prob, pre, res = synthesize_stage(config, rec)
    assert _svd_split(prob.mhat)[2].shape[1] == prob.nhat_w
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
    # 17 data columns against nu = 10 rows of psi0, 1 of u1 and 2 of the
    # regressor, plus one.
    report = feasibility_precheck(vtol_problem(seed=0))
    assert report == {"columns": 17, "columns_needed": 14}


def test_precheck_empty_regressor_guidance_only():
    rng = np.random.default_rng(1)
    psi0 = rng.standard_normal((4, 3))  # too few columns
    prob = SdpProblem(
        u1=np.zeros((1, 3)), psi0=psi0, psi1=np.zeros((4, 3)), mhat=np.zeros((0, 3))
    )
    assert feasibility_precheck(prob) == {"columns": 3, "columns_needed": 6}


def test_precheck_counts_the_regressor_degree_on_a_short_record():
    # ell = T = 4 leaves one data column against the regressor's d = 2
    # rows, which are all kept; the record still needs nu + m + d + 1 = 14
    # columns, and the rank test settles the verdict with no solve.
    raw = paper_example_config(0).effective_dict()
    config = RunConfig.from_dict({**raw, "T": 4})
    _, reg, prob, pre, result = synthesize_stage(config, collect_stage(config))
    assert reg.selection == [0, 1] and prob.nhat_w == 2 and prob.nu == 10
    assert pre == {"columns": 1, "columns_needed": 14}
    assert result.status == "infeasible" and result.stop is None


# ---------------------------------------------------------------------------
# window_residual


# The first twelve sweep plants with observability index >= 2.
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_window_residual_decides_the_observability_index(seed, tmp_path):
    # One record, designed from plant-free configs (a plant config rejects
    # ell below the index): the row passes at ell = index and fails at
    # index - 1, whatever the verdict, with more columns than the stack's
    # rank (NaN, which fails, would mean no power).
    config = sweep_config(seed)
    index = config.plant.obs_index
    assert index >= 2
    path = tmp_path / "record.csv"
    record_to_csv(collect_stage(config), path)
    passes = []
    for ell in (index, index - 1):
        blind = RunConfig(exo_s=config.exo.S, ell=ell, T=config.T, seed=seed)
        rec = record_from_csv(path, blind.exo, blind.T)
        result = synthesize_stage(blind, rec)[-1]
        rows = {c["name"]: c for c in _design_checks(blind, result)}
        value = rows["window_residual"]["value"]
        assert value == result.window_residual and not np.isnan(value)
        passes.append(rows["window_residual"]["pass"])
    assert passes == [True, False]


@pytest.mark.parametrize("T", [10, 15, 16])
def test_window_residual_cannot_decide_without_spare_columns(T):
    # At ell = 4, T <= 16 leaves N = T - 3 <= 13 columns against the 13 rows
    # of [psi0; u1; mhat] (nu = 10, m = 1, d = 2): every row of psi1 lies in
    # the stack's row space, so the test has no power, and the precheck asks
    # for a longer run (T = 15 and 16 have at least nu + d columns).
    prob = vtol_problem(T=T)
    assert prob.n_cols == T - 3 and np.isnan(window_residual(prob))
    assert feasibility_precheck(prob) == {"columns": T - 3, "columns_needed": 14}
    config = RunConfig.from_dict({**paper_example_config(0).effective_dict(), "T": T})
    result = synthesize_stage(config, collect_stage(config))[-1]
    rows = {c["name"]: c for c in _design_checks(config, result)}
    assert np.isnan(result.window_residual) and not rows["window_residual"]["pass"]


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
