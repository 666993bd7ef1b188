import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg import sdp, synthesis
from ddreg.cli import paper_example_config, run_pipeline
from ddreg.sdp import AffineBlock, _col_scale, _schur_complement, maximize_margin


def test_fixed_block_margin_is_min_eigenvalue():
    # No free variables: the optimal margin is just the smallest eigenvalue.
    A = np.diag([3.0, 1.0, 0.5])
    res = maximize_margin([AffineBlock(const=A, coeff=np.zeros((0, 3, 3)))])
    assert res.converged
    assert res.margin == pytest.approx(0.5, abs=1e-7)


def test_two_fixed_blocks_take_worst():
    b1 = AffineBlock(const=np.diag([2.0, 1.0]), coeff=np.zeros((0, 2, 2)))
    b2 = AffineBlock(const=np.diag([-0.25, 4.0]), coeff=np.zeros((0, 2, 2)))
    res = maximize_margin([b1, b2])
    assert res.margin == pytest.approx(-0.25, abs=1e-7)


def test_scalar_balancing():
    # Blocks [1 + v] and [1 - v]: optimum v = 0, margin 1.
    coeff_plus = np.array([[[1.0]]])
    coeff_minus = np.array([[[-1.0]]])
    b1 = AffineBlock(const=np.array([[1.0]]), coeff=coeff_plus)
    b2 = AffineBlock(const=np.array([[1.0]]), coeff=coeff_minus)
    res = maximize_margin([b1, b2])
    assert res.margin == pytest.approx(1.0, abs=1e-7)
    assert abs(res.v[0]) < 1e-6


def _tradeoff_block():
    # diag(1 + v, 2 - 3v): optimum v = 1/4, margin 5/4.
    coeff = np.zeros((1, 2, 2))
    coeff[0, 0, 0] = 1.0
    coeff[0, 1, 1] = -3.0
    return AffineBlock(const=np.diag([1.0, 2.0]), coeff=coeff)


def test_diagonal_tradeoff_against_grid_oracle():
    # Maximize the min eigenvalue of diag(1 + v, 2 - 3v) over v.  The oracle
    # scans a fine grid; the analytic optimum is v = 1/4 with margin 5/4.
    # Without feas_tol the path runs until the gap bound is below gap_tol.
    res = maximize_margin([_tradeoff_block()], gap_tol=1e-8)
    assert res.stop == "gap_tol"
    assert res.gap_bound <= 1e-8
    grid = np.linspace(-2.0, 2.0, 40001)
    vals = np.minimum(1.0 + grid, 2.0 - 3.0 * grid)
    v_star = grid[np.argmax(vals)]
    assert res.margin == pytest.approx(5.0 / 4.0, abs=1e-6)
    assert res.margin == pytest.approx(np.max(vals), abs=1e-4)
    assert res.v[0] == pytest.approx(v_star, abs=1e-3)


def test_verdict_stop_certifies_margin_above_threshold():
    block = _tradeoff_block()
    res = maximize_margin([block], feas_tol=1e-6)
    assert res.converged
    assert res.stop == "verdict"
    assert res.margin > 1e-6
    assert res.gap_bound < res.margin
    # The certificate brackets the optimum, which is below twice the margin.
    assert res.margin <= 5.0 / 4.0 <= res.margin + res.gap_bound
    assert res.margin == pytest.approx(np.linalg.eigvalsh(block.value(res.v))[0])
    assert f"gap_bound={res.gap_bound:.1e}" in res.log[-1]
    assert res.log[-1].endswith("stop=verdict")
    # A threshold the optimum never clears gets the infeasible verdict: a
    # dual bound at or below the threshold.
    res_high = maximize_margin([block], feas_tol=2.0)
    assert res_high.stop == "verdict"
    assert res_high.margin <= 5.0 / 4.0 <= res_high.margin + res_high.gap_bound <= 2.0


def test_negative_optimum_reported():
    # Contradictory blocks [v - 1] and [-v - 1]: best margin is -1 at v = 0.
    b1 = AffineBlock(const=np.array([[-1.0]]), coeff=np.array([[[1.0]]]))
    b2 = AffineBlock(const=np.array([[-1.0]]), coeff=np.array([[[-1.0]]]))
    res = maximize_margin([b1, b2])
    assert res.margin == pytest.approx(-1.0, abs=1e-6)
    # With feas_tol the solve stops at the infeasible certificate: a dual
    # bound on the optimum at or below the threshold.
    feas_tol = 1e-6
    res_tol = maximize_margin([b1, b2], feas_tol=feas_tol)
    assert res_tol.stop == "verdict"
    assert res_tol.margin <= -1.0 <= res_tol.margin + res_tol.gap_bound
    assert res_tol.margin + res_tol.gap_bound <= feas_tol


def test_random_problem_margin_is_locally_optimal():
    rng = np.random.default_rng(0)
    nb, nv = 4, 3
    mats = []
    for _ in range(nv):
        W = rng.standard_normal((nb, nb))
        mats.append(0.5 * (W + W.T))
    const = np.eye(nb) * 2.0
    block = AffineBlock(const=const, coeff=np.array(mats))
    res = maximize_margin([block])
    assert res.converged
    base = np.linalg.eigvalsh(block.value(res.v))[0]
    assert base == pytest.approx(res.margin, abs=1e-9)
    # No nearby point does meaningfully better.
    for _ in range(200):
        trial = res.v + 1e-3 * rng.standard_normal(nv)
        assert np.linalg.eigvalsh(block.value(trial))[0] <= res.margin + 1e-6


def test_determinism():
    rng = np.random.default_rng(1)
    coeff = np.array([0.5 * (W + W.T) for W in rng.standard_normal((2, 3, 3))])
    block = AffineBlock(const=np.eye(3), coeff=coeff)
    r1 = maximize_margin([block])
    r2 = maximize_margin([block])
    assert r1.margin == r2.margin
    assert np.array_equal(r1.v, r2.v)


def test_zero_variable_blocks_solve():
    blocks = [
        AffineBlock(const=np.diag([2.0, 0.75, 3.0]), coeff=np.zeros((0, 3, 3))),
        AffineBlock(
            const=np.array([[1.0, 0.5], [0.5, 1.0]]), coeff=np.zeros((0, 2, 2))
        ),
    ]
    res = maximize_margin(blocks, feas_tol=1e-6)
    assert res.converged and res.v.shape == (0,)
    assert res.margin == pytest.approx(0.5, abs=1e-12)


def test_unbounded_margin_has_no_certificate():
    # The block of test_determinism, I + v1 C1 + v2 C2 with C1 > 0: the
    # margin grows without bound along v1, so no dual point exists and no
    # gap bound may be claimed.
    rng = np.random.default_rng(1)
    coeff = np.array([0.5 * (W + W.T) for W in rng.standard_normal((2, 3, 3))])
    assert np.linalg.eigvalsh(coeff[0])[0] > 0
    block = AffineBlock(const=np.eye(3), coeff=coeff)
    for feas_tol in (None, 1e-6):
        res = maximize_margin([block], feas_tol=feas_tol)
        assert res.stop == "unbounded"
        assert res.gap_bound == np.inf
        assert np.isfinite(res.margin) and np.isfinite(res.v).all()
        assert res.margin == pytest.approx(np.linalg.eigvalsh(block.value(res.v))[0])
        assert res.log[-1].endswith("stop=unbounded")


def test_degenerate_dual_stalls_with_certified_margin():
    # Blocks [c] and [d + e v] with c < d: the optimum c is reached for every
    # v >= (c - d) / e, so the only dual point, Z = diag(1, 0), is singular
    # and no Cholesky test can certify it.  The iterates reach round-off and
    # the solve ends without a gap bound, keeping a certified margin.
    blocks = [
        AffineBlock(const=np.array([[0.125]]), coeff=np.zeros((1, 1, 1))),
        AffineBlock(const=np.array([[0.625]]), coeff=np.array([[[0.1]]])),
    ]
    res = maximize_margin(blocks)
    assert res.stop == "stalled" and not res.converged
    assert res.gap_bound == np.inf
    assert res.margin <= 0.125
    assert res.margin == pytest.approx(0.125, abs=1e-9)
    assert res.margin == min(np.linalg.eigvalsh(b.value(res.v))[0] for b in blocks)


def test_col_scale_matches_loop_reference():
    rng = np.random.default_rng(2)
    for sizes, nv in (((3,), 0), ((1,), 1), ((4, 2), 3), ((20, 10), 64)):
        blocks = [
            AffineBlock(const=np.eye(nb), coeff=rng.standard_normal((nv, nb, nb)))
            for nb in sizes
        ]
        blocks[0].coeff[nv // 2 :] *= 1e3  # variables on different scales
        if nv > 1:
            for b in blocks:
                b.coeff[0] = 0.0  # a variable no block depends on
        ref = np.ones(nv)
        for j in range(nv):
            norm_j = max(np.linalg.norm(b.coeff[j]) for b in blocks)
            if norm_j > 0:
                ref[j] = 1.0 / norm_j
        # Sums run in another order than np.linalg.norm's: a few ulps apart.
        np.testing.assert_allclose(_col_scale(blocks), ref, rtol=8 * np.finfo(float).eps, atol=0)


def test_non_finite_newton_system_raises(monkeypatch):
    def poisoned(ext, s_invs, z_chols):
        M = _schur_complement(ext, s_invs, z_chols)
        M[0, 0] = np.nan
        return M

    monkeypatch.setattr(sdp, "_schur_complement", poisoned)
    with pytest.raises(RuntimeError, match="non-finite Newton system"):
        maximize_margin([_tradeoff_block()])


def _random_spd(rng, nb):
    W = rng.standard_normal((nb, nb))
    return W @ W.T + nb * np.eye(nb)


def test_schur_complement_matches_trace_reference():
    rng = np.random.default_rng(4)
    for sizes, nv in (((1,), 1), ((3, 6), 4), ((10, 20), 64)):
        ext = [
            np.array([0.5 * (W + W.T) for W in rng.standard_normal((nv + 1, nb, nb))])
            for nb in sizes
        ]
        S = [_random_spd(rng, nb) for nb in sizes]
        Z = [_random_spd(rng, nb) for nb in sizes]
        s_invs = [np.linalg.inv(np.linalg.cholesky(Sb)) for Sb in S]
        z_chols = [np.linalg.cholesky(Zb) for Zb in Z]
        M = _schur_complement(ext, s_invs, z_chols)
        ref = np.zeros((nv + 1, nv + 1))
        for A, Sb, Zb in zip(ext, S, Z):
            S_inv = np.linalg.inv(Sb)
            for i in range(nv + 1):
                for j in range(nv + 1):
                    ref[i, j] += np.trace(A[i] @ Zb @ A[j] @ S_inv)
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


def _lambda_min(blocks, v):
    return min(np.linalg.eigvalsh(b.value(v))[0] for b in blocks)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nb0=st.integers(2, 4),
    more=st.lists(st.integers(1, 4), max_size=1),
    nvar=st.integers(0, 3),
    shift=st.floats(-1.0, 3.0),
)
def test_certificates_bracket_the_optimum(seed, nb0, more, nvar, shift):
    # The first block's coefficients are traceless and (generically)
    # independent, so its trace is pinned and the feasible set is bounded:
    # the margin is bounded and a strictly feasible dual point exists.  The
    # shift moves the optimum across feas_tol, so both verdicts occur.
    nvar = min(nvar, nb0 * (nb0 + 1) // 2 - 1)
    rng = np.random.default_rng(seed)
    blocks = []
    for i, nb in enumerate([nb0] + more):
        W = rng.standard_normal((nvar + 1, nb, nb))
        W = 0.5 * (W + W.transpose(0, 2, 1))
        if i == 0:
            W[1:] -= np.trace(W[1:], axis1=1, axis2=2)[:, None, None] * np.eye(nb) / nb
        blocks.append(AffineBlock(const=W[0] + shift * np.eye(nb), coeff=W[1:]))
    feas_tol = 1e-6
    ref = maximize_margin(blocks, gap_tol=1e-10)
    res = maximize_margin(blocks, feas_tol=feas_tol)
    # Round-off in the dual equalities may end the reference just short of
    # 1e-10 ("stalled"), with the best certificates it reached.
    assert ref.stop in ("gap_tol", "stalled") and ref.gap_bound <= 1e-9
    assert res.converged
    for r in (ref, res):
        assert r.margin == pytest.approx(_lambda_min(blocks, r.v), abs=1e-12)
    # margin <= optimum <= margin + gap_bound, with the optimum bracketed by
    # the reference solve (plus round-off in the certificates).
    slack = 1e-9
    assert res.margin <= ref.margin + ref.gap_bound + slack
    assert ref.margin <= res.margin + res.gap_bound + slack
    if res.stop == "verdict":
        feasible = res.margin > feas_tol
        assert feasible or res.margin + res.gap_bound <= feas_tol
        assert feasible == (ref.margin > feas_tol)
    else:
        assert res.stop == "gap_tol"
    if nvar == 1:
        # Grid oracle: every grid point's margin is a lower bound on the
        # optimum, and the grid comes close to it.
        grid = np.linspace(-5.0, 5.0, 2001)
        best = max(_lambda_min(blocks, np.array([g])) for g in grid)
        assert best <= res.margin + res.gap_bound + slack
        assert best >= ref.margin - 1e-2


@pytest.mark.parametrize("factorization", ["jordan", "krylov"])
def test_paper_example_no_line_search_stall(monkeypatch, factorization):
    # On these probing seeds an Armijo test on absolute barrier values
    # (about tau * t = 1e5 in the last stage) lost the required decrease to
    # round-off, backtracked to s < 1e-13 on every step and took 150+
    # Newton steps instead of about 77.
    steps = []

    def recording(*args, **kwargs):
        res = maximize_margin(*args, **kwargs)
        steps.append(res.newton_steps)
        return res

    monkeypatch.setattr(synthesis, "maximize_margin", recording)
    for seed in (3, 5, 11, 24):
        assert run_pipeline(paper_example_config(seed, factorization))["all_pass"]
    assert len(steps) == 4
    assert max(steps) <= 100
