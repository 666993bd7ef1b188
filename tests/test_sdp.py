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
from ddreg import sdp, synthesis
from ddreg.cli import run_pipeline
from ddreg.sdp import AffineBlock, _col_scale, _schur_complement, maximize_margin

from _scenarios import paper_config


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
    assert 0 < res.newton_steps <= sdp.MAX_NEWTON
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
        assert res.converged


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
    # The norm of a variable's coefficients is taken over all blocks.
    rng = np.random.default_rng(2)
    for sizes, nv in (((3,), 0), ((1,), 1), ((6, 2), 3), ((30, 5), 64)):
        blocks = [
            AffineBlock(const=np.eye(nb), coeff=rng.standard_normal((nv, nb, nb)))
            for nb in sizes
        ]
        for block in blocks:
            block.coeff[nv // 2 :] *= 1e3  # variables on different scales
            if nv > 1:
                block.coeff[0] = 0.0  # a variable no block depends on
        ref = np.ones(nv)
        for j in range(nv):
            norm_j = np.linalg.norm(np.concatenate([b.coeff[j].ravel() for b in blocks]))
            if norm_j > 0:
                ref[j] = 1.0 / norm_j
        # Sums run in another order than np.linalg.norm's: a few ulps apart.
        np.testing.assert_allclose(_col_scale(blocks), ref, rtol=8 * np.finfo(float).eps, atol=0)


def test_maximize_margin_needs_blocks_in_the_same_variables():
    block = _tradeoff_block()
    other = AffineBlock(const=np.eye(2), coeff=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match=r"same variables, got \[\] variables"):
        maximize_margin([])
    with pytest.raises(ValueError, match=r"same variables, got \[1, 2\] variables"):
        maximize_margin([block, other])


def _bounded_block(rng, nb, nvar, shift=1.0):
    """Random block whose coefficients are traceless: its trace is pinned, so
    the margin is bounded and a strictly feasible dual point exists."""
    W = rng.standard_normal((nvar + 1, nb, nb))
    W = 0.5 * (W + W.transpose(0, 2, 1))
    W[1:] -= np.trace(W[1:], axis1=1, axis2=2)[:, None, None] * np.eye(nb) / nb
    return AffineBlock(const=W[0] + shift * np.eye(nb), coeff=W[1:])


def test_non_finite_newton_system_raises(monkeypatch):
    def poisoned(A, s_inv, z_chol, work):
        M = _schur_complement(A, s_inv, z_chol, work)
        M[0, 0] = np.nan
        return M

    # The trade-off block starts at its optimum and takes no step; this one
    # iterates.
    block = _bounded_block(np.random.default_rng(1), 3, 2)
    assert maximize_margin([block]).newton_steps > 0
    monkeypatch.setattr(sdp, "_schur_complement", poisoned)
    with pytest.raises(RuntimeError, match="non-finite Newton system"):
        maximize_margin([block])


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
        # The solver's form: the sum of the per-block complements.
        M = sum(
            _schur_complement(E, np.linalg.inv(np.linalg.cholesky(Sb)), np.linalg.cholesky(Zb))
            for E, Sb, Zb in zip(ext, S, Z)
        )
        ref = np.zeros((nv + 1, nv + 1))
        for A, Sb, Zb in zip(ext, S, Z):
            S_inv = np.linalg.inv(Sb)
            for i in range(nv + 1):
                for j in range(nv + 1):
                    ref[i, j] += np.trace(A[i] @ Zb @ A[j] @ S_inv)
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


def _lambda_min(blocks, v):
    return min(np.linalg.eigvalsh(b.value(v))[0] for b in blocks)


_BLOCK_DRAW = dict(
    seed=st.integers(0, 2**32 - 1),
    nb0=st.integers(2, 4),
    nvar=st.integers(0, 3),
    shift=st.floats(-1.0, 3.0),
)


def _bracket_blocks(seed, nb0, more, nvar, shift):
    """One or two random blocks.  The first block's coefficients are
    traceless and (generically) independent, so its trace is pinned and the
    feasible set is bounded: the margin is bounded and a strictly feasible
    dual point exists.  The shift moves the optimum across 1e-6, so both
    verdicts occur."""
    nvar = min(nvar, nb0 * (nb0 + 1) // 2 - 1)
    rng = np.random.default_rng(seed)
    blocks = []
    for i, nb in enumerate([nb0] + more):
        W = rng.standard_normal((nvar + 1, nb, nb))
        W = 0.5 * (W + W.transpose(0, 2, 1))
        if i == 0:
            W[1:] -= np.trace(W[1:], axis1=1, axis2=2)[:, None, None] * np.eye(nb) / nb
        blocks.append(AffineBlock(const=W[0] + shift * np.eye(nb), coeff=W[1:]))
    return blocks


@settings(max_examples=30, derandomize=True, deadline=None)
@given(more=st.lists(st.integers(1, 4), max_size=1), **_BLOCK_DRAW)
# A draw whose optimum lies on feas_tol: the solve ends without a verdict.
@example(seed=1, nb0=3, more=[2], nvar=2, shift=0.04584995194940994)
def test_certificates_bracket_the_optimum(seed, nb0, more, nvar, shift):
    blocks = _bracket_blocks(seed, nb0, more, nvar, shift)
    feas_tol = 1e-6
    ref = maximize_margin(blocks, gap_tol=1e-10)
    res = maximize_margin(blocks, feas_tol=feas_tol)
    # Round-off in the dual equalities may end the reference just short of
    # 1e-10 ("stalled"), with the best certificates it reached.
    assert ref.stop in ("gap_tol", "stalled") and ref.gap_bound <= 1e-9
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
        # With feas_tol the solve never stops at gap_tol: it ends without a
        # verdict only where the optimum is feas_tol up to the bracket.
        assert res.stop == "stalled"
        assert ref.margin - slack <= feas_tol <= ref.margin + ref.gap_bound + slack
    if blocks[0].nvar == 1:
        # Grid oracle: every grid point's margin is a lower bound on the
        # optimum, and the grid comes close to it.
        grid = np.linspace(-5.0, 5.0, 2001)
        best = max(_lambda_min(blocks, np.array([g])) for g in grid)
        assert best <= res.margin + res.gap_bound + slack
        assert best >= ref.margin - 1e-2


def _fold(*blocks):
    """Several blocks as one block-diagonal block: its eigenvalues are
    theirs, and so is every margin."""
    terms = zip(*(np.concatenate([b.const[None], b.coeff]) for b in blocks))
    folded = np.array([block_diag(*parts) for parts in terms])
    return AffineBlock(folded[0], folded[1:])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(more=st.lists(st.integers(1, 4), min_size=1, max_size=2), **_BLOCK_DRAW)
def test_blocks_solve_as_their_fold(seed, nb0, more, nvar, shift):
    # Every sum over the fold's entries is taken per block, then over the
    # blocks, so the two solves differ by round-off only.  Two or three
    # blocks: every sum and running minimum must take each of them.  Where
    # both reach a verdict it is the same, with the same margin; at a
    # feasible one, whose point is centred, with the same v.  A stall ends
    # wherever the round-off of the path leaves it.
    blocks = _bracket_blocks(seed, nb0, more, nvar, shift)
    feas_tol = 1e-6
    res = maximize_margin(blocks, feas_tol=feas_tol)
    folded = maximize_margin([_fold(*blocks)], feas_tol=feas_tol)
    if res.stop == folded.stop == "verdict":
        assert res.margin == pytest.approx(folded.margin, rel=1e-9)
        assert (res.margin > feas_tol) == (folded.margin > feas_tol)
        if res.margin > feas_tol:
            assert np.linalg.norm(res.v - folded.v) <= 1e-8 * np.linalg.norm(folded.v)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(nb1=st.integers(1, 4), **_BLOCK_DRAW)
def test_block_order_moves_round_off_only(seed, nb0, nb1, nvar, shift):
    # The passes visit the blocks in list order; [b1, b2] and [b2, b1] pose
    # one problem and reach the same verdict, stop and iteration count.
    blocks = _bracket_blocks(seed, nb0, [nb1], nvar, shift)
    feas_tol = 1e-6
    res = maximize_margin(blocks, feas_tol=feas_tol)
    swapped = maximize_margin(blocks[::-1], feas_tol=feas_tol)
    assert (swapped.stop, swapped.newton_steps) == (res.stop, res.newton_steps)
    assert (swapped.margin > feas_tol) == (res.margin > feas_tol)
    assert swapped.margin == pytest.approx(res.margin, rel=1e-9)


@pytest.mark.parametrize("presentation", ["jordan", "krylov"])
def test_paper_example_iteration_budget(monkeypatch, presentation):
    # The paper design solve ends at its certified verdict in 11
    # primal-dual iterations on these probing seeds, with the exosystem in
    # either basis, and every run passes its checks.  A solve that stalls
    # near the boundary or misses the verdict stop runs far past the budget
    # of 100.
    steps = []

    def recording(*args, **kwargs):
        res = maximize_margin(*args, **kwargs)
        steps.append(res.newton_steps)
        return res

    monkeypatch.setattr(synthesis, "maximize_margin", recording)
    for seed in (3, 5, 11, 24):
        assert run_pipeline(paper_config(seed, presentation))["all_pass"]
    assert len(steps) == 4
    assert max(steps) <= 100
    assert max(steps) <= 11


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nb=st.integers(2, 4),
    nvar=st.integers(1, 3),
    shift=st.floats(-1.0, 3.0),
)
def test_margin_is_lambda_min_at_returned_v(seed, nb, nvar, shift):
    # The loop reads the margin off the slack, lam_min(S) + t; the returned
    # margin is re-evaluated on the block at the returned v.
    nvar = min(nvar, nb * (nb + 1) // 2 - 1)
    block = _bounded_block(np.random.default_rng(seed), nb, nvar, shift)
    res = maximize_margin([block], feas_tol=1e-6)
    exact = np.linalg.eigvalsh(block.value(res.v))[0]
    assert res.margin == pytest.approx(exact, rel=1e-12)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nb=st.integers(2, 4),
    nvar=st.integers(1, 3),
    shift=st.floats(-1.0, 3.0),
    log_cond=st.floats(0.0, 2.0),
)
def test_path_invariant_under_change_of_variables(seed, nb, nvar, shift, log_cond):
    # v = s + T w, with T invertible: the solve starts at a point the set
    # {F(v)} defines, and every step of the path is invariant under such a
    # change, so the verdict, the stop reason, the margin and the returned
    # block value move by round-off only.
    nvar = min(nvar, nb * (nb + 1) // 2 - 1)
    rng = np.random.default_rng(seed)
    block = _bounded_block(rng, nb, nvar, shift)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((nvar, nvar)))[0] for _ in range(2))
    T = Q1 @ np.diag(10.0 ** rng.uniform(-log_cond, log_cond, nvar)) @ Q2
    s = 3.0 * rng.standard_normal(nvar)
    # F'(w) = F(s + T w).
    moved = AffineBlock(block.value(s), np.tensordot(T.T, block.coeff, axes=1))
    feas_tol = 1e-6
    res = maximize_margin([block], feas_tol=feas_tol)
    res_moved = maximize_margin([moved], feas_tol=feas_tol)
    assert res_moved.stop == res.stop
    assert (res_moved.margin > feas_tol) == (res.margin > feas_tol)
    assert res_moved.margin == pytest.approx(res.margin, abs=1e-9)
    value = block.value(res.v)
    assert np.abs(moved.value(res_moved.v) - value).max() <= 1e-8


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nb=st.integers(2, 4),
    nvar=st.integers(1, 3),
    shift=st.floats(-1.0, 3.0),
    where=st.floats(0.0, 1.0),
)
# A draw whose margin read off the slack clears feas_tol while the margin at
# the returned v ties it: the verdict is judged on the one returned.
@example(seed=217111511, nb=2, nvar=2, shift=-0.233915848685748, where=0.33637464021865227)
def test_threshold_inside_the_bracket_gets_a_certified_verdict_or_none(
    seed, nb, nvar, shift, where
):
    # A threshold inside the bracket [margin, margin + gap_bound] of a
    # gap_tol=1e-12 solve sits at the optimum up to that width.  With
    # feas_tol the solve never stops at gap_tol short of a certificate: it
    # ends at a verdict the returned numbers certify, or without one.
    nvar = min(nvar, nb * (nb + 1) // 2 - 1)
    block = _bounded_block(np.random.default_rng(seed), nb, nvar, shift)
    ref = maximize_margin([block], gap_tol=1e-12)
    assert np.isfinite(ref.gap_bound)
    feas_tol = ref.margin + where * ref.gap_bound
    res = maximize_margin([block], feas_tol=feas_tol)
    assert res.stop in ("verdict", "stalled")
    if res.stop == "verdict":
        assert res.margin > feas_tol or res.margin + res.gap_bound <= feas_tol


def test_solver_imports_no_other_module():
    # The solver is a self-contained kernel: its defaults are its own.
    code = (
        "import sys, ddreg.sdp; "
        "print(sorted(m for m in sys.modules if m.startswith('ddreg')))"
    )
    src = str(Path(ddreg.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "['ddreg', 'ddreg.sdp']"
