import numpy as np
import pytest

from ddreg import sdp, synthesis
from ddreg.cli import paper_example_config, run_pipeline
from ddreg.sdp import AffineBlock, _newton_system, _shifted_chol, maximize_margin


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
    # A threshold the optimum never clears leaves the path running to gap_tol.
    res_high = maximize_margin([block], feas_tol=2.0)
    assert res_high.stop == "gap_tol"
    assert res_high.margin == pytest.approx(5.0 / 4.0, abs=1e-7)
    assert res_high.newton_steps > res.newton_steps


def test_negative_optimum_reported():
    # Contradictory blocks [v - 1] and [-v - 1]: best margin is -1 at v = 0.
    b1 = AffineBlock(const=np.array([[-1.0]]), coeff=np.array([[[1.0]]]))
    b2 = AffineBlock(const=np.array([[-1.0]]), coeff=np.array([[[-1.0]]]))
    res = maximize_margin([b1, b2])
    assert res.margin == pytest.approx(-1.0, abs=1e-6)
    # The verdict rule never fires on an infeasible problem: with feas_tol
    # the path runs to gap_tol along the same iterates.
    res_tol = maximize_margin([b1, b2], feas_tol=1e-6)
    assert res_tol.stop == "gap_tol"
    assert np.array_equal(res_tol.v, res.v)
    assert res_tol.margin == res.margin


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
    # Every Newton step evaluates at least one trial point.
    assert res.line_search_evals >= res.newton_steps
    assert f"line_search_evals={res.line_search_evals}" in res.log[-1]


def test_determinism():
    rng = np.random.default_rng(1)
    coeff = np.array([0.5 * (W + W.T) for W in rng.standard_normal((2, 3, 3))])
    block = AffineBlock(const=np.eye(3), coeff=coeff)
    r1 = maximize_margin([block])
    r2 = maximize_margin([block])
    assert r1.margin == r2.margin
    assert np.array_equal(r1.v, r2.v)


def test_shifted_chol_matches_value_and_cholesky():
    rng = np.random.default_rng(5)
    for nb, nv in ((1, 1), (4, 3), (20, 65), (3, 0)):
        W = rng.standard_normal((nv, nb, nb))
        coeff = 0.5 * (W + W.transpose(0, 2, 1))
        block = AffineBlock(const=4.0 * np.eye(nb), coeff=coeff)
        v = 0.1 * rng.standard_normal(nv)
        lam = np.linalg.eigvalsh(block.value(v))[0]
        flat = block.coeff.reshape(nv, nb * nb)  # (0, nb * nb) without variables
        t = lam - 0.5
        L = _shifted_chol(block.const, flat, v, t)
        L_ref = np.linalg.cholesky(block.value(v) - t * np.eye(nb))
        assert np.abs(L - L_ref).max() <= 1e-12 * np.abs(L_ref).max()
        # A shift past the smallest eigenvalue leaves the cone.
        assert _shifted_chol(block.const, flat, v, lam + 1e-6) is None


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


def test_non_finite_newton_system_raises(monkeypatch):
    def poisoned(ext, chols, tau):
        grad, hess = _newton_system(ext, chols, tau)
        hess[0, 0] = np.nan
        return grad, hess

    monkeypatch.setattr(sdp, "_newton_system", poisoned)
    with pytest.raises(RuntimeError, match="non-finite Newton system"):
        maximize_margin([_tradeoff_block()])


def _newton_system_solve(ext, chols, tau):
    """Reference assembly: broadcast general solves against each factor."""
    nvar = ext[0].shape[0]
    grad = np.zeros(nvar)
    grad[-1] = -tau
    hess = np.zeros((nvar, nvar))
    for F, L in zip(ext, chols):
        half = np.linalg.solve(L[None, :, :], F)
        sym = np.linalg.solve(L[None, :, :], half.transpose(0, 2, 1))
        grad -= np.trace(sym, axis1=1, axis2=2)
        flat = sym.reshape(nvar, -1)
        hess += flat @ flat.T
    return grad, hess


def test_newton_system_matches_solve_reference():
    rng = np.random.default_rng(4)
    for sizes, nv in (((1,), 1), ((3, 6), 4), ((10, 20), 64)):
        blocks = [
            AffineBlock(
                const=np.eye(nb),
                coeff=np.array(
                    [0.5 * (W + W.T) for W in rng.standard_normal((nv, nb, nb))]
                ),
            )
            for nb in sizes
        ]
        v = 0.1 * rng.standard_normal(nv)
        t = min(np.linalg.eigvalsh(b.value(v))[0] for b in blocks) - 0.5
        ext = [np.concatenate([b.coeff, -np.eye(b.size)[None]]) for b in blocks]
        chols = [np.linalg.cholesky(b.value(v) - t * np.eye(b.size)) for b in blocks]
        grad, hess = _newton_system(ext, chols, tau=1e3)
        grad_ref, hess_ref = _newton_system_solve(ext, chols, tau=1e3)
        assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        assert np.abs(hess - hess_ref).max() <= 1e-12 * np.abs(hess_ref).max()


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
