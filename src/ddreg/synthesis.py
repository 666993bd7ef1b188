"""Design program: assemble and solve the feasibility SDP on designer-visible
data only, and extract the feedback gain.

The decision variables are a symmetric matrix X and a rectangular Y tied by
``[X; 0] = [psi0; mhat] Y`` with the stability block
``[[X, psi1 Y], [(psi1 Y)^T, X]] > 0``, which implies ``X > 0`` (see
``_sdp_block``).  The equality is eliminated in closed form: Y is
parameterized as ``null_m Z`` on the nullspace of ``mhat``, taken modulo the
kernel of ``[psi0; psi1]`` (directions that move Y without moving either X
or ``psi1 Y``).  When ``H0 = psi0 null_m`` has full row rank nu, every Z
with ``H0 Z`` symmetric is ``Z = H0^+ X + N R`` (N a basis of ker H0, R
free), so the free parameters are X itself, with its scale pinned by
``trace X = nu`` (the constraints are jointly homogeneous in (X, Y), so the
normalization is lossless), and R; the off-diagonal block is then
``psi1 Y = Gamma X + Lambda R``.  When H0 is rank deficient, X is singular
for every Y, so the margin is at most 0 and the problem is infeasible with
no solve.  Otherwise what remains is a margin maximization over one affine
symmetric block, solved by the dense primal-dual interior-point method of
``sdp.py``.

The design question is one of feasibility: any strictly feasible (X, Y)
yields a valid gain.  The interior-point solve therefore stops as soon as a
verdict is certified (margin above ``feas_tol`` and above the gap bound, or
a dual bound at or below ``feas_tol``), a feasible one at a central point.
Driving the margin to its optimum instead leaves X nearly singular and the
gain ``K = u1 Y X^{-1}`` ill-determined: it would move with round-off in
the data and with the solver tolerance, although the homogeneity says it
should not.

Nothing here reads the plant: the design sees the data stacks, the reduced
regressor and the solver's tolerances, and returns what it decided as data
(``SynthesisResult``), not text.

Outside input is validated at three boundaries, the run config
(``config.RunConfig``), a record CSV (``experiment.record_from_csv``) and a
gain file (``cli.verify_gain``); nothing here re-checks the data stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .exo_factorization import Regressor
from .experiment import DataMatrices
from .numerics import DEFAULT_RANK_RTOL, rank_with_tol
from .sdp import AffineBlock, _sym, maximize_margin


@dataclass
class SdpProblem:
    """Designer-visible problem data.  Never holds the exosignal stack."""

    u1: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    mhat: np.ndarray

    @property
    def nu(self) -> int:
        return self.psi0.shape[0]

    @property
    def n_cols(self) -> int:
        return self.psi0.shape[1]

    @property
    def nhat_w(self) -> int:
        return self.mhat.shape[0]


@dataclass
class SynthesisResult:
    """The design's verdict and the solver state behind it, as data.

    ``rank`` is the rank of ``H0 = psi0 null_m``, and ``sigma_kept`` and
    ``sigma_dropped`` are its singular values on either side of the rank
    cut, relative to the largest (None where there is none: with fewer
    columns than nu rows, H0 is short of rank nu by its shape alone).
    ``stop``, ``iterations`` and ``gap_bound`` are the interior-point
    solve's (``sdp.MarginResult``; the optimum is at most
    ``margin + gap_bound``): None, 0 and None when no solve ran or the
    solve raised.  ``error`` is the text of a solve that raised.
    """

    status: str  # feasible | infeasible | numerical_failure
    margin: float
    rank: int
    sigma_kept: float | None
    sigma_dropped: float | None
    free_params: int | None = None  # of the design block, once assembled
    stop: str | None = None
    iterations: int = 0
    gap_bound: float | None = None
    error: str | None = None
    X: np.ndarray | None = None
    Y: np.ndarray | None = None
    # |mhat Y| and |psi0 Y - X|, set with Y.
    mhat_residual: float | None = None
    equality_residual: float | None = None
    K: np.ndarray | None = None
    # G = Y X^{-1} and the norm defect of its interpolation identity (the
    # report's gain_identity row); set with K.
    G: np.ndarray | None = None
    gain_defect: float | None = None

    def to_dict(self) -> dict:
        names = (
            "status", "margin", "stop", "iterations", "gap_bound", "free_params",
            "rank", "sigma_kept", "sigma_dropped", "mhat_residual",
            "equality_residual", "error",
        )
        d = {name: getattr(self, name) for name in names}
        d["gain"] = None if self.K is None else self.K.tolist()
        return d


def assemble_sdp(data: DataMatrices, reg: Regressor) -> SdpProblem:
    """Bundle the data stacks with the reduced regressor."""
    mhat = reg.mhat  # raises if the regressor was never reduced
    if mhat.shape[1] != data.psi0.shape[1]:
        raise ValueError(
            f"regressor has {mhat.shape[1]} columns, data has {data.psi0.shape[1]}"
        )
    if rank_with_tol(mhat) < mhat.shape[0]:
        raise ValueError("reduced regressor is not full row rank")
    return SdpProblem(u1=data.u1, psi0=data.psi0, psi1=data.psi1, mhat=mhat)


def _svd_split(M: np.ndarray, rtol: float = DEFAULT_RANK_RTOL):
    """One full SVD of ``M``, split at the package-wide rank tolerance:
    ``(u, s, rows, null)`` with the leading left singular vectors, all the
    singular values (descending), and orthonormal bases (columns) of the row
    space and right nullspace."""
    if M.shape[0] == 0:
        n = M.shape[1]
        return np.zeros((0, 0)), np.zeros(0), np.zeros((n, 0)), np.eye(n)
    u, s, vh = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank], s, vh[:rank].T.copy(), vh[rank:].T.copy()


def _elimination(prob: SdpProblem):
    """Linear-equality elimination in closed form.

    Returns ``(null_m, s, pinv, kernel)``: ``Y = null_m Z`` satisfies
    ``mhat Y = 0``, and one SVD of ``H0 = psi0 null_m`` (q columns) gives
    its singular values ``s``, its pseudo-inverse ``pinv`` (at the
    package-wide rank tolerance) and an orthonormal basis ``kernel`` of
    ker H0, so rank H0 is ``q - kernel.shape[1]``.  When that rank is nu,
    every Z with ``H0 Z`` symmetric is ``Z = H0^+ X + N R``, with X
    symmetric (and then ``X = H0 Z``), N the kernel basis and R free.
    """
    null_m = _svd_split(prob.mhat)[3]
    # Directions of null_m in the kernel of [psi0; psi1] move Y without
    # moving X or W: the margin cannot see them.  Keeping the row space only
    # removes them, and pins Y to the smallest one that gives the same
    # blocks.
    _, _, rows, _ = _svd_split(np.vstack([prob.psi0, prob.psi1]) @ null_m)
    null_m = null_m @ rows
    u, s, rows, kernel = _svd_split(prob.psi0 @ null_m)
    return null_m, s, rows @ (u / s[: u.shape[1]]).T, kernel


def _sym_basis(nu: int) -> np.ndarray:
    """The identity, then a basis of the trace-zero symmetric nu x nu
    matrices: ``E_ii - E_ll`` for every i but the last index l, then
    ``E_ij + E_ji`` for i < j in row-major order."""
    B = np.zeros((nu * (nu + 1) // 2, nu, nu))
    B[0] = np.eye(nu)
    d = np.arange(nu - 1)
    B[1 + d, d, d] = 1.0
    B[1:nu, -1, -1] = -1.0
    i, j = np.triu_indices(nu, k=1)
    off = np.arange(nu, B.shape[0])
    B[off, i, j] = B[off, j, i] = 1.0
    return B


def _sdp_block(H1, pinv, kernel, basis) -> AffineBlock:
    """The block ``[[X, W], [W^T, X]]`` of the design program, with
    ``W = H1 Z = Gamma X + Lambda R`` for ``Gamma = H1 H0^+`` and
    ``Lambda = H1 N``, affine in the free parameters.  Its constant term is
    X = I, R = 0 (so trace X = nu); its coefficients are the trace-zero
    symmetric basis ``basis = _sym_basis(nu)`` for X, then the unit entries
    of R in row-major order.  ``X > 0`` needs no block of its own: X is a
    principal submatrix, so by Cauchy interlacing its smallest eigenvalue is
    at least the whole block's."""
    gamma, lam = H1 @ pinv, H1 @ kernel
    nu, r = lam.shape
    nx = basis.shape[0]
    S = np.zeros((nx + r * nu, 2 * nu, 2 * nu))
    S[:nx, :nu, :nu] = S[:nx, nu:, nu:] = basis
    S[:nx, :nu, nu:] = gamma @ basis
    # Entry (a, b) of R puts column a of Lambda into column b of W.
    S[nx:, :nu, nu:] = np.einsum("ia,bj->abij", lam, np.eye(nu)).reshape(r * nu, nu, nu)
    S[:, nu:, :nu] = S[:, :nu, nu:].transpose(0, 2, 1)
    return AffineBlock(const=S[0], coeff=S[1:])


def _design_z(v, pinv, kernel, basis) -> np.ndarray:
    """``Z = H0^+ X + N R`` at the parameters v of ``_sdp_block``."""
    nu, r = pinv.shape[1], kernel.shape[1]
    nx = len(basis) - 1
    X = basis[0] + np.tensordot(v[:nx], basis[1:], axes=1)
    return pinv @ X + kernel @ v[nx:].reshape(r, nu)


def solve_feasibility_sdp(
    prob: SdpProblem,
    feas_tol: float = DEFAULTS["tolerances"]["feas_tol"],
    gap_tol: float = DEFAULTS["solver"]["gap_tol"],
    max_newton: int = DEFAULTS["solver"]["max_newton"],
) -> SynthesisResult:
    """Margin-maximization solve of the design program.

    Feasible means the margin, the smallest eigenvalue of the stability
    block at the returned point, exceeds ``feas_tol``.  The
    interior-point solve stops at the first certified verdict: a feasible
    margin is a lower bound on the optimum (within a factor 2 of it, see
    ``gap_bound``); an infeasible solve stops once a dual point bounds the
    optimum at or below ``feas_tol``, so its margin is the certified
    value there, not the optimum.  Otherwise it runs to ``gap_tol`` (at
    most ``max_newton`` Newton steps); the defaults are a run config's.
    A rank-deficient ``psi0 null_m`` (the wide-output plant) is infeasible
    with margin -inf and no solve.  X and Y satisfy the equality constraint
    by construction up to round-off.
    """
    null_m, s, pinv, kernel = _elimination(prob)
    rank = null_m.shape[1] - kernel.shape[1]
    rel = s / s[0] if rank else s[:0]  # rank 0: H0 is zero or empty
    kept = float(rel[rank - 1]) if rank else None
    dropped = float(rel[rank]) if rank < rel.size else None
    result = SynthesisResult("infeasible", -np.inf, rank, kept, dropped)
    if rank < prob.nu:
        # X = psi0 Y = H0 Z has rank below nu for every Z, and X is a
        # principal submatrix of the block: the margin is at most 0.
        return result

    basis = _sym_basis(prob.nu)
    block = _sdp_block(prob.psi1 @ null_m, pinv, kernel, basis)
    result.free_params = block.nvar
    try:
        res = maximize_margin(
            [block], gap_tol=gap_tol, max_newton=max_newton, feas_tol=feas_tol
        )
    except RuntimeError as exc:
        result.status, result.margin = "numerical_failure", np.nan
        result.error = str(exc)
        return result
    result.margin, result.stop = res.margin, res.stop
    result.iterations, result.gap_bound = res.newton_steps, res.gap_bound
    if not res.converged:
        result.status = "numerical_failure"
        return result

    result.Y = Y = null_m @ _design_z(res.v, pinv, kernel, basis)
    result.X = X = _sym(prob.psi0 @ Y)
    result.mhat_residual = float(np.linalg.norm(prob.mhat @ Y))
    result.equality_residual = float(np.linalg.norm(prob.psi0 @ Y - X))
    if res.margin > feas_tol:
        result.status = "feasible"
        result.K, result.G, result.gain_defect = extract_gain(prob, X, Y)
    return result


def extract_gain(prob: SdpProblem, X, Y) -> tuple[np.ndarray, np.ndarray, float]:
    """Gain ``K = u1 G`` with ``G = Y X^{-1}``.

    Returns ``(K, G, defect)``, the defect being the norm of the residual of
    the stacked interpolation identity ``[K; I; 0] = [u1; psi0; mhat] G``;
    the report's ``gain_identity`` row decides whether it is small enough.
    """
    eigs = np.linalg.eigvalsh(_sym(X))
    if eigs[0] <= 1e-10:
        raise ValueError(
            f"X is numerically singular (min eigenvalue {eigs[0]:.2e})"
        )
    G = np.linalg.solve(_sym(X), Y.T).T  # Y X^{-1}
    K = prob.u1 @ G
    nu = prob.nu
    stacked_lhs = np.vstack([K, np.eye(nu), np.zeros((prob.nhat_w, nu))])
    stacked_rhs = np.vstack([prob.u1, prob.psi0, prob.mhat]) @ G
    return K, G, float(np.linalg.norm(stacked_lhs - stacked_rhs))


def feasibility_precheck(prob: SdpProblem) -> dict:
    """Experiment-length guidance from designer data, before the solver: the
    data ``columns`` and the rows of ``[psi0; mhat]``, ``columns_needed``; a
    run with fewer columns than that is too short.  The rank decision (X is
    singular for every Y when ``psi0 null_m`` has rank below nu) is made and
    reported by ``solve_feasibility_sdp``.
    """
    return {"columns": prob.n_cols, "columns_needed": prob.nu + prob.nhat_w}
