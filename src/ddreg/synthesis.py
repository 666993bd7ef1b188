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
a dual bound at or below ``feas_tol``), a feasible one at a central point; a
solve that ends without a certificate is a numerical failure.  Driving the
margin to its optimum instead leaves X nearly singular and the gain
``K = u1 Y X^{-1}`` ill-determined: it would move with round-off in the data
and with the solver tolerance, although the homogeneity says it should not.

Nothing here reads the plant: the design sees the data stacks, the
regressor and ``feas_tol``, and returns what it decided as data
(``SynthesisResult``), not text.

Outside input is validated at three boundaries, the run config
(``config.RunConfig``), a record CSV (``experiment.record_from_csv``) and a
gain file (``cli.verify_gain``); nothing here re-checks the data stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import FEAS_TOL
from .experiment import DataMatrices
from .exosystem import Regressor
from .numerics import norm, numerical_rank
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
    ``window_residual`` is :func:`window_residual` of the data, taken for
    every design.
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
    window_residual: float
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
            "rank", "sigma_kept", "sigma_dropped", "window_residual",
            "mhat_residual", "equality_residual", "error",
        )
        d = {name: getattr(self, name) for name in names}
        d["gain"] = None if self.K is None else self.K.tolist()
        return d


def assemble_sdp(data: DataMatrices, reg: Regressor) -> SdpProblem:
    """Bundle the data stacks with the regressor as built."""
    mhat = reg.matrix
    if mhat.shape[1] != data.psi0.shape[1]:
        raise ValueError(
            f"regressor has {mhat.shape[1]} columns, data has {data.psi0.shape[1]}"
        )
    return SdpProblem(u1=data.u1, psi0=data.psi0, psi1=data.psi1, mhat=mhat)


def _svd_split(M: np.ndarray):
    """One full SVD of ``M``, split at ``numerics.numerical_rank``:
    ``(u, s, rows, null)`` with the leading left singular vectors, all the
    singular values (descending), and orthonormal bases (columns) of the row
    space and right nullspace."""
    if M.shape[0] == 0:
        n = M.shape[1]
        return np.zeros((0, 0)), np.zeros(0), np.zeros((n, 0)), np.eye(n)
    u, s, vh = np.linalg.svd(M)
    rank = numerical_rank(s)
    return u[:, :rank], s, vh[:rank].T.copy(), vh[rank:].T.copy()


def window_residual(prob: SdpProblem) -> float:
    """Relative residual of the rows of psi1 off the row space of
    ``[psi0; u1; mhat]``, from designer data alone.

    When the window is at least the plant's observability index, the
    window is a state: psi1 is a linear map of psi0, u1 and the exosignal
    stack, whose rows lie in mhat's row space, and the residual is
    round-off.  A shorter window leaves the newest output undetermined,
    and the residual is of the order of the data.  With no more columns
    than the stack's rank (``numerics.numerical_rank``) every row lies in
    that row space, and the test cannot decide: NaN."""
    null = _svd_split(np.vstack([prob.psi0, prob.u1, prob.mhat]))[3]
    if null.shape[1] == 0:
        return float("nan")
    return norm(prob.psi1 @ null) / max(norm(prob.psi1), 1e-300)


@dataclass(frozen=True)
class Quotient:
    """The data's quotient: ``Y = null_m Z`` solves ``mhat Y = 0``; ``s``, ``pinv``,
    ``kernel`` (N) and ``rank`` are the singular values, pseudo-inverse, orthonormal
    kernel basis and rank of ``H0 = psi0 null_m``; with ``H1 = psi1 null_m``,
    ``gamma = H1 H0^+`` and ``lam = H1 N`` give ``psi1 Y = gamma X + lam R``."""

    null_m: np.ndarray
    s: np.ndarray
    pinv: np.ndarray
    kernel: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray

    @property
    def rank(self) -> int:
        return self.null_m.shape[1] - self.kernel.shape[1]


def _elimination(prob: SdpProblem) -> Quotient:
    """Linear-equality elimination in closed form (see :class:`Quotient` for
    the fields): ``null_m`` is the one rank decision on the regressor, whose
    rows need not be independent, and one SVD of H0 gives the rest, ``pinv``
    at the package-wide rank tolerance.  When the rank is nu, every Z with
    ``H0 Z`` symmetric is ``Z = H0^+ X + N R``, with X symmetric (and then
    ``X = H0 Z``) and R free."""
    null_m = _svd_split(prob.mhat)[3]
    # Directions of null_m in the kernel of [psi0; psi1] move Y without
    # moving X or W: the margin cannot see them.  Keeping the row space only
    # removes them, and pins Y to the smallest one that gives the same
    # blocks.
    _, _, rows, _ = _svd_split(np.vstack([prob.psi0, prob.psi1]) @ null_m)
    null_m = null_m @ rows
    u, s, rows, kernel = _svd_split(prob.psi0 @ null_m)
    pinv = rows @ (u / s[: u.shape[1]]).T
    H1 = prob.psi1 @ null_m
    return Quotient(null_m, s, pinv, kernel, H1 @ pinv, H1 @ kernel)


@lru_cache(maxsize=8)
def _sym_basis(nu: int) -> np.ndarray:
    """The identity, then a basis of the trace-zero symmetric nu x nu
    matrices: ``E_ii - E_ll`` for every i but the last index l, then
    ``E_ij + E_ji`` for i < j in row-major order.  Built once per nu and
    shared read-only."""
    B = np.zeros((nu * (nu + 1) // 2, nu, nu))
    B[0] = np.eye(nu)
    d = np.arange(nu - 1)
    B[1 + d, d, d] = 1.0
    B[1:nu, -1, -1] = -1.0
    i, j = np.triu_indices(nu, k=1)
    off = np.arange(nu, B.shape[0])
    B[off, i, j] = B[off, j, i] = 1.0
    B.flags.writeable = False
    return B


def _sdp_block(q: Quotient, basis) -> AffineBlock:
    """The block ``[[X, W], [W^T, X]]`` of the design program, with
    ``W = psi1 Y = gamma X + lam R`` (see :class:`Quotient`), affine in
    the free parameters.  Its constant term is
    X = I, R = 0 (so trace X = nu); its coefficients are the trace-zero
    symmetric basis ``basis = _sym_basis(nu)`` for X, then the unit entries
    of R in row-major order.  ``X > 0`` needs no block of its own: X is a
    principal submatrix, so by Cauchy interlacing its smallest eigenvalue is
    at least the whole block's."""
    nu, r = q.lam.shape
    nx = basis.shape[0]
    S = np.zeros((nx + r * nu, 2 * nu, 2 * nu))
    S[:nx, :nu, :nu] = S[:nx, nu:, nu:] = basis
    S[:nx, :nu, nu:] = q.gamma @ basis
    # Entry (a, b) of R puts column a of Lambda into column b of W.
    S[nx:, :nu, nu:] = np.einsum("ia,bj->abij", q.lam, np.eye(nu)).reshape(r * nu, nu, nu)
    S[:, nu:, :nu] = S[:, :nu, nu:].transpose(0, 2, 1)
    return AffineBlock(const=S[0], coeff=S[1:])


def _design_z(v, q: Quotient, basis) -> tuple[np.ndarray, np.ndarray]:
    """``(X, Y)`` at the parameters v of ``_sdp_block``: the program's X,
    the combination of the symmetric ``basis`` at v, and
    ``Y = null_m Z`` with ``Z = H0^+ X + N R``."""
    nu, r = q.pinv.shape[1], q.kernel.shape[1]
    nx = len(basis) - 1
    X = basis[0] + np.tensordot(v[:nx], basis[1:], axes=1)
    return X, q.null_m @ (q.pinv @ X + q.kernel @ v[nx:].reshape(r, nu))


def solve_feasibility_sdp(
    prob: SdpProblem,
    feas_tol: float = FEAS_TOL,
) -> SynthesisResult:
    """Margin-maximization solve of the design program.

    Feasible means the margin, the smallest eigenvalue of the stability
    block at the returned point, exceeds ``feas_tol``.  The interior-point
    solve stops at the first certified verdict: a feasible margin is a lower
    bound on the optimum (within a factor 2 of it, see ``gap_bound``); an
    infeasible solve stops once a dual point bounds the optimum at or below
    ``feas_tol``, so its margin is the certified value there, not the
    optimum.  A solve that ends without either certificate (``stalled``, or
    ``newton_budget`` after ``sdp.MAX_NEWTON`` Newton steps) is a
    ``numerical_failure``.  A rank-deficient ``psi0 null_m`` (the
    wide-output plant) is infeasible with margin -inf and no solve.  X and Y
    satisfy the equality constraint by construction up to round-off.
    """
    q = _elimination(prob)
    rank = q.rank
    rel = q.s / q.s[0] if rank else q.s[:0]  # rank 0: H0 is zero or empty
    kept = float(rel[rank - 1]) if rank else None
    dropped = float(rel[rank]) if rank < rel.size else None
    result = SynthesisResult(
        "infeasible", -np.inf, rank, kept, dropped, window_residual(prob)
    )
    if rank < prob.nu:
        # X = psi0 Y = H0 Z has rank below nu for every Z, and X is a
        # principal submatrix of the block: the margin is at most 0.
        return result

    basis = _sym_basis(prob.nu)
    block = _sdp_block(q, basis)
    result.free_params = block.nvar
    try:
        res = maximize_margin([block], feas_tol=feas_tol)
    except RuntimeError as exc:
        result.status, result.margin = "numerical_failure", np.nan
        result.error = str(exc)
        return result
    result.margin, result.stop = res.margin, res.stop
    result.iterations, result.gap_bound = res.newton_steps, res.gap_bound
    verdict = res.stop == "verdict"
    feasible = verdict and res.margin > feas_tol
    if not (feasible or verdict and res.margin + res.gap_bound <= feas_tol):
        result.status = "numerical_failure"
        return result

    X, Y = _design_z(res.v, q, basis)
    result.X, result.Y = X, Y
    result.mhat_residual = norm(prob.mhat @ Y)
    result.equality_residual = norm(prob.psi0 @ Y - X)
    if feasible:
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
    return K, G, norm(stacked_lhs - stacked_rhs)


def feasibility_precheck(prob: SdpProblem) -> dict:
    """Experiment-length guidance from designer data, before the solver: the
    data ``columns``, and ``columns_needed``, one more than the rows of
    ``[psi0; u1; mhat]`` (nu + m + d, d the regressor's degree); a run with
    fewer columns than that is too short for :func:`window_residual` to
    decide.  The rank decision (X is singular for every Y when
    ``psi0 null_m`` has rank below nu) is made and reported by
    ``solve_feasibility_sdp``."""
    stack_rows = prob.nu + prob.u1.shape[0] + prob.nhat_w
    return {"columns": prob.n_cols, "columns_needed": stack_rows + 1}
