"""Design program: assemble and solve the feasibility SDP on designer-visible
data only, and extract the feedback gain.

The decision variables are a symmetric matrix X and a rectangular Y tied by
``[X; 0] = [psi0; mhat] Y`` with the stability block
``[[X, psi1 Y], [(psi1 Y)^T, X]] > 0``, which implies ``X > 0`` (see
``_sdp_block``).  The equality is eliminated exactly: Y is parameterized
on the nullspace of ``mhat``, taken modulo the kernel of ``[psi0; psi1]``
(directions that move Y without moving either X or ``psi1 Y``), X is defined
as ``psi0 Y`` with symmetry imposed linearly, and the scale is pinned by
``trace X = nu`` (the constraints are jointly homogeneous in (X, Y), so the
normalization is lossless).  What remains is a margin maximization over one
affine symmetric block, handed to a pluggable backend; the built-in dense
interior-point solver is the default.

The design question is one of feasibility: any strictly feasible (X, Y)
yields a valid gain.  The interior-point solve therefore stops as soon as a
verdict is certified (margin above ``feas_tol`` and above the gap bound, or
a dual bound at or below ``feas_tol``), a feasible one at a central point.
Driving the margin to its optimum instead leaves X nearly singular and the
gain ``K = u1 Y X^{-1}`` ill-determined: it would move with round-off in
the data and with the solver tolerance, although the homogeneity says it
should not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exo_factorization import Regressor
from .experiment import DataMatrices
from .numerics import DEFAULT_RANK_RTOL, as_matrix, rank_with_tol
from .sdp import AffineBlock, maximize_margin

DEFAULT_FEAS_TOL = 1e-6


@dataclass
class SolverOptions:
    feas_tol: float = DEFAULT_FEAS_TOL
    gap_tol: float = 1e-9
    max_newton: int = 400
    backend: str = "interior_point"


@dataclass
class SdpProblem:
    """Designer-visible problem data.  Never holds the exosignal stack."""

    u1: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    mhat: np.ndarray

    def __post_init__(self):
        self.u1 = as_matrix(self.u1, "u1")
        self.psi0 = as_matrix(self.psi0, "psi0")
        self.psi1 = as_matrix(self.psi1, "psi1")
        self.mhat = as_matrix(self.mhat, "mhat")
        if self.psi1.shape != self.psi0.shape:
            raise ValueError("psi0 and psi1 must have identical shapes")
        N = self.psi0.shape[1]
        if self.u1.shape[1] != N or (self.mhat.size and self.mhat.shape[1] != N):
            raise ValueError("data matrices disagree on the number of columns")

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
    status: str  # feasible | infeasible | numerical_failure
    margin: float
    X: np.ndarray | None = None
    Y: np.ndarray | None = None
    K: np.ndarray | None = None
    diagnostics: list[str] = field(default_factory=list)
    # Interior-point certificate: the optimal margin is at most
    # margin + gap_bound.  None when no interior-point solve produced the
    # point.
    gap_bound: float | None = None
    # G = Y X^{-1} and the norm defect of the interpolation identity it was
    # checked against; set with K.
    G: np.ndarray | None = None
    gain_defect: float | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "margin": self.margin,
            "gain": None if self.K is None else self.K.tolist(),
            "diagnostics": list(self.diagnostics),
        }


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


def _row_and_null(M: np.ndarray, rtol: float = DEFAULT_RANK_RTOL):
    """Orthonormal bases (columns) of the row space and of the right
    nullspace of ``M``, from one SVD at the package-wide rank tolerance."""
    if M.shape[0] == 0:
        return np.zeros((M.shape[1], 0)), np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M)
    if s.size and s[0] > 0:
        rank = int(np.count_nonzero(s > rtol * s[0]))
    else:
        rank = 0
    return vh[:rank].T.copy(), vh[rank:].T.copy()


def _nullspace(M: np.ndarray, rtol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the right nullspace (columns), at the package-wide
    rank tolerance."""
    return _row_and_null(M, rtol)[1]


def _symmetry_system(H0: np.ndarray):
    """Linear system ``E z = rhs`` on ``z = vec(Z)``, ``Z`` in R^(q x nu) with
    index (a, b) -> a * nu + b, stating that ``H0 Z`` is symmetric (one row
    per pair i < j, in row-major order) and has trace nu (last row).
    """
    nu, q = H0.shape
    n_sym = nu * (nu - 1) // 2
    E = np.zeros((n_sym + 1, q * nu))
    rhs = np.zeros(n_sym + 1)
    i, j = np.triu_indices(nu, k=1)
    pairs = np.arange(n_sym)
    # View of the symmetry rows as (row, a, b); no entry is written twice.
    E_sym = E[:n_sym].reshape(n_sym, q, nu)
    E_sym[pairs, :, j] += H0[i]
    E_sym[pairs, :, i] -= H0[j]
    E[n_sym] += H0.T.ravel()
    rhs[n_sym] = float(nu)
    return E, rhs


def _elimination(prob: SdpProblem):
    """Linear-equality elimination.

    Returns (null_m, z0, basis) where ``Y = null_m @ Z``, the vectorized Z
    splits as ``z0 + basis @ zeta``, and z0/basis satisfy the symmetry of
    ``psi0 Y`` and ``trace(psi0 Y) = nu``.  Returns None when the equality
    system is inconsistent (no normalized point exists at all).
    """
    null_m = _nullspace(prob.mhat)
    # Directions of null_m in the kernel of [psi0; psi1] move Y without
    # moving X or W: the margin cannot see them.  Keeping the row space only
    # removes them before the symmetry system is built, and pins Y to the
    # smallest one that gives the same blocks.
    rows, _ = _row_and_null(np.vstack([prob.psi0, prob.psi1]) @ null_m)
    null_m = null_m @ rows
    if null_m.shape[1] == 0:
        return None
    E, rhs = _symmetry_system(prob.psi0 @ null_m)

    z0, *_ = np.linalg.lstsq(E, rhs, rcond=None)
    if np.linalg.norm(E @ z0 - rhs) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        return None
    basis = _nullspace(E)
    return null_m, z0, basis


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _surfaces(H0: np.ndarray, H1: np.ndarray, cols: np.ndarray):
    """Block images of the vectorized ``Z`` in each column of ``cols``:
    stacks of ``X_k = sym(H0 Z_k)`` and ``W_k = H1 Z_k``, one matmul each."""
    nu, q = H0.shape
    Z = cols.T.reshape(-1, q, nu)
    P = H0 @ Z
    return 0.5 * (P + P.transpose(0, 2, 1)), H1 @ Z


def _sdp_block(H0: np.ndarray, H1: np.ndarray, cols: np.ndarray) -> AffineBlock:
    """The block ``[[X, W], [W^T, X]]`` of the design program, affine in the
    parameters: the first column of ``cols`` gives the constant term, the
    others the coefficients (see ``_surfaces``).  ``X > 0`` needs no block
    of its own: X is a principal submatrix, so by Cauchy interlacing its
    smallest eigenvalue is at least the whole block's."""
    X, W = _surfaces(H0, H1, cols)
    k, nu, _ = X.shape
    S = np.empty((k, 2 * nu, 2 * nu))
    S[:, :nu, :nu] = X
    S[:, :nu, nu:] = W
    S[:, nu:, :nu] = W.transpose(0, 2, 1)
    S[:, nu:, nu:] = X
    return AffineBlock(const=S[0], coeff=S[1:])


def solve_feasibility_sdp(
    prob: SdpProblem, opts: SolverOptions | None = None
) -> SynthesisResult:
    """Margin-maximization solve of the design program.

    Feasible means the margin, the smallest eigenvalue of the stability
    block at the returned point, exceeds ``opts.feas_tol``.  The
    interior-point backend stops at the first certified verdict: a feasible
    margin is a lower bound on the optimum (within a factor 2 of it, see
    ``gap_bound``); an infeasible solve stops once a dual point bounds the
    optimum at or below ``opts.feas_tol``, so its margin is the certified
    value there (about -3e-8 on the wide-output plant), not the optimum near
    zero.  Otherwise it runs to ``opts.gap_tol``.  X and Y satisfy the
    equality constraint by construction up to round-off.
    """
    opts = opts or SolverOptions()
    nu, N = prob.nu, prob.n_cols
    diagnostics = [f"dims: nu={nu} N={N} nhat_w={prob.nhat_w}"]

    elim = _elimination(prob)
    if elim is None:
        diagnostics.append(
            "equality constraints admit no normalized solution "
            "(trace(psi0 Y) = nu unreachable); problem infeasible"
        )
        return SynthesisResult("infeasible", -np.inf, diagnostics=diagnostics)
    null_m, z0, basis = elim
    q = null_m.shape[1]
    diagnostics.append(f"eliminated problem: {basis.shape[1]} free parameters (q={q})")

    H0, H1 = prob.psi0 @ null_m, prob.psi1 @ null_m
    blocks = [_sdp_block(H0, H1, np.column_stack([z0, basis]))]

    if opts.backend == "interior_point":
        try:
            res = maximize_margin(
                blocks,
                gap_tol=opts.gap_tol,
                max_newton=opts.max_newton,
                feas_tol=opts.feas_tol,
            )
        except RuntimeError as exc:
            diagnostics.append(f"interior point failed: {exc}")
            return SynthesisResult("numerical_failure", np.nan, diagnostics=diagnostics)
        diagnostics.extend(res.log)
        if not res.converged:
            return SynthesisResult("numerical_failure", res.margin, diagnostics=diagnostics)
        zeta = res.v
        margin = res.margin
        gap_bound = res.gap_bound
    elif opts.backend == "cvxpy":
        zeta, margin, message = _solve_with_cvxpy(blocks)
        gap_bound = None
        diagnostics.append(message)
        if zeta is None:
            return SynthesisResult("numerical_failure", np.nan, diagnostics=diagnostics)
    else:
        raise ValueError(f"unknown solver backend: {opts.backend}")

    Z = (z0 + basis @ zeta).reshape(q, nu)
    Y = null_m @ Z
    X = _sym(prob.psi0 @ Y)

    diagnostics.append(f"margin={margin:.6e} feas_tol={opts.feas_tol:.1e}")
    if margin <= opts.feas_tol:
        return SynthesisResult(
            "infeasible", margin, X, Y, diagnostics=diagnostics, gap_bound=gap_bound
        )

    resid_m = np.linalg.norm(prob.mhat @ Y) if prob.nhat_w else 0.0
    resid_eq = np.linalg.norm(prob.psi0 @ Y - X)
    diagnostics.append(
        f"residuals: |mhat Y|={resid_m:.2e} |psi0 Y - X|={resid_eq:.2e}"
    )
    K, G, gain_defect = extract_gain(prob, X, Y)
    return SynthesisResult(
        "feasible", margin, X, Y, K, diagnostics, gap_bound, G=G, gain_defect=gain_defect
    )


def _solve_with_cvxpy(blocks):
    """Optional external conic backend over the same eliminated variables."""
    try:
        import cvxpy as cp
    except ImportError:
        return None, float("nan"), "cvxpy backend unavailable"
    n_free = blocks[0].nvar
    zeta = cp.Variable(n_free)
    t = cp.Variable()
    cons = []
    for b in blocks:
        expr = cp.Constant(b.const)
        for k in range(n_free):
            expr = expr + zeta[k] * b.coeff[k]
        cons.append(expr - t * np.eye(b.size) >> 0)
    problem = cp.Problem(cp.Maximize(t), cons)
    try:
        problem.solve()
    except cp.error.SolverError as exc:
        return None, float("nan"), f"cvxpy failed: {exc}"
    if zeta.value is None or t.value is None:
        return None, float("nan"), f"cvxpy status: {problem.status}"
    v = np.asarray(zeta.value).reshape(-1)
    margin = min(float(np.linalg.eigvalsh(b.value(v))[0]) for b in blocks)
    return v, margin, f"cvxpy status: {problem.status}"


def extract_gain(
    prob: SdpProblem, X, Y, identity_tol: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gain ``K = u1 G`` with ``G = Y X^{-1}``, with the stacked interpolation
    identity ``[K; I; 0] = [u1; psi0; mhat] G`` verified before returning.

    Returns ``(K, G, defect)``, the defect being the norm of the identity's
    residual.
    """
    X = as_matrix(X, "X", square=True)
    Y = as_matrix(Y, "Y")
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
    defect = np.linalg.norm(stacked_lhs - stacked_rhs)
    if defect > identity_tol:
        raise RuntimeError(
            f"gain interpolation identity violated: defect {defect:.2e}"
        )
    return K, G, float(defect)


@dataclass
class PrecheckReport:
    messages: list[str]
    provably_infeasible: bool


def feasibility_precheck(
    p: int,
    ell: int,
    mhat: np.ndarray,
    psi0: np.ndarray,
    n_truth: int | None = None,
) -> PrecheckReport:
    """Cheap feasibility diagnostics run before the solver.

    With ground-truth access, ``p * ell > n`` and a full-row-rank regressor
    certify infeasibility.  Designer-side, a rank-deficient ``[psi0; mhat]``
    stack usually prevents the equality constraint from producing X > 0
    (heuristic, not a proof), and short experiments are flagged.
    """
    mhat = as_matrix(mhat, "mhat")
    psi0 = as_matrix(psi0, "psi0")
    nu, N = psi0.shape
    messages = []
    provably = False
    if n_truth is not None and p * ell > n_truth:
        provably = True
        messages.append(
            f"provably infeasible: full-row-rank regressor with p*ell = "
            f"{p * ell} > n = {n_truth}"
        )
    stack = np.vstack([psi0, mhat]) if mhat.size else psi0
    need = nu + mhat.shape[0]
    have = rank_with_tol(stack) if stack.size else 0
    if have < need:
        messages.append(
            f"heuristic: rank [psi0; mhat] = {have} < {need}; the equality "
            "constraint generically cannot produce a positive definite X"
        )
    if N < need:
        messages.append(
            f"experiment-length guidance: {N} data columns < {need} "
            "(rows of psi0 plus reduced regressor); collect a longer run"
        )
    return PrecheckReport(messages=messages, provably_infeasible=provably)
