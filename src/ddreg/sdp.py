"""Dense margin-maximization solver for small semidefinite feasibility
problems.

The problem shape is fixed and narrow: given symmetric matrix blocks that are
affine in a shared vector variable, maximize a scalar margin t subject to
every block dominating t * I.  A feasibility question then reduces to the
sign of the optimal margin.  Solved by a log-det barrier path-following
method with damped Newton steps; always strictly feasible in (v, t) because t
may start arbitrarily negative, so no phase-1 is needed.

Each Newton step factors every block once (Cholesky, ``M = L L^T``) and
inverts the triangular factor once (LAPACK ``dtrtri``); the congruences
``L^{-1} F_k L^{-T}`` of all coefficient matrices then come from one batched
matmul.  These small-matrix routines stay fast whether or not BLAS threads
are pinned.  The backtracking line search tests the Armijo condition on the
*change* of the barrier, with the linear term ``-tau * t`` kept apart from
the log-det term: late in the path the barrier value is dominated by
``tau * t`` (about 1e5 at tau = 1e10), and a test on absolute values loses
the required decrease (about 1e-9) to round-off.

The solver is deterministic: identical inputs produce identical iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


@dataclass
class AffineBlock:
    """Symmetric-matrix-valued affine map ``v -> const + sum_j v[j] coeff[j]``."""

    const: np.ndarray  # (nb, nb)
    coeff: np.ndarray  # (nvar, nb, nb)

    def __post_init__(self):
        self.const = np.asarray(self.const, dtype=float)
        self.coeff = np.asarray(self.coeff, dtype=float)
        nb = self.const.shape[0]
        if self.const.shape != (nb, nb):
            raise ValueError("block constant must be square")
        if self.coeff.ndim != 3 or self.coeff.shape[1:] != (nb, nb):
            raise ValueError("coefficient tensor must be (nvar, nb, nb)")

    @property
    def size(self) -> int:
        return self.const.shape[0]

    @property
    def nvar(self) -> int:
        return self.coeff.shape[0]

    def value(self, v: np.ndarray) -> np.ndarray:
        M = self.const + np.tensordot(v, self.coeff, axes=(0, 0)) if v.size else self.const.copy()
        return 0.5 * (M + M.T)


@dataclass
class MarginResult:
    v: np.ndarray
    margin: float
    converged: bool
    newton_steps: int
    line_search_evals: int  # trial barrier evaluations in the line searches
    log: list[str] = field(default_factory=list)


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def _chol(M: np.ndarray):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _newton_system(
    ext: list[np.ndarray], chols: list[np.ndarray], tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier at the point whose block Cholesky
    factors are ``chols``; ``ext`` holds each block's coefficient tensor
    extended by the margin coordinate.
    """
    nvar = ext[0].shape[0]
    grad = np.zeros(nvar)
    grad[-1] = -tau
    hess = np.zeros((nvar, nvar))
    for F, L in zip(ext, chols):
        Li, info = scipy.linalg.lapack.dtrtri(L, lower=1)
        if info != 0:
            raise RuntimeError("singular Cholesky factor in the Newton system")
        sym = Li @ F @ Li.T
        grad -= np.trace(sym, axis1=1, axis2=2)
        flat = sym.reshape(nvar, -1)
        hess += flat @ flat.T
    return grad, hess


def maximize_margin(
    blocks: list[AffineBlock],
    gap_tol: float = 1e-8,
    tau0: float = 1.0,
    tau_growth: float = 10.0,
    max_newton: int = 2000,
    newton_tol: float = 1e-8,
    stage_iters: int = 80,
) -> MarginResult:
    """Maximize t such that ``block_i(v) - t I >= 0`` for all blocks.

    Path-following on ``-tau * t + sum_i (-log det(block_i(v) - t I))`` with
    tau increased geometrically until the barrier gap bound
    ``(sum of block sizes) / tau`` drops below ``gap_tol``.  Each Newton
    system is assembled from one triangular inverse per block.  A step of
    length s along the Newton direction is accepted when the barrier change
    ``(logdet_old - logdet_new) - tau * s * dt`` is at most
    ``-0.25 * s * decrement`` (Armijo), starting at s = 1 and halving.  The
    reported margin is re-certified at the returned point by an eigenvalue
    computation, independently of the path.
    """
    if not blocks:
        raise ValueError("need at least one block")
    nvar = blocks[0].nvar
    for b in blocks:
        if b.nvar != nvar:
            raise ValueError("blocks disagree on the variable dimension")

    total_degree = sum(b.size for b in blocks)
    log: list[str] = []

    # Per-variable scaling equalizes the coefficient-tensor norms; this is an
    # exact reparameterization (margins unchanged) that conditions the Newton
    # system when data columns live on very different scales.
    col_scale = np.ones(nvar)
    for j in range(nvar):
        norm_j = max(np.linalg.norm(b.coeff[j]) for b in blocks)
        if norm_j > 0:
            col_scale[j] = 1.0 / norm_j

    # Coefficient tensors extended by the margin coordinate (coefficient -I).
    ext = []
    for b in blocks:
        scaled = b.coeff * col_scale[:, None, None] if nvar else b.coeff
        tcoef = -np.eye(b.size)[None, :, :]
        ext.append(np.concatenate([scaled, tcoef], axis=0) if nvar else tcoef)

    v = np.zeros(nvar)
    t = min(_min_eig(b.value(v)) for b in blocks)
    t = t - 1.0 - 0.05 * abs(t)

    def neg_logdet(u: np.ndarray):
        """(-sum_i log det(block_i - t I), cholesky factors), or (None, None)
        outside the domain.

        The iterate u carries the scaled variables; physical coordinates are
        recovered through col_scale.
        """
        chols = []
        val = 0.0
        v_phys = u[:-1] * col_scale
        for b in blocks:
            M = b.value(v_phys) - u[-1] * np.eye(b.size)
            L = _chol(M)
            if L is None:
                return None, None
            chols.append(L)
            val -= 2.0 * float(np.sum(np.log(np.diag(L))))
        return val, chols

    u = np.concatenate([v, [t]])
    tau = tau0
    steps = 0
    trials = 0
    converged = True
    while True:
        phi, chols = neg_logdet(u)
        if phi is None:
            raise RuntimeError("interior-point iterate left the cone")
        in_stage = 0
        while in_stage < stage_iters:
            grad, hess = _newton_system(ext, chols, tau)
            ridge = 0.0
            while True:
                try:
                    cho = scipy.linalg.cho_factor(
                        hess + ridge * np.eye(nvar + 1), lower=True
                    )
                    break
                except np.linalg.LinAlgError:
                    ridge = max(10.0 * ridge, 1e-12 * (1.0 + np.trace(hess)))
            step = scipy.linalg.cho_solve(cho, -grad)
            decrement = float(-grad @ step)
            if 0.5 * decrement <= newton_tol:
                # Includes tiny negative values from round-off: centered enough.
                break

            s = 1.0
            accepted = False
            while s > 1e-13:
                trial = u + s * step
                phi_new, chols_new = neg_logdet(trial)
                trials += 1
                if (
                    phi_new is not None
                    and (phi_new - phi) - tau * s * step[-1] <= -0.25 * s * decrement
                ):
                    u, phi, chols = trial, phi_new, chols_new
                    accepted = True
                    break
                s *= 0.5
            steps += 1
            in_stage += 1
            if not accepted:
                # Progress below float resolution: the stage is as centered
                # as the arithmetic allows.
                break
            if steps >= max_newton:
                break
        if steps >= max_newton and total_degree / tau > gap_tol:
            log.append(f"newton budget exhausted at tau={tau:.1e}")
            converged = False
            break
        if total_degree / tau <= gap_tol:
            break
        tau *= tau_growth

    v_out = u[:-1] * col_scale
    margin = min(_min_eig(b.value(v_out)) for b in blocks)
    log.append(
        f"tau={tau:.3e} margin={margin:.6e} newton_steps={steps} "
        f"gap_bound={total_degree / tau:.1e} line_search_evals={trials}"
    )
    return MarginResult(
        v=v_out,
        margin=margin,
        converged=converged,
        newton_steps=steps,
        line_search_evals=trials,
        log=log,
    )
