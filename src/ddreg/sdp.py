"""Dense margin-maximization solver for small semidefinite feasibility
problems.

The problem shape is fixed and narrow: given symmetric matrix blocks that are
affine in a shared vector variable, maximize a scalar margin t subject to
every block dominating t * I.  A feasibility question then reduces to the
sign of the optimal margin, and the path may stop as soon as that sign is
certified against a threshold.  Solved by a log-det barrier path-following
method with damped Newton steps; always strictly feasible in (v, t) because t
may start arbitrarily negative, so no phase-1 is needed.

Each line-search trial forms every block value with one matrix-vector
product against the coefficient tensor, flattened once per solve, and
factors it with one Cholesky factorization (``M = L L^T``, read from the
lower triangle); a factorization that fails marks the trial as outside the
cone.  Each Newton step inverts the accepted factors once (LAPACK
``dtrtri``), so the congruences ``L^{-1} F_k L^{-T}`` of all coefficient
matrices come from one batched matmul, and factors and solves its Newton
system with LAPACK ``dpotrf`` and ``dpotrs`` after an explicit finiteness
test; at these sizes the checks and dispatch of scipy's
``cho_factor``/``cho_solve`` cost more than the arithmetic.  The trials keep
numpy's Cholesky: numpy and scipy may link different LAPACK builds whose
factors differ in the last bit, and on infeasible problems, whose last
stages run at round-off, such a difference changes line-search decisions.
These small-matrix routines stay fast whether or not BLAS threads are
pinned.  The backtracking line search tests the Armijo condition on the
*change* of the barrier, with the linear term ``-tau * t`` kept apart from
the log-det term: late in the path the barrier value is dominated by
``tau * t`` (about 1e5 at tau = 1e10), and a test on absolute values loses
the required decrease (about 1e-9) to round-off.

The solver is deterministic: identical inputs produce identical iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri


@dataclass
class AffineBlock:
    """Symmetric-matrix-valued affine map ``v -> const + sum_j v[j] coeff[j]``.

    ``const`` and every ``coeff[j]`` are symmetric; the solver's line-search
    trials read only their lower triangles.
    """

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
    margin: float  # smallest block eigenvalue at v (certified, not the optimum)
    converged: bool
    newton_steps: int
    line_search_evals: int  # trial barrier evaluations in the line searches
    gap_bound: float  # (sum of block sizes) / tau: optimum <= margin + gap_bound
    stop: str  # "verdict" | "gap_tol" | "newton_budget"
    log: list[str] = field(default_factory=list)


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def _shifted_chol(const: np.ndarray, coeff_flat: np.ndarray, v: np.ndarray, t: float):
    """Lower Cholesky factor of ``const + sum_j v[j] coeff[j] - t I``, with
    ``coeff_flat`` the coefficient tensor reshaped to ``(nvar, nb * nb)``,
    or None when the matrix is not positive definite (outside the cone)."""
    nb = const.shape[0]
    M = const + (v @ coeff_flat).reshape(nb, nb)
    M.flat[:: nb + 1] -= t
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
        Li, info = dtrtri(L, lower=1)
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
    feas_tol: float | None = None,
) -> MarginResult:
    """Maximize t such that ``block_i(v) - t I >= 0`` for all blocks.

    Path-following on ``-tau * t + sum_i (-log det(block_i(v) - t I))`` with
    tau increased geometrically.  After each centred stage the barrier gap
    bound ``gap = (sum of block sizes) / tau`` bounds how far the optimum
    lies above the stage's t.  With ``feas_tol`` given, the path stops at
    the first centred point whose eigenvalue-certified margin exceeds
    ``feas_tol`` and also exceeds ``gap`` (stop reason ``"verdict"``): the
    sign of the optimum is then settled, the optimum is below twice the
    returned margin, and the returned point does not depend on ``gap_tol``
    or on how far the path would have run.  Otherwise (no ``feas_tol``, or
    a problem where this never happens, such as an infeasible one) tau
    grows until ``gap`` drops below ``gap_tol`` (stop reason
    ``"gap_tol"``) and the margin is the optimum to within ``gap_tol``.
    Running out of ``max_newton`` first gives ``converged=False`` (stop
    reason ``"newton_budget"``).

    Each line-search trial costs one matrix-vector product and one Cholesky
    factorization per block; a failed factorization rejects the trial.  Each
    Newton system is assembled from one triangular inverse per block, tested
    for finiteness (a non-finite one raises ``RuntimeError``) and factored
    with LAPACK ``dpotrf``; a ridge is added while that factorization fails.
    A step of length s along the Newton direction is accepted when the
    barrier change ``(logdet_old - logdet_new) - tau * s * dt`` is at most
    ``-0.25 * s * decrement`` (Armijo), starting at s = 1 and halving.  The
    reported margin is re-certified at the returned point by an eigenvalue
    computation, independently of the path; ``gap_bound`` is ``gap`` at the
    returned point, so the optimum is at most ``margin + gap_bound``.
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
    # Trial block values come from one matrix-vector product each against
    # the coefficient tensor flattened once (a view, not a copy).
    trial_data = [(b.const, b.coeff.reshape(nvar, b.size**2)) for b in blocks]
    eye = np.eye(nvar + 1)

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
        for const, coeff_flat in trial_data:
            L = _shifted_chol(const, coeff_flat, v_phys, u[-1])
            if L is None:
                return None, None
            chols.append(L)
            val -= 2.0 * float(np.log(L.diagonal()).sum())
        return val, chols

    def certified_margin(u: np.ndarray) -> float:
        v_phys = u[:-1] * col_scale
        return min(_min_eig(b.value(v_phys)) for b in blocks)

    u = np.concatenate([v, [t]])
    tau = tau0
    steps = 0
    trials = 0
    converged = True
    stop = "gap_tol"
    while True:
        phi, chols = neg_logdet(u)
        if phi is None:
            raise RuntimeError("interior-point iterate left the cone")
        in_stage = 0
        while in_stage < stage_iters:
            grad, hess = _newton_system(ext, chols, tau)
            if not (np.isfinite(hess).all() and np.isfinite(grad).all()):
                raise RuntimeError("non-finite Newton system")
            ridge = 0.0
            while True:
                cho, info = dpotrf(hess + ridge * eye, lower=1, clean=0)
                if info == 0:
                    break
                ridge = max(10.0 * ridge, 1e-12 * (1.0 + np.trace(hess)))
            step, _ = dpotrs(cho, -grad, lower=1)
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
        gap = total_degree / tau
        if steps >= max_newton and gap > gap_tol:
            log.append(f"newton budget exhausted at tau={tau:.1e}")
            converged = False
            stop = "newton_budget"
            break
        if feas_tol is not None:
            stage_margin = certified_margin(u)
            if stage_margin > feas_tol and gap < stage_margin:
                stop = "verdict"
                break
        if gap <= gap_tol:
            break
        tau *= tau_growth

    v_out = u[:-1] * col_scale
    margin = certified_margin(u)
    log.append(
        f"tau={tau:.3e} margin={margin:.6e} newton_steps={steps} "
        f"gap_bound={gap:.1e} line_search_evals={trials} stop={stop}"
    )
    return MarginResult(
        v=v_out,
        margin=margin,
        converged=converged,
        newton_steps=steps,
        line_search_evals=trials,
        gap_bound=gap,
        stop=stop,
        log=log,
    )
