"""Dense margin-maximization solver for small semidefinite feasibility
problems: maximize t such that one symmetric block ``F(v)``, affine in a
vector v, dominates t * I.  A feasibility question reduces to the sign of
the optimal margin, and the solve stops once that sign is certified (or
when it cannot go on).  It imports no other module of the package.

Primal-dual interior-point method with the HKM direction and Mehrotra
predictor-corrector steps (Helmberg, Rendl, Vanderbei and Wolkowicz 1996;
Todd, Toh and Tütüncü 1998; Mehrotra 1992).  The primal iterate is
``y = (v, t)``, with the slack ``S = F(v) - t I`` recomputed from it, so the
primal side is always feasible and needs no phase-1; the dual iterate
``Z > 0`` starts central, ``Z S = mu I``, and is driven towards
``tr(F_j Z) = 0`` and ``tr Z = 1``.  Each iteration forms the Schur
complement ``M_ij = <L_S^{-1} A_i L_Z, L_S^{-1} A_j L_Z>`` (``A`` the
coefficients extended by the margin coordinate) from one ``dtrtri``, two
GEMMs over all i and one Gram product, factors it once with ``dpotrf``, solves
it twice (a first-order direction, then the same system with its
second-order term), and steps 0.95 of the way to the cone boundary.  Both
verdicts are certified: the margin from below by an eigenvalue, the optimum
from above by a dual point (see ``maximize_margin``).  Identical inputs
produce identical iterates.  The outcome is returned as data
(``MarginResult``: the point, the margin, its gap bound, the stop reason and
the iteration count), never as text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dpstrf, dsyevr, dtrtri

GAP_TOL = 1e-8  # gap bound at which a solve without feas_tol stops
MAX_NEWTON = 2000  # primal-dual iterations before the solve gives up
STEP_FRACTION = 0.95  # share of the distance to the cone boundary taken
CENTRE_TOL = 1e-6  # off-centre distance at which the returned point is centred
MAX_CENTRING = 8  # centring steps before the point is returned regardless


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


@dataclass
class AffineBlock:
    """Symmetric-matrix-valued affine map ``v -> const + sum_j v[j] coeff[j]``.

    ``const`` and every ``coeff[j]`` are symmetric.
    """

    const: np.ndarray  # (nb, nb)
    coeff: np.ndarray  # (nvar, nb, nb)

    @property
    def size(self) -> int:
        return self.const.shape[0]

    @property
    def nvar(self) -> int:
        return self.coeff.shape[0]

    def value(self, v: np.ndarray) -> np.ndarray:
        flat = self.coeff.reshape(self.nvar, self.size**2)
        return _sym(self.const + (v @ flat).reshape(self.const.shape))


@dataclass
class MarginResult:
    v: np.ndarray
    margin: float  # smallest block eigenvalue at v (certified, not the optimum)
    newton_steps: int  # primal-dual iterations
    gap_bound: float  # optimum <= margin + gap_bound; inf without a dual point
    stop: str  # "verdict" | "gap_tol" | "unbounded" | "stalled" | "newton_budget"

    @property
    def converged(self) -> bool:
        return self.stop not in ("stalled", "newton_budget")


def _chol(M: np.ndarray):
    """Lower Cholesky factor of ``M`` (read from its lower triangle), or None
    when ``M`` is not numerically positive definite."""
    L, info = dpotrf(M, lower=1)
    return L if info == 0 else None


def _tri_inv(L: np.ndarray) -> np.ndarray:
    Li, info = dtrtri(L, lower=1)
    if info != 0:
        raise RuntimeError("singular Cholesky factor in the Newton system")
    return Li


def _lam_min(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric ``M`` (read from one triangle)."""
    return dsyevr(M, compute_v=0, range="I", il=1, iu=1)[0][0]


def _max_step(Li: np.ndarray, D: np.ndarray) -> float:
    """Largest a with ``L L^T + a D`` positive semidefinite, given ``Li`` the
    inverse of the factor ``L``; inf when D is itself semidefinite."""
    lam = _lam_min(Li @ D @ Li.T)
    return -1.0 / lam if lam < 0 else np.inf


def _off_centre(z_chol: np.ndarray, S: np.ndarray, mu: float) -> float:
    """``||L_Z^T S L_Z / mu - I||_F``: zero exactly at the central point
    ``Z S = mu I``."""
    return float(np.linalg.norm(z_chol.T @ S @ z_chol / mu - np.eye(len(S))))


def _col_scale(block: AffineBlock) -> np.ndarray:
    """Per-variable scaling ``1 / ||coeff[j]||_F`` (1 for a variable the
    block does not depend on).  It equalizes the coefficient-tensor norms,
    an exact reparameterization (margins unchanged) that conditions the
    Schur complement when data columns live on very different scales."""
    norms = np.einsum("jab,jab->j", block.coeff, block.coeff)
    scale = np.ones(norms.shape)
    np.divide(1.0, np.sqrt(norms), out=scale, where=norms > 0)
    return scale


def _schur_complement(A: np.ndarray, s_inv: np.ndarray, z_chol: np.ndarray, work=None):
    """HKM Schur complement ``M_ij = tr(A_i Z A_j S^{-1})``: the Gram matrix
    of the ``L_S^{-1} A_i L_Z``, formed for all i by two GEMMs on the
    transpose of the ``(k n, n)`` view of the symmetric coefficients ``A``
    (k, n, n).  ``s_inv`` is ``L_S^{-1}``, ``z_chol`` is ``L_Z``; ``work``,
    two ``(n, k n)`` arrays a solve reuses, takes the products."""
    k, n, _ = A.shape
    P, Q = work if work is not None else (np.empty((n, k * n)), np.empty((n, k * n)))
    np.matmul(s_inv, A.reshape(k * n, n).T, out=P)  # [d, (i, a)]: L_S^{-1} A_i
    np.matmul(z_chol.T, P.reshape(n * k, n).T, out=Q)  # [c, (d, i)]: ... L_Z
    R = Q.reshape(n * n, k)
    return R.T @ R


def maximize_margin(
    blocks: list[AffineBlock],
    gap_tol: float = GAP_TOL,
    max_newton: int = MAX_NEWTON,
    feas_tol: float | None = None,
) -> MarginResult:
    """Maximize t such that ``F(v) - t I >= 0``, with ``blocks = [F]``: a
    list of exactly one block (several fold into one block-diagonal block
    with the same margins).  Both sides of the optimum are certified at
    every iterate.  The *margin* is the smallest eigenvalue of F at v.  The
    *bound* is ``tr(F_0 Z)`` at the projection of Z onto ``tr(F_j Z) = 0``,
    ``tr Z = 1`` (through the Gram matrix of the extended coefficients,
    factored once per solve), accepted when it passes a Cholesky test: it
    is then a dual point and bounds the optimum by weak duality.
    ``gap_bound`` is the best bound so far minus the margin (inf without a
    dual point), so the optimum lies in ``[margin, margin + gap_bound]``.

    The primal start is the point of least Frobenius norm on the extended
    affine set ``{F(v) - t I}`` (one solve with the Gram factor), with t
    then lowered below the smallest eigenvalue there, so ``S0 > 0``; the
    dual start is the central ``S0^{-1} / tr S0^{-1}`` (``Z0 S0 = mu0 I``),
    from S0's Cholesky factor.  Every step after it (the HKM and Mehrotra
    directions, the column scaling, the centring, both certificates) is
    invariant under an invertible linear change and a shift of the
    variables, and so is this start, so the returned point depends on the
    set ``{F(v)}`` alone, not on its coordinates or offset.

    Inside the loop the margin is read off the slack, ``lam_min(S) + t``;
    the returned margin is ``lam_min(F(v))`` evaluated once at the returned
    v, and ``gap_bound`` is taken against it.  Stop reasons:

    - ``"verdict"`` (with ``feas_tol``): the margin exceeds ``feas_tol`` and
      ``gap_bound < margin`` (feasible; the optimum is below twice the
      margin), or the bound is at most ``feas_tol`` (infeasible).  Before a
      feasible verdict is returned the iterate is centred: Newton steps to the
      central point ``Z S = mu_c I``, ``mu_c`` the power of 2 at or below the
      current ``mu``, each with the corrector's second-order term, until
      ``_off_centre`` is at most ``CENTRE_TOL`` (or after ``MAX_CENTRING``
      steps), and the verdict is checked again there, on the margin it
      returns.  The predictor-corrector iterates carry the round-off of their
      whole path (a 1e-15 relative change in the paper block's constant moved
      v by 3e-7 relative at the verdict); the central point at a
      data-independent ``mu_c`` does not, so the gain read off it is well
      determined, and it depends on neither ``gap_tol`` nor how far the solve
      would have run.
    - ``"gap_tol"`` (without ``feas_tol`` only): ``gap_bound <= gap_tol``;
      with it, only a verdict or a stop below ends the solve.
    - ``"unbounded"``: -I lies in the span of the coefficients, or a step
      direction grows the block while t increases; no dual point exists.
    - ``"stalled"`` (``converged=False``): a step left the cone in floating
      point first; the last iterate inside it is returned.  So end problems
      whose dual points are all singular, with ``gap_bound`` inf.
    - ``"newton_budget"`` (``converged=False``): ``max_newton`` iterations.

    Variables whose coefficients depend linearly on the others' (pivoted
    Cholesky of the Gram matrix) are held at zero.  The Schur complement is
    tested for finiteness (``RuntimeError`` otherwise) and factored with
    ``dpotrf``, with a ridge added while that fails.
    """
    if len(blocks) != 1:
        raise ValueError(f"need a list of one block, got {len(blocks)}")
    (block,) = blocks
    nvar, n = block.nvar, block.size
    C = block.const

    # The solve's one copy of the coefficients, in the scaled variables and
    # extended by the margin coordinate (coefficient -I); F is its flat view.
    # A variable whose scaled coefficients depend linearly on the others' is
    # held at zero, which keeps the Schur complement and Gram nonsingular.
    col_scale = _col_scale(block)
    A = np.empty((nvar + 1, n, n))
    np.multiply(block.coeff, col_scale[:, None, None], out=A[:-1])
    A[-1] = -np.eye(n)
    F = A.reshape(nvar + 1, -1)
    gram = F @ F.T
    _, piv, rank, _ = dpstrf(gram[:-1, :-1], lower=1)
    free = np.sort(piv[:rank] - 1)
    if rank < nvar:
        keep = np.append(free, nvar)
        A, gram = A[keep], gram[np.ix_(keep, keep)]
        F = A.reshape(keep.size, -1)
    k = rank + 1
    target = np.zeros(k)  # the dual equalities read (tr(A_i Z))_i = -target
    target[-1] = 1.0
    gram_chol = _chol(gram)
    work = (np.empty((n, k * n)), np.empty((n, k * n)))

    def dual_bound(Z: np.ndarray) -> float:
        """tr(F_0 Z) at the projection of Z onto the dual equalities, or inf
        when it is not positive definite.  The projection does not replace
        the iterate: as the iterate it moved the paper gain by 4e-7 relative
        between rescaled copies of one problem."""
        coef, _ = dpotrs(gram_chol, F @ Z.ravel() + target, lower=1)
        Zp = Z - (coef @ F).reshape(n, n)
        return np.inf if _chol(Zp) is None else float(np.vdot(C, Zp))

    def directions(dy, S_inv, Z, sigma_mu, second=None):
        """Slack and dual steps for the Schur-system solution dy; ``second``
        holds the corrector's second-order terms."""
        dS = (dy @ F).reshape(n, n)
        dZ = sigma_mu * S_inv - Z - _sym(Z @ dS @ S_inv)
        if second is not None:
            dZ -= second
        return dS, dZ

    # The start point of the docstring: least norm on the extended set.
    y = np.zeros(k)
    if gram_chol is not None:
        y, _ = dpotrs(gram_chol, -(F @ C.ravel()), lower=1)
    y[-1] = _lam_min(_sym(C + (y[:-1] @ F[:-1]).reshape(n, n)))
    y[-1] -= 1.0 + 0.05 * abs(y[-1])
    # The central dual start S0^{-1} / tr S0^{-1}, so Z0 S0 = mu0 I.
    s_inv_L = _tri_inv(_chol(C + (y @ F).reshape(n, n)))
    Z = s_inv_L.T @ s_inv_L
    Z /= np.trace(Z)

    v = np.zeros(nvar)
    steps = 0
    accepted = y  # the last iterate inside the cone
    bound = gap = np.inf
    centre_mu = None  # set while centring (see the docstring)
    centring = 0
    # A singular Gram matrix means -I lies in the span of the variables'
    # coefficients: t grows without bound along that combination.
    stop = "unbounded" if gram_chol is None else None
    while stop is None:
        S = C + (y @ F).reshape(n, n)
        s_chol, z_chol = _chol(S), _chol(Z)
        if s_chol is None or z_chol is None:
            if not steps:
                raise RuntimeError("interior-point iterate left the cone")
            # A step short of the boundary left the cone in floating point:
            # the iterates have reached round-off.  Keep the accepted iterate.
            stop = "stalled"
            break
        accepted = y
        # S = F(v) - t I is at hand, so the margin at v is lam_min(S) + t.
        margin = _lam_min(S) + y[-1]
        # Every dual point bounds the optimum, so the best bound so far
        # holds at this iterate too.
        bound = min(bound, dual_bound(Z))
        gap = bound - margin
        mu = float(np.vdot(Z, S)) / n
        feasible = feas_tol is not None and margin > feas_tol and gap < margin
        if feasible and centre_mu is None:
            centre_mu, centring = 2.0 ** np.floor(np.log2(mu)), 0
        centred = centre_mu is not None and (
            centring >= MAX_CENTRING or _off_centre(z_chol, S, centre_mu) <= CENTRE_TOL
        )
        if centred:
            centre_mu = None
            v[free] = y[:-1] * col_scale[free]  # judged on the margin returned
            feasible = feasible and _lam_min(block.value(v)) > feas_tol
        if (centred and feasible) or (feas_tol is not None and bound <= feas_tol):
            stop = "verdict"
        elif feas_tol is None and gap <= gap_tol:
            stop = "gap_tol"
        elif steps >= max_newton:
            stop = "newton_budget"
        if stop is not None:
            break

        s_inv_L = _tri_inv(s_chol)
        z_inv_L = _tri_inv(z_chol)
        M = _schur_complement(A, s_inv_L, z_chol, work)
        if not np.isfinite(M).all():
            raise RuntimeError("non-finite Newton system")
        cho, info = dpotrf(M, lower=1, clean=0)
        ridge = 0.0
        while info != 0:
            ridge = max(10.0 * ridge, 1e-12 * (1.0 + np.trace(M)))
            cho, info = dpotrf(M + ridge * np.eye(k), lower=1, clean=0)
        S_inv = s_inv_L.T @ s_inv_L
        h_sinv = F @ S_inv.ravel()

        if centre_mu is not None:
            # Newton step towards the central point at centre_mu, with the
            # corrector's second-order term.
            dy, _ = dpotrs(cho, target + centre_mu * h_sinv, lower=1)
            dS, dZ = directions(dy, S_inv, Z, centre_mu)
            sigma_mu = centre_mu
            centring += 1
        else:
            # Predictor (affine scaling), then the Mehrotra corrector.
            dy, _ = dpotrs(cho, target, lower=1)
            dS, dZ = directions(dy, S_inv, Z, 0.0)
            a_s = min(1.0, _max_step(s_inv_L, dS))
            a_z = min(1.0, _max_step(z_inv_L, dZ))
            mu_aff = float(np.vdot(Z + a_z * dZ, S + a_s * dS)) / n
            sigma_mu = min(1.0, (max(mu_aff, 0.0) / mu) ** 3) * mu
        # Either way, re-solve on the same factorization with the
        # second-order term of the first direction.
        second = _sym(dZ @ dS @ S_inv)
        rhs = target + sigma_mu * h_sinv - F @ second.ravel()
        dy, _ = dpotrs(cho, rhs, lower=1)
        dS, dZ = directions(dy, S_inv, Z, sigma_mu, second)
        max_s = _max_step(s_inv_L, dS)
        if max_s == np.inf and dy[-1] > 0:
            # S + a dS >= 0 for every a >= 0 while t grows: a ray along which
            # the margin is unbounded, so no dual point exists.
            stop, gap = "unbounded", np.inf
            break
        max_z = _max_step(z_inv_L, dZ)
        y = y + min(1.0, STEP_FRACTION * max_s) * dy
        Z = Z + min(1.0, STEP_FRACTION * max_z) * dZ
        steps += 1

    # The returned margin is evaluated once, at the returned v.
    v[free] = accepted[:-1] * col_scale[free]
    margin = _lam_min(block.value(v))
    if stop != "unbounded":
        gap = bound - margin
    return MarginResult(v, margin, steps, gap, stop)
