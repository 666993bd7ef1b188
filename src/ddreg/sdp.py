"""Dense margin-maximization solver for small semidefinite feasibility
problems: maximize t such that every symmetric block, affine in a shared
vector v, dominates t * I.  A feasibility question reduces to the sign of
the optimal margin, and the solve stops once that sign is certified.

Primal-dual interior-point method with the HKM direction and Mehrotra
predictor-corrector steps (Helmberg, Rendl, Vanderbei and Wolkowicz 1996;
Todd, Toh and Tütüncü 1998).  The primal iterate is ``y = (v, t)``, with the
slack ``S = F(v) - t I`` recomputed from it, so the primal side is always
feasible and needs no phase-1; the dual iterate is a block-diagonal
``Z > 0`` driven towards ``tr(F_j Z) = 0`` and ``tr Z = 1``.  Each iteration
forms the Schur complement ``M_ij = <L_S^{-1} A_i L_Z, L_S^{-1} A_j L_Z>``
(``A`` the coefficients extended by the margin coordinate) from one
``dtrtri`` per block, one batched product and one Gram product, factors it
once with ``dpotrf`` for predictor and corrector, and steps 0.95 of the way
to the cone boundary.  Both verdicts are certified: the margin from below by
an eigenvalue, the optimum from above by a dual point (see
``maximize_margin``).  Identical inputs produce identical iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dpstrf, dsyevr, dtrtri

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
        flat = self.coeff.reshape(self.nvar, self.size**2)
        return _sym(self.const + (v @ flat).reshape(self.const.shape))


@dataclass
class MarginResult:
    v: np.ndarray
    margin: float  # smallest block eigenvalue at v (certified, not the optimum)
    converged: bool
    newton_steps: int  # primal-dual iterations
    gap_bound: float  # optimum <= margin + gap_bound; inf without a dual point
    stop: str  # "verdict" | "gap_tol" | "unbounded" | "stalled" | "newton_budget"
    log: list[str] = field(default_factory=list)


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


def _max_step(Li: np.ndarray, D: np.ndarray) -> float:
    """Largest a with ``L L^T + a D`` positive semidefinite, given ``Li`` the
    inverse of the factor ``L``; inf when D is itself semidefinite."""
    lam = dsyevr(Li @ D @ Li.T, compute_v=0, range="I", il=1, iu=1)[0][0]
    return -1.0 / lam if lam < 0 else np.inf


def _off_centre(z_chols: list[np.ndarray], S: list[np.ndarray], mu: float) -> float:
    """``||L_Z^T S L_Z / mu - I||_F`` over all blocks: zero exactly at the
    central point ``Z S = mu I``."""
    dev = [L.T @ Sb @ L / mu - np.eye(len(Sb)) for L, Sb in zip(z_chols, S)]
    return float(np.sqrt(sum(np.linalg.norm(D) ** 2 for D in dev)))


def _col_scale(blocks: list[AffineBlock]) -> np.ndarray:
    """Per-variable scaling ``1 / max_i ||coeff_i[j]||_F`` (1 for a variable
    no block depends on).  It equalizes the coefficient-tensor norms, an
    exact reparameterization (margins unchanged) that conditions the Schur
    complement when data columns live on very different scales."""
    norms = np.max([np.einsum("jab,jab->j", b.coeff, b.coeff) for b in blocks], axis=0)
    scale = np.ones(norms.shape)
    np.divide(1.0, np.sqrt(norms), out=scale, where=norms > 0)
    return scale


def _schur_complement(
    ext: list[np.ndarray], s_invs: list[np.ndarray], z_chols: list[np.ndarray]
) -> np.ndarray:
    """HKM Schur complement ``M_ij = sum over blocks of tr(A_i Z A_j S^{-1})``,
    given each block's coefficient tensor extended by the margin coordinate
    (``ext``), the inverse of its slack's Cholesky factor (``s_invs``) and its
    dual Cholesky factor (``z_chols``)."""
    k = ext[0].shape[0]
    M = np.zeros((k, k))
    for A, Li, LZ in zip(ext, s_invs, z_chols):
        flat = (Li @ A @ LZ).reshape(k, -1)
        M += flat @ flat.T
    return M


def maximize_margin(
    blocks: list[AffineBlock],
    gap_tol: float = 1e-8,
    max_newton: int = 2000,
    feas_tol: float | None = None,
) -> MarginResult:
    """Maximize t such that ``block_i(v) - t I >= 0`` for all blocks.

    Both sides of the optimum are certified at every iterate.  The *margin*
    is the smallest block eigenvalue at v.  The *bound* is ``tr(F_0 Z)`` at
    the projection of Z onto ``tr(F_j Z) = 0``, ``tr Z = 1`` (through the
    Gram matrix of the extended coefficients, factored once per solve),
    accepted when it passes a Cholesky test: it is then a dual point and
    bounds the optimum by weak duality.  ``gap_bound`` is the best bound so
    far minus the margin (inf without a dual point), so the optimum lies in
    ``[margin, margin + gap_bound]``.  Stop reasons:

    - ``"verdict"`` (with ``feas_tol``): the margin exceeds ``feas_tol`` and
      ``gap_bound < margin`` (feasible; the optimum is below twice the
      margin), or the bound is at most ``feas_tol`` (infeasible).  Before a
      feasible verdict is returned the iterate is centred: Newton steps to
      the central point ``Z S = mu_c I``, ``mu_c`` the power of 2 at or
      below the current ``mu``, until ``_off_centre`` is at most
      ``CENTRE_TOL`` (or after ``MAX_CENTRING`` steps), and the verdict is
      checked again there.  The predictor-corrector iterates carry the
      round-off of their whole path (a 1e-15 relative change in the paper
      block's constant moved v by 3e-7 relative at the verdict); the
      central point at a data-independent ``mu_c`` does not, so the gain
      read off it is well determined, and it depends on neither
      ``gap_tol`` nor how far the solve would have run.
    - ``"gap_tol"``: ``gap_bound <= gap_tol``.
    - ``"unbounded"``: -I lies in the span of the coefficients, or a step
      direction grows every block while t increases; no dual point exists.
    - ``"stalled"`` (``converged=False``): a step left the cone in floating
      point first; the previous iterate is returned.  So end problems whose
      dual points are all singular, with ``gap_bound`` inf.
    - ``"newton_budget"`` (``converged=False``): ``max_newton`` iterations.

    Variables whose coefficients depend linearly on the others' (pivoted
    Cholesky of the Gram matrix) are held at zero.  The Schur complement is
    tested for finiteness (``RuntimeError`` otherwise) and factored with
    ``dpotrf``, with a ridge added while that fails.
    """
    if not blocks:
        raise ValueError("need at least one block")
    nvar = blocks[0].nvar
    for b in blocks:
        if b.nvar != nvar:
            raise ValueError("blocks disagree on the variable dimension")

    n = sum(b.size for b in blocks)
    log: list[str] = []

    # Coefficient tensors in the scaled variables, extended by the margin
    # coordinate (coefficient -I), and their flat (k, nb * nb) views.  A
    # variable whose scaled coefficients depend linearly on the others' adds
    # nothing to the feasible set; it is held at zero, which keeps the Schur
    # complement and the Gram matrix nonsingular.
    col_scale = _col_scale(blocks)
    ext = [
        np.concatenate([b.coeff * col_scale[:, None, None], -np.eye(b.size)[None]])
        for b in blocks
    ]
    gram = sum(F @ F.T for F in (A.reshape(nvar + 1, -1) for A in ext))
    _, piv, rank, _ = dpstrf(gram[:-1, :-1], lower=1)
    free = np.sort(piv[:rank] - 1)
    keep = np.append(free, nvar)
    ext = [A[keep] for A in ext]
    gram = gram[np.ix_(keep, keep)]
    k = keep.size
    flats = [A.reshape(k, -1) for A in ext]
    consts = [b.const for b in blocks]
    target = np.zeros(k)  # the dual equalities read (tr(A_i Z))_i = -target
    target[-1] = 1.0
    eye = np.eye(k)
    gram_chol = _chol(gram)

    def slacks(y: np.ndarray) -> list[np.ndarray]:
        return [C + (y @ F).reshape(C.shape) for C, F in zip(consts, flats)]

    def physical_v(y: np.ndarray) -> np.ndarray:
        v = np.zeros(nvar)
        v[free] = y[:-1] * col_scale[free]
        return v

    def certified_margin(v: np.ndarray) -> float:
        return min(float(np.linalg.eigvalsh(b.value(v))[0]) for b in blocks)

    def dual_bound(Z: list[np.ndarray]) -> float:
        """tr(F_0 Z) at the projection of Z onto the dual equalities, or inf
        when it is not positive definite.  The projection does not replace
        the iterate: as the iterate it moved the paper gain by 4e-7 relative
        between rescaled copies of one problem."""
        resid = sum(F @ Zb.ravel() for F, Zb in zip(flats, Z)) + target
        coef, _ = dpotrs(gram_chol, resid, lower=1)
        bound = 0.0
        for C, F, Zb in zip(consts, flats, Z):
            Zp = Zb - (coef @ F).reshape(Zb.shape)
            if _chol(Zp) is None:
                return np.inf
            bound += float(np.vdot(C, Zp))
        return bound

    def directions(dy, s_invs, Z, sigma_mu, second=None):
        """Slack and dual steps for the Schur-system solution dy; ``second``
        holds the corrector's second-order terms."""
        dS = [(dy @ F).reshape(C.shape) for C, F in zip(consts, flats)]
        dZ = [sigma_mu * Si - Zb - _sym(Zb @ dSb @ Si) for Si, Zb, dSb in zip(s_invs, Z, dS)]
        if second is not None:
            dZ = [D - K for D, K in zip(dZ, second)]
        return dS, dZ

    y = np.zeros(k)
    y[-1] = min(float(np.linalg.eigvalsh(_sym(C))[0]) for C in consts)
    y[-1] -= 1.0 + 0.05 * abs(y[-1])
    Z = [np.eye(b.size) / n for b in blocks]

    steps = 0
    converged = True
    v = physical_v(y)
    margin = certified_margin(v)
    bound = gap = np.inf
    centre_mu = None  # set while centring (see the docstring)
    centring = 0
    # A singular Gram matrix means -I lies in the span of the variables'
    # coefficients: t grows without bound along that combination.
    stop = "unbounded" if gram_chol is None else None
    while stop is None:
        S = slacks(y)
        s_chols = [_chol(Sb) for Sb in S]
        z_chols = [_chol(Zb) for Zb in Z]
        if any(L is None for L in s_chols + z_chols):
            if not steps:
                raise RuntimeError("interior-point iterate left the cone")
            # A step short of the boundary left the cone in floating point:
            # the iterates have reached round-off.  Keep the previous iterate.
            converged, stop = False, "stalled"
            break
        v = physical_v(y)
        margin = certified_margin(v)
        # Every dual point bounds the optimum, so the best bound so far
        # holds at this iterate too.
        bound = min(bound, dual_bound(Z))
        gap = bound - margin
        mu = sum(float(np.vdot(Zb, Sb)) for Zb, Sb in zip(Z, S)) / n
        feasible = feas_tol is not None and margin > feas_tol and gap < margin
        if feasible and centre_mu is None:
            centre_mu, centring = 2.0 ** np.floor(np.log2(mu)), 0
        centred = centre_mu is not None and (
            centring >= MAX_CENTRING or _off_centre(z_chols, S, centre_mu) <= CENTRE_TOL
        )
        if centred:
            centre_mu = None
        if (centred and feasible) or (feas_tol is not None and bound <= feas_tol):
            stop = "verdict"
        elif gap <= gap_tol and centre_mu is None:
            stop = "gap_tol"
        elif steps >= max_newton:
            log.append(f"iteration budget exhausted at gap_bound={gap:.1e}")
            converged = False
            stop = "newton_budget"
        if stop is not None:
            break

        s_invs_L = [_tri_inv(L) for L in s_chols]
        z_invs_L = [_tri_inv(L) for L in z_chols]
        M = _schur_complement(ext, s_invs_L, z_chols)
        if not np.isfinite(M).all():
            raise RuntimeError("non-finite Newton system")
        ridge = 0.0
        while True:
            cho, info = dpotrf(M + ridge * eye, lower=1, clean=0)
            if info == 0:
                break
            ridge = max(10.0 * ridge, 1e-12 * (1.0 + np.trace(M)))
        s_invs = [Li.T @ Li for Li in s_invs_L]
        h_sinv = sum(F @ Si.ravel() for F, Si in zip(flats, s_invs))

        if centre_mu is not None:
            # Newton step towards the central point at centre_mu.
            dy, _ = dpotrs(cho, target + centre_mu * h_sinv, lower=1)
            dS, dZ = directions(dy, s_invs, Z, centre_mu)
            centring += 1
        else:
            # Predictor (affine scaling), then the Mehrotra corrector on the
            # same factorization.
            dy, _ = dpotrs(cho, target, lower=1)
            dS, dZ = directions(dy, s_invs, Z, 0.0)
            a_s = min(1.0, min(_max_step(Li, D) for Li, D in zip(s_invs_L, dS)))
            a_z = min(1.0, min(_max_step(Li, D) for Li, D in zip(z_invs_L, dZ)))
            mu_aff = sum(
                float(np.vdot(Zb + a_z * dZb, Sb + a_s * dSb))
                for Zb, dZb, Sb, dSb in zip(Z, dZ, S, dS)
            ) / n
            sigma_mu = min(1.0, (max(mu_aff, 0.0) / mu) ** 3) * mu
            second = [_sym(dZb @ dSb @ Si) for dZb, dSb, Si in zip(dZ, dS, s_invs)]
            rhs = target + sigma_mu * h_sinv - sum(
                F @ K.ravel() for F, K in zip(flats, second)
            )
            dy, _ = dpotrs(cho, rhs, lower=1)
            dS, dZ = directions(dy, s_invs, Z, sigma_mu, second)
        max_s = min(_max_step(Li, D) for Li, D in zip(s_invs_L, dS))
        if max_s == np.inf and dy[-1] > 0:
            # S + a dS >= 0 for every a >= 0 while t grows: a ray along which
            # the margin is unbounded, so no dual point exists.
            stop, gap = "unbounded", np.inf
            break
        max_z = min(_max_step(Li, D) for Li, D in zip(z_invs_L, dZ))
        y = y + min(1.0, STEP_FRACTION * max_s) * dy
        Z = [Zb + min(1.0, STEP_FRACTION * max_z) * D for Zb, D in zip(Z, dZ)]
        steps += 1

    log.append(
        f"margin={margin:.6e} iterations={steps} gap_bound={gap:.1e} stop={stop}"
    )
    return MarginResult(v, margin, converged, steps, gap, stop, log)
