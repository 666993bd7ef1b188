"""Dense margin-maximization solver for small semidefinite feasibility
problems: maximize t such that every symmetric block of a list, each affine
in one vector v, dominates t * I.  A feasibility question reduces to the
sign of the optimal margin, and the solve stops once that sign is certified
(or when it cannot go on).  It imports no other module of the package.

Primal-dual interior-point method with the HKM direction and Mehrotra
predictor-corrector steps (Helmberg, Rendl, Vanderbei and Wolkowicz 1996;
Todd, Toh and Tütüncü 1998; Mehrotra 1992), on ``F(v)``, the block-diagonal
fold of the blocks.  The primal iterate is ``y = (v, t)``, with the slack
``S = F(v) - t I`` recomputed from it, so the primal side is always
feasible and needs no phase-1; the dual iterate ``Z > 0`` starts central,
``Z S = mu I``, and is driven towards ``tr(F_j Z) = 0`` and ``tr Z = 1``.
Each iteration forms the Schur complement ``M_ij = <L_S^{-1} A_i L_Z,
L_S^{-1} A_j L_Z>`` (``A`` the coefficients extended by the margin
coordinate) from one ``dtrtri``, two GEMMs over all i and one Gram product,
factors it once with ``dpotrf``, solves it twice (a first-order direction,
then the same system with its second-order term), and steps 0.95 of the way
to the cone boundary.  The fold is never formed: each block keeps its own
coefficients, slack, dual iterate and factors, and an iteration walks the
blocks once per phase; a sum over the fold's entries (the Schur complement,
``F vec(Z)``, an inner product) adds the blocks' terms from the first on,
and an eigenvalue (the margin, a step length) is a running minimum.  Both
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


def _off_centre(factors: list[tuple], mu: float) -> float:
    """``||L_Z^T S L_Z / mu - I||_F`` over the blocks' ``(S, L_S, L_Z)``:
    zero exactly at the central point ``Z S = mu I``."""
    dev = [(lz.T @ s @ lz / mu - np.eye(len(s))).ravel() for s, _, lz in factors]
    return float(np.linalg.norm(np.concatenate(dev)))


def _col_scale(blocks: list[AffineBlock]) -> np.ndarray:
    """Per-variable scaling ``1 / ||coeff[j]||_F`` (1 for a variable no
    block depends on).  It equalizes the coefficient-tensor norms, an exact
    reparameterization (margins unchanged) that conditions the Schur
    complement when data columns live on very different scales."""
    norms = sum(np.einsum("jab,jab->j", b.coeff, b.coeff) for b in blocks)
    scale = np.ones(norms.shape)
    np.divide(1.0, np.sqrt(norms), out=scale, where=norms > 0)
    return scale


def _schur_complement(A: np.ndarray, s_inv: np.ndarray, z_chol: np.ndarray, work=None):
    """One block's HKM Schur complement ``M_ij = tr(A_i Z A_j S^{-1})``: the
    Gram matrix of the ``L_S^{-1} A_i L_Z``, formed for all i by two GEMMs
    on the transpose of the ``(k n, n)`` view of the symmetric coefficients
    ``A`` (k, n, n).  ``s_inv`` is ``L_S^{-1}``, ``z_chol`` is ``L_Z``;
    ``work``, two ``(n, k n)`` arrays a solve reuses, takes the products."""
    k, n, _ = A.shape
    P, Q = work if work is not None else (np.empty((n, k * n)), np.empty((n, k * n)))
    np.matmul(s_inv, A.reshape(k * n, n).T, out=P)  # [d, (i, a)]: L_S^{-1} A_i
    np.matmul(z_chol.T, P.reshape(n * k, n).T, out=Q)  # [c, (d, i)]: ... L_Z
    R = Q.reshape(n * n, k)
    return R.T @ R


def maximize_margin(
    blocks: list[AffineBlock],
    gap_tol: float = GAP_TOL,
    feas_tol: float | None = None,
) -> MarginResult:
    """Maximize t such that ``F(v) - t I >= 0``, with ``F`` the fold of
    ``blocks``, a non-empty list of blocks in the same variables v (see the
    module docstring).  Both sides of the optimum are certified at every
    iterate.  The *margin* is the smallest eigenvalue of F at v.  The
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
    v (by the feasible verdict's check, when one judged it), and
    ``gap_bound`` is taken against it.  Stop reasons:

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
    - ``"newton_budget"`` (``converged=False``): ``MAX_NEWTON`` iterations.

    Variables whose coefficients depend linearly on the others' (pivoted
    Cholesky of the Gram matrix) are held at zero.  The Schur complement is
    tested for finiteness (``RuntimeError`` otherwise) and factored with
    ``dpotrf``, with a ridge added while that fails.  An empty list, or
    blocks in different numbers of variables, is a ``ValueError``.
    """
    counts = [b.nvar for b in blocks]
    if len(set(counts)) != 1:
        raise ValueError(f"need blocks in the same variables, got {counts} variables")
    nvar = counts[0]
    C = [b.const for b in blocks]
    n = sum(b.size for b in blocks)

    # The solve's one copy of the coefficients, per block, in the scaled
    # variables and extended by the margin coordinate (coefficient -I); F
    # holds their flat views.  A variable whose scaled coefficients depend
    # linearly on the others' is held at zero, which keeps the Schur
    # complement and Gram nonsingular.
    col_scale = _col_scale(blocks)
    A = [np.empty((nvar + 1, b.size, b.size)) for b in blocks]
    for a, b in zip(A, blocks):
        np.multiply(b.coeff, col_scale[:, None, None], out=a[:-1])
        a[-1] = -np.eye(b.size)
    F = [a.reshape(nvar + 1, -1) for a in A]
    gram = sum(f @ f.T for f in F)
    _, piv, rank, _ = dpstrf(gram[:-1, :-1], lower=1)
    free = np.sort(piv[:rank] - 1)
    if rank < nvar:
        keep = np.append(free, nvar)
        A, gram = [a[keep] for a in A], gram[np.ix_(keep, keep)]
        F = [a.reshape(keep.size, -1) for a in A]
    k = rank + 1
    target = np.zeros(k)  # the dual equalities read (tr(A_i Z))_i = -target
    target[-1] = 1.0
    gram_chol = _chol(gram)
    work = [(np.empty((b.size, k * b.size)), np.empty((b.size, k * b.size))) for b in blocks]
    no_second = [None] * len(blocks)

    def margin_at(v: np.ndarray) -> float:
        return min(_lam_min(b.value(v)) for b in blocks)

    def direction(dy, sigma_mu, second, lengths):
        """Each block's steps ``(dS, dZ)`` at the current iterate for the
        Schur solution dy (``second``: the corrector's terms) and, with
        ``lengths``, the largest a keeping ``S + a dS``, ``Z + a dZ`` >= 0."""
        dirs, lam_s, lam_z = [], np.inf, np.inf
        for f, z, (si, li_s, li_z), s2 in zip(F, Z, inverses, second):
            ds = (dy @ f).reshape(z.shape)
            dz = sigma_mu * si - z - _sym(z @ ds @ si)
            if s2 is not None:
                dz -= s2
            if lengths:
                lam_s = min(lam_s, _lam_min(li_s @ ds @ li_s.T))
                lam_z = min(lam_z, _lam_min(li_z @ dz @ li_z.T))
            dirs.append((ds, dz))
        return dirs, -1.0 / lam_s if lam_s < 0 else np.inf, -1.0 / lam_z if lam_z < 0 else np.inf

    # The start point of the docstring: least norm on the extended set.
    y = np.zeros(k)
    if gram_chol is not None:
        y, _ = dpotrs(gram_chol, -sum(f @ c.ravel() for f, c in zip(F, C)), lower=1)
    y[-1] = min(_lam_min(_sym(c + (y[:-1] @ f[:-1]).reshape(c.shape))) for c, f in zip(C, F))
    y[-1] -= 1.0 + 0.05 * abs(y[-1])
    # The central dual start S0^{-1} / tr S0^{-1}, so Z0 S0 = mu0 I.
    inv0 = [_tri_inv(_chol(c + (y @ f).reshape(c.shape))) for c, f in zip(C, F)]
    Z = [li.T @ li for li in inv0]
    trace = sum(np.trace(z) for z in Z)
    for z in Z:
        z /= trace

    v = np.zeros(nvar)
    steps = 0
    accepted, judged = y, None  # the last iterate inside the cone; its margin
    bound = gap = np.inf
    centre_mu = None  # set while centring (see the docstring)
    centring = 0
    # A singular Gram matrix means -I lies in the span of the variables'
    # coefficients: t grows without bound along that combination.
    stop = "unbounded" if gram_chol is None else None
    while stop is None:
        # Factor the iterate, with the margin, mu and F vec(Z) on the way.
        factors, lam, mu, fz = [], np.inf, 0.0, None  # factors: (S, L_S, L_Z)
        for c, f, z in zip(C, F, Z):
            s = c + (y @ f).reshape(c.shape)
            ls, lz = _chol(s), _chol(z)
            if ls is None or lz is None:
                break
            factors.append((s, ls, lz))
            # S = F(v) - t I is at hand, so the margin at v is lam_min(S) + t.
            lam = min(lam, _lam_min(s))
            mu += np.vdot(z, s)
            term = f @ z.ravel()
            fz = term if fz is None else fz + term
        if ls is None or lz is None:  # the pass stopped at a block outside the cone
            if not steps:
                raise RuntimeError("interior-point iterate left the cone")
            # A step short of the boundary left the cone in floating point:
            # the iterates have reached round-off.  Keep the accepted iterate.
            stop = "stalled"
            break
        accepted, judged = y, None
        margin, mu = lam + y[-1], mu / n
        # The dual bound: tr(F_0 Z) at Z's projection onto the dual equalities,
        # if that is positive definite.  As the iterate, the projection moved
        # the paper gain by 4e-7 relative between rescaled copies of a problem.
        coef, _ = dpotrs(gram_chol, fz + target, lower=1)
        dual = 0.0
        for c, f, z in zip(C, F, Z):
            zp = z - (coef @ f).reshape(z.shape)
            dual = np.inf if _chol(zp) is None else dual + np.vdot(c, zp)
        # Every dual point bounds the optimum, so the best bound so far
        # holds at this iterate too.
        bound = min(bound, dual)
        gap = bound - margin
        feasible = feas_tol is not None and margin > feas_tol and gap < margin
        if feasible and centre_mu is None:
            centre_mu, centring = 2.0 ** np.floor(np.log2(mu)), 0
        centred = centre_mu is not None and (
            centring >= MAX_CENTRING or _off_centre(factors, centre_mu) <= CENTRE_TOL
        )
        if centred:
            centre_mu = None
            v[free] = y[:-1] * col_scale[free]  # judged on the margin returned
            judged = margin_at(v)
            feasible = feasible and judged > feas_tol
        if (centred and feasible) or (feas_tol is not None and bound <= feas_tol):
            stop = "verdict"
        elif feas_tol is None and gap <= gap_tol:
            stop = "gap_tol"
        elif steps >= MAX_NEWTON:
            stop = "newton_budget"
        if stop is not None:
            break

        # The Schur complement and h = F vec(S^{-1}).
        inverses, M, h_sinv = [], None, None  # inverses: (S^{-1}, L_S^{-1}, L_Z^{-1})
        for a, f, w, (_, ls, lz) in zip(A, F, work, factors):
            li = _tri_inv(ls)
            si = li.T @ li
            inverses.append((si, li, _tri_inv(lz)))
            m, term = _schur_complement(a, li, lz, w), f @ si.ravel()
            M = m if M is None else M + m
            h_sinv = term if h_sinv is None else h_sinv + term
        if not np.isfinite(M).all():
            raise RuntimeError("non-finite Newton system")
        cho, info = dpotrf(M, lower=1, clean=0)
        ridge = 0.0
        while info != 0:
            ridge = max(10.0 * ridge, 1e-12 * (1.0 + np.trace(M)))
            cho, info = dpotrf(M + ridge * np.eye(k), lower=1, clean=0)

        if centre_mu is not None:
            # Newton step towards the central point at centre_mu, with the
            # corrector's second-order term.
            dy, _ = dpotrs(cho, target + centre_mu * h_sinv, lower=1)
            dirs, _, _ = direction(dy, centre_mu, no_second, False)
            sigma_mu = centre_mu
            centring += 1
        else:
            # Predictor (affine scaling), then the Mehrotra corrector.
            dy, _ = dpotrs(cho, target, lower=1)
            dirs, max_s, max_z = direction(dy, 0.0, no_second, True)
            a_s, a_z = min(1.0, max_s), min(1.0, max_z)
            mu_aff = 0.0
            for z, (s, _, _), (ds, dz) in zip(Z, factors, dirs):
                mu_aff += np.vdot(z + a_z * dz, s + a_s * ds)
            sigma_mu = min(1.0, (max(mu_aff / n, 0.0) / mu) ** 3) * mu
        # Either way, re-solve on the same factorization with the
        # second-order term of the first direction.
        second, f2 = [], None
        for f, (ds, dz), (si, _, _) in zip(F, dirs, inverses):
            second.append(_sym(dz @ ds @ si))
            term = f @ second[-1].ravel()
            f2 = term if f2 is None else f2 + term
        dy, _ = dpotrs(cho, target + sigma_mu * h_sinv - f2, lower=1)
        dirs, max_s, max_z = direction(dy, sigma_mu, second, True)
        if max_s == np.inf and dy[-1] > 0:
            # S + a dS >= 0 for every a >= 0 while t grows: a ray along which
            # the margin is unbounded, so no dual point exists.
            stop, gap = "unbounded", np.inf
            break
        y = y + min(1.0, STEP_FRACTION * max_s) * dy
        a_z = min(1.0, STEP_FRACTION * max_z)
        for z, (_, dz) in zip(Z, dirs):
            z += a_z * dz
        steps += 1

    # The returned margin is evaluated once, at the returned v; a verdict
    # judged at a centred iterate has just evaluated it there.
    v[free] = accepted[:-1] * col_scale[free]
    margin = margin_at(v) if judged is None else judged
    if stop != "unbounded":
        gap = bound - margin
    return MarginResult(v, margin, steps, gap, stop)
