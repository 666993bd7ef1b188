"""Known regressors that factor the hidden exosignal data block.

The exosignal stack W0 = [w(ell) ... w(T)] always factors as
``(unknown coefficient) @ (known regressor)``.  Both constructions build the
regressor as a Krylov sequence ``[F^t v]`` by one routine: from the real
Jordan matrix of the declared or detected Jordan structure of the exosystem
map with the last unit vector of each block, or from the exosystem map with
a user-supplied cyclic vector.  A greedy row reduction turns either
regressor into a full-row-rank matrix for the design program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .numerics import minimal_polynomial, rank_with_tol
from .plant import ExoMatrix, JordanSpec

DEFAULT_REDUCE_TOL = DEFAULTS["tolerances"]["reduce_tol"]


def _complex_rank(M: np.ndarray, rel_tol: float) -> int:
    """Rank at relative tolerance for a possibly complex matrix."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _cluster(values: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Greedy clustering of complex values at the given radius."""
    remaining = list(values)
    clusters = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        rest = []
        for v in remaining:
            if abs(v - seed) <= radius:
                members.append(v)
            else:
                rest.append(v)
        remaining = rest
        clusters.append((np.mean(members), len(members)))
    return clusters


def analyze_exosystem(
    exo: ExoMatrix,
    declared: JordanSpec | None = None,
    tol: float = DEFAULTS["tolerances"]["exo_cluster_tol"],
) -> JordanSpec:
    """Jordan structure of the exosystem map.

    With ``declared`` given, the user's structure is validated against the
    spectrum (eigenvalue match and implied minimal-polynomial degree) and
    returned.  Otherwise the structure is detected automatically, which is
    only well-posed for diagonalizable maps: eigenvalues are clustered and
    every block size is 1.  A defective map must be declared.
    """
    S = exo.S
    n_w = exo.n_w
    radius = tol * max(1.0, np.linalg.norm(S, 2))
    eigs = exo.eigs

    if declared is not None:
        if declared.n_w != n_w:
            raise ValueError(
                f"declared structure has dimension {declared.n_w}, exosystem has {n_w}"
            )
        implied = declared.eigenvalues()
        unmatched = list(eigs)
        for lam in implied:
            dists = [abs(lam - mu) for mu in unmatched]
            j = int(np.argmin(dists))
            if dists[j] > max(radius, 100 * tol):
                raise ValueError(
                    "declared Jordan structure inconsistent with exosystem spectrum"
                )
            unmatched.pop(j)
        d_actual = len(minimal_polynomial(S, tol=tol))
        if declared.minimal_degree() != d_actual:
            raise ValueError(
                "declared Jordan structure implies minimal-polynomial degree "
                f"{declared.minimal_degree()}, exosystem has degree {d_actual}"
            )
        return declared

    # Auto mode: every geometric multiplicity must match the algebraic one.
    clusters = _cluster(eigs, radius)
    for center, mult in clusters:
        geo = n_w - _complex_rank(S - center * np.eye(n_w), rel_tol=max(tol, 1e-10))
        if geo < mult:
            raise ValueError("defective exosystem: declare Jordan structure")

    real_blocks = []
    complex_blocks = []
    consumed = np.zeros(len(clusters), dtype=bool)
    for i, (center, mult) in enumerate(clusters):
        if consumed[i]:
            continue
        if abs(center.imag) <= radius:
            real_blocks.extend([(float(center.real), 1)] * mult)
            consumed[i] = True
        else:
            # Pair with the conjugate cluster.
            partner = None
            for j, (other, mult_j) in enumerate(clusters):
                if j != i and not consumed[j] and abs(np.conj(center) - other) <= radius:
                    partner = j
                    break
            if partner is None or clusters[partner][1] != mult:
                raise ValueError("complex eigenvalues do not pair into conjugates")
            consumed[i] = consumed[partner] = True
            rep = center if center.imag > 0 else np.conj(center)
            complex_blocks.extend(
                [(float(abs(rep)), float(np.angle(rep)), 1)] * mult
            )
    real_blocks.sort(key=lambda b: b[0])
    complex_blocks.sort(key=lambda b: (b[1], b[0]))
    return JordanSpec(real_blocks=real_blocks, complex_blocks=complex_blocks)


@dataclass
class Regressor:
    """Known matrix factoring the exosignal stack, with optional row reduction.

    ``selection`` lists the rows kept by :func:`reduce_to_full_row_rank`;
    it is None until :meth:`reduced` has been called.
    """

    matrix: np.ndarray
    method: str
    selection: list[int] | None = None

    @property
    def mhat(self) -> np.ndarray:
        if self.selection is None:
            raise ValueError("regressor has not been reduced to full row rank")
        return self.matrix[self.selection, :]

    def reduced(self, tol: float = DEFAULT_REDUCE_TOL) -> "Regressor":
        _, selection = reduce_to_full_row_rank(self.matrix, tol)
        return Regressor(matrix=self.matrix, method=self.method, selection=selection)


def _krylov(F: np.ndarray, v: np.ndarray, first: int, last: int) -> np.ndarray:
    """Columns ``F^first v, ..., F^last v``, each F times the one before.
    No divergence guard: an exosystem may grow (|lambda| > 1) over a long
    record."""
    for _ in range(first):
        v = F @ v
    cols = [v]
    for _ in range(last - first):
        cols.append(F @ cols[-1])
    return np.column_stack(cols)


def build_M_jordan(spec: JordanSpec, ell: int, T: int) -> Regressor:
    """Regressor ``[J^ell e, ..., J^T e]``.  J is the real Jordan matrix of
    ``spec``: real blocks ``lam I`` plus superdiagonal ones first, then
    blocks ``I_k (x) rho [[cos, -sin], [sin, cos]]`` plus ``I_2`` on the
    block superdiagonal.  e is the last unit vector of each block (for a
    complex block, the cosine row of its last pair).  So row j of a size-k
    real block at time t is ``C(t, k - j) lam^(t - k + j)``, and pair j of a
    complex block is that with rho for lam, times (cos, sin) of its angle.
    """
    J, e = np.zeros((spec.n_w, spec.n_w)), np.zeros(spec.n_w)
    at = 0
    for lam, k in spec.real_blocks:
        J[at : at + k, at : at + k] = lam * np.eye(k) + np.eye(k, k=1)
        at += k
        e[at - 1] = 1.0
    for rho, theta, k in spec.complex_blocks:
        c, s, blk = rho * np.cos(theta), rho * np.sin(theta), slice(at, at + 2 * k)
        J[blk, blk] = np.kron(np.eye(k), [[c, -s], [s, c]]) + np.eye(2 * k, k=2)
        at += 2 * k
        e[at - 2] = 1.0
    return Regressor(matrix=_krylov(J, e, ell, T), method="jordan")


def build_M_krylov(exo: ExoMatrix, w_star, ell: int, T: int) -> Regressor:
    """Krylov regressor [w*, S w*, ..., S^(T-ell) w*]; needs a cyclic vector."""
    w_star = np.asarray(w_star, dtype=float)
    if T - ell + 1 < exo.n_w:
        raise ValueError("experiment too short for Krylov factorization")
    M = _krylov(exo.S, w_star, 0, T - ell)
    if rank_with_tol(M) < exo.n_w:
        raise ValueError("w_star not cyclic for S")
    return Regressor(matrix=M, method="krylov")


def regressor_to_csv(reg: Regressor, path) -> None:
    """Dump the regressor rows for inspection: one line per row, plus a
    header naming the construction and any reduction selection."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        kept = "all" if reg.selection is None else ";".join(map(str, reg.selection))
        writer.writerow([f"method={reg.method}", f"kept_rows={kept}"])
        for row in reg.matrix:
            writer.writerow([repr(float(v)) for v in row])


def reduce_to_full_row_rank(
    M, tol: float = DEFAULT_REDUCE_TOL
) -> tuple[np.ndarray, list[int]]:
    """Greedy earliest-row selection of a maximal independent row subset.

    Rows are scanned in order; a row is kept when its residual after
    projection onto the span of the rows already kept exceeds
    ``tol * max row norm``.  Zero rows (and exact duplicates) are dropped.
    Returns the reduced matrix and the kept row indices.
    """
    scale = float(np.max(np.linalg.norm(M, axis=1)))
    threshold = tol * max(scale, 1e-300)
    basis: list[np.ndarray] = []
    selection: list[int] = []
    for i, row in enumerate(M):
        r = row.copy()
        for q in basis:
            r -= (q @ r) * q
        # Second orthogonalization pass for numerical safety.
        for q in basis:
            r -= (q @ r) * q
        nr = np.linalg.norm(r)
        if nr > threshold:
            basis.append(r / nr)
            selection.append(i)
    return M[selection, :], selection
