"""Known regressor that factors the hidden exosignal data block.

The exosignal stack W0 = [w(ell) ... w(T)] always factors as
``(unknown coefficient) @ (known regressor)``, and only the regressor's row
space matters.  Every exosignal w(k) = S^k w(0) obeys the recursion of S's
minimal polynomial (``ExoMatrix.coeffs``), so each row of W0 is a solution
of that recursion, and the regressor's rows are a basis of its solutions:
the Krylov sequence of the transposed companion matrix from the first unit
vector, which is always cyclic for it.  No eigenvalue structure and no
cyclic vector are needed.  A greedy row reduction turns the regressor into
a full-row-rank matrix for the design program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .internal_model import companion_matrix
from .plant import ExoMatrix

DEFAULT_REDUCE_TOL = DEFAULTS["tolerances"]["reduce_tol"]


@dataclass
class Regressor:
    """Known matrix factoring the exosignal stack, with optional row reduction.

    ``selection`` lists the rows kept by :func:`reduce_to_full_row_rank`;
    it is None until :meth:`reduced` has been called.
    """

    matrix: np.ndarray
    selection: list[int] | None = None

    @property
    def mhat(self) -> np.ndarray:
        if self.selection is None:
            raise ValueError("regressor has not been reduced to full row rank")
        return self.matrix[self.selection, :]

    def reduced(self, tol: float = DEFAULT_REDUCE_TOL) -> "Regressor":
        _, selection = reduce_to_full_row_rank(self.matrix, tol)
        return Regressor(matrix=self.matrix, selection=selection)


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


def companion_regressor(exo: ExoMatrix, ell: int, T: int) -> Regressor:
    """Regressor ``[(F^T)^ell e_1, ..., (F^T)^T e_1]``, F the companion
    matrix of S's minimal polynomial (the internal model's for one output,
    unsnapped: the exosignal obeys S's own recursion).  Row i is the
    solution of the recursion whose first d values are the i-th unit
    vector, so every row of W0 lies in its row space."""
    F = companion_matrix(exo.coeffs, 1)
    return Regressor(matrix=_krylov(F.T, np.eye(len(F))[0], ell, T))


def regressor_to_csv(reg: Regressor, path) -> None:
    """Dump the regressor rows for inspection: one line per row, plus a
    header naming the reduction's selection."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        kept = "all" if reg.selection is None else ";".join(map(str, reg.selection))
        writer.writerow([f"kept_rows={kept}"])
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
