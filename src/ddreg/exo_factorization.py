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

from .internal_model import companion_matrix
from .numerics import DEFAULT_RANK_RTOL
from .plant import ExoMatrix


@dataclass
class Regressor:
    """Known matrix factoring the exosignal stack, and the rows of it that
    :func:`reduce_to_full_row_rank` keeps (``selection``)."""

    matrix: np.ndarray
    selection: list[int]

    @property
    def mhat(self) -> np.ndarray:
        return self.matrix[self.selection, :]


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
    matrix of S's minimal polynomial (the internal model's for one output),
    reduced to full row rank.  Row i is the solution of the recursion whose
    first d values are the i-th unit vector, so every row of W0 lies in its
    row space.  Its first d columns are (F^T)^ell, which is invertible, so
    a record of N >= d columns keeps every row."""
    F = companion_matrix(exo.coeffs, 1)
    matrix = _krylov(F.T, np.eye(len(F))[0], ell, T)
    return Regressor(matrix, reduce_to_full_row_rank(matrix)[1])


def regressor_to_csv(reg: Regressor, path) -> None:
    """Dump the regressor rows for inspection: one line per row, plus a
    header naming the rows the reduction kept."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"kept_rows={';'.join(map(str, reg.selection))}"])
        for row in reg.matrix:
            writer.writerow([repr(float(v)) for v in row])


def reduce_to_full_row_rank(M) -> tuple[np.ndarray, list[int]]:
    """Greedy earliest-row selection of a maximal independent row subset.

    Rows are scanned in order; a row is kept when its residual after
    projection onto the span of the rows already kept exceeds
    ``DEFAULT_RANK_RTOL * max row norm``.  Zero rows (and exact duplicates)
    are dropped.  Returns the reduced matrix and the kept row indices.
    """
    scale = float(np.max(np.linalg.norm(M, axis=1)))
    threshold = DEFAULT_RANK_RTOL * max(scale, 1e-300)
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
