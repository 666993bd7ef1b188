"""Known regressor that factors the hidden exosignal data block.

The exosignal stack W0 = [w(ell) ... w(T)] always factors as
``(unknown coefficient) @ (known regressor)``, and only the regressor's row
space matters.  Every exosignal w(k) = S^k w(0) obeys the recursion of S's
minimal polynomial (``ExoMatrix.coeffs``), so each row of W0 is a solution
of that recursion, and the regressor's rows are a basis of its solutions:
the Krylov sequence of the transposed companion matrix from the first unit
vector (always cyclic for it), which is the first column of each of its
powers (``numerics.matrix_powers``).  No eigenvalue structure and no cyclic
vector are needed.  The design program takes the regressor as built,
and the SVD in ``synthesis._elimination`` decides its rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .internal_model import companion_matrix
from .numerics import matrix_powers
from .plant import ExoMatrix


@dataclass
class Regressor:
    """Known matrix factoring the exosignal stack (the design program's
    ``mhat``), one row per degree of S's minimal polynomial."""

    matrix: np.ndarray

    @property
    def selection(self) -> list[int]:
        """Every row: perfbench's tracer reads its length.  It goes with
        ``regressor.csv``'s ``kept_rows=`` header in ROADMAP item 5."""
        return list(range(self.matrix.shape[0]))


def companion_regressor(exo: ExoMatrix, ell: int, T: int) -> Regressor:
    """Regressor ``[(F^T)^ell e_1, ..., (F^T)^T e_1]``, F the companion
    matrix of S's minimal polynomial (the internal model's for one output).
    Row i is the solution of the recursion whose first d values are the
    i-th unit vector, so every row of W0 lies in its row space.  Its first d
    columns are (F^T)^ell, which is invertible, so it has full row rank d on
    a record of N >= d columns (a shorter record keeps all d rows)."""
    F = companion_matrix(exo.coeffs, 1)
    return Regressor(matrix_powers(F.T, T)[ell:, :, 0].T.copy())


def regressor_to_csv(reg: Regressor, path) -> None:
    """Dump the regressor rows for inspection: one line per row, under a
    ``kept_rows=`` header that names every row."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"kept_rows={';'.join(map(str, reg.selection))}"])
        for row in reg.matrix:
            writer.writerow([repr(float(v)) for v in row])
