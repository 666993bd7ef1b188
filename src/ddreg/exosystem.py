"""What the designer knows: the exosystem map S and what derives from it.

The plant is hidden (``plant``); S is known.  :class:`ExoMatrix` validates
S and keeps its eigenvalues and the coefficients of its
:func:`minimal_polynomial`, whose block-companion matrix
(:func:`companion_matrix`) goes into two things:

- the internal model (:class:`InternalModel`), driven by the measured
  output.  The run config builds it once (``config.RunConfig.im``), and
  the experiment and the closed loop step it as the controller, or part
  of it, of ``plant.plant_loop``;
- the exosignal regressor (:class:`Regressor`).  Every exosignal
  w(k) = S^k w(0) obeys the polynomial's recursion, so the rows of the
  stack W0 = [w(ell) ... w(T)] lie in the span of that recursion's
  solutions, the regressor's rows: W0 factors as ``(unknown coefficient)
  @ (regressor)`` with no eigenvalue structure and no cyclic vector
  needed.  The design takes the regressor as built, and the SVD in
  ``synthesis._elimination`` decides its rank.

This module imports only ``numerics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .numerics import DEFAULT_RANK_RTOL, as_matrix, matrix_powers, norm

# Eigenvalues of the exosystem map may not dip below the unit circle by more
# than this slack (in the geometric mean of each cluster; see ExoMatrix).
UNIT_CIRCLE_SLACK = 1e-9


def minimal_polynomial(S) -> np.ndarray:
    """Lowest-degree monic polynomial annihilating a square matrix, as its
    non-leading coefficients ``c[0] .. c[d-1]`` of
    ``c[0] + c[1] x + ... + x^d`` (the degree d is their count).

    Found by an incremental Krylov test on vectorized powers: the smallest
    ``d`` such that ``vec(S^d)`` lies, within ``DEFAULT_RANK_RTOL`` relative
    residual, in the span of ``vec(S^0) .. vec(S^(d-1))``.  ``d = n`` always
    succeeds.
    """
    n = S.shape[0]
    vecs = matrix_powers(S, n).reshape(n + 1, -1).T
    for d in range(1, n + 1):
        K, target = vecs[:, :d], vecs[:, d]
        c, *_ = np.linalg.lstsq(K, target, rcond=None)
        resid = norm(K @ c - target)
        if resid <= DEFAULT_RANK_RTOL * max(1.0, norm(target)) or d == n:
            return -c
    raise AssertionError("unreachable: degree n always annihilates")


def _inside_unit_circle(S: np.ndarray, eigs: np.ndarray) -> bool:
    """Whether some cluster of S's eigenvalues has the geometric mean of its
    moduli below ``1 - UNIT_CIRCLE_SLACK`` (see :class:`ExoMatrix`);
    ``eigs`` are S's computed eigenvalues."""
    if np.all(np.abs(eigs) >= 1.0 - UNIT_CIRCLE_SLACK):
        return False  # no mean of moduli can be lower
    eigs, left, right = scipy.linalg.eig(S, left=True)
    # Round-off reach of each eigenvalue: its condition number (unit-norm
    # eigenvectors) times a backward error of 4 n_w eps |S|_F (n_w alone
    # already joins the tested Jordan blocks, hidden or not).
    with np.errstate(divide="ignore"):
        cond = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))
        log_moduli = np.log(np.abs(eigs))
    reach = 4 * len(S) * np.finfo(float).eps * norm(S) * cond
    near = np.abs(eigs[:, None] - eigs) <= np.minimum(reach[:, None], reach)
    labels = np.arange(len(eigs))
    for _ in range(len(eigs)):  # each label becomes its cluster's smallest
        labels = np.min(np.where(near, labels, len(eigs)), axis=1)
    sizes = np.bincount(labels)
    means = np.bincount(labels, log_moduli)[sizes > 0] / sizes[sizes > 0]
    return bool(np.any(means < np.log1p(-UNIT_CIRCLE_SLACK)))


@dataclass
class ExoMatrix:
    """Known exosystem map S.  All eigenvalue moduli must be >= 1.

    The bound is decided on the geometric mean of the moduli in each
    cluster of computed eigenvalues.  The computed eigenvalues of a Jordan
    block of size k spread about (eps |S|)^(1/k) around the true one, far
    past :data:`UNIT_CIRCLE_SLACK` (a size-3 block at modulus 1 gives one
    at 1 - 5.5e-6), while their product, a determinant, is accurate to
    round-off.  Two eigenvalues share a cluster when each lies within the
    other's round-off reach, its condition number times ``4 n_w eps
    |S|_F``: a Jordan block's scattered eigenvalues reach each other, and
    a well-conditioned eigenvalue is decided alone.

    ``eigs`` holds the eigenvalues of S, taken once by the validation; every
    reader of S's spectrum reads them here.  ``coeffs`` holds those of S's
    :func:`minimal_polynomial`, which only this module's builders read.
    Both are read-only."""

    S: np.ndarray
    eigs: np.ndarray = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.S = as_matrix(self.S, "S", square=True)
        self.eigs = np.linalg.eigvals(self.S)
        self.eigs.flags.writeable = False
        # The modulus bound also makes S invertible: |det S| >= (1 - slack)^n_w.
        if _inside_unit_circle(self.S, self.eigs):
            raise ValueError("exosystem eigenvalue inside unit circle")
        self.coeffs = minimal_polynomial(self.S)
        self.coeffs.flags.writeable = False

    @property
    def n_w(self) -> int:
        return self.S.shape[0]


def companion_matrix(coeffs: np.ndarray, p: int) -> np.ndarray:
    """Block-companion matrix of the monic polynomial with non-leading
    coefficients ``coeffs``: ``I_p`` blocks on the superdiagonal and
    ``-coeffs[i] * I_p`` across the last block row.  The internal model's
    and the exosignal regressor's (``p = 1``) both come from here."""
    d = len(coeffs)
    companion = np.eye(d * p, k=p)
    i = np.arange(p)[:, None]
    companion[(d - 1) * p + i, np.arange(d) * p + i] = -coeffs
    return companion


@dataclass
class InternalModel:
    """State update eta(k+1) = companion @ eta(k) + input_map @ y(k).

    ``companion`` is the block-companion matrix (:func:`companion_matrix`)
    of the minimal polynomial of the exosystem map.  ``input_map`` injects
    the measured output into the last block row.
    """

    companion: np.ndarray = field(repr=False)
    input_map: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.companion.shape[0]


def build_internal_model(exo: ExoMatrix, p: int) -> InternalModel:
    """Assemble the internal model for a ``p``-output plant from the
    minimal polynomial of S, ``exo.coeffs``, at full floating precision."""
    d = len(exo.coeffs)
    input_map = np.zeros((p * d, p))
    input_map[(d - 1) * p :, :] = np.eye(p)
    return InternalModel(companion=companion_matrix(exo.coeffs, p), input_map=input_map)


@dataclass
class Regressor:
    """Known matrix factoring the exosignal stack (the design program's
    ``mhat``), one row per degree of S's minimal polynomial."""

    matrix: np.ndarray

    @property
    def selection(self) -> list[int]:
        """Every row.  perfbench's tracer, which reads its length, is its
        only reader; it goes with ROADMAP item 5."""
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
