"""Internal model of the exosystem: a block-companion copy of the minimal
polynomial of S (its coefficients kept on ``ExoMatrix``), driven by the
measured output.

This module only builds the model's matrices.  The data-collection
experiment steps it together with the plant (``experiment.collect_experiment``)
and the closed loop steps it together with the controller window
(``verify.assemble_closed_loop``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .plant import ExoMatrix


@dataclass
class InternalModel:
    """State update eta(k+1) = companion @ eta(k) + input_map @ y(k).

    ``companion`` is the block-companion matrix of the minimal polynomial of
    the exosystem map: identity blocks on the superdiagonal and
    ``-coeffs[i] * I_p`` across the last block row.  ``input_map`` injects
    the measured output into the last block row.
    """

    degree: int
    coeffs: np.ndarray
    p: int
    companion: np.ndarray = field(repr=False)
    input_map: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.p * self.degree


def build_internal_model(
    exo: ExoMatrix,
    p: int,
    snap_coeffs_tol: float | None = DEFAULTS["tolerances"]["snap_coeffs_tol"],
) -> InternalModel:
    """Assemble the internal model for a ``p``-output plant from the
    minimal polynomial of S, ``exo.coeffs``.

    Coefficients are kept at full floating precision.  ``snap_coeffs_tol``
    optionally rounds each coefficient to the nearest integer when it is
    already within that tolerance of one (off by default).
    """
    coeffs = exo.coeffs
    if snap_coeffs_tol is not None:
        snapped = np.round(coeffs)
        coeffs = np.where(np.abs(coeffs - snapped) <= snap_coeffs_tol, snapped, coeffs)

    d = len(coeffs)
    companion = np.eye(d * p, k=p)
    i = np.arange(p)[:, None]
    companion[(d - 1) * p + i, np.arange(d) * p + i] = -coeffs
    input_map = np.zeros((p * d, p))
    input_map[(d - 1) * p : d * p, :] = np.eye(p)
    return InternalModel(
        degree=d, coeffs=coeffs, p=p, companion=companion, input_map=input_map
    )
