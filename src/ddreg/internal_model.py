"""Internal model of the exosystem: a block-companion copy of the minimal
polynomial of S (its coefficients kept on ``ExoMatrix``), driven by the
measured output.

This module only builds the model's matrices.  The run config builds the
model once (``config.RunConfig.im``), and every stage reads that one: the
data-collection experiment and the closed loop step it as the controller, or
part of it, of ``plant.plant_loop``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plant import ExoMatrix


@dataclass
class InternalModel:
    """State update eta(k+1) = companion @ eta(k) + input_map @ y(k).

    ``companion`` is the block-companion matrix (:func:`companion_matrix`)
    of the minimal polynomial of the exosystem map.  ``input_map`` injects
    the measured output into the last block row.
    """

    p: int
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
    return InternalModel(
        p=p, companion=companion_matrix(exo.coeffs, p), input_map=input_map
    )


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
