"""Canned benchmark scenarios.

``vtol()`` is the discretized vertical-take-off-and-landing aircraft with a
sinusoidal exosignal of known frequency but unknown amplitude and phase: an
unstable 4-state, single-input, single-output plant with observability index
4 whose output is disturbed through Q.

``wide_output()`` is a deliberately over-instrumented plant (two outputs,
three states, window 2).  With a full-row-rank exosignal regressor the design
program is provably infeasible there, which makes it a negative benchmark.
"""

from __future__ import annotations

import numpy as np

from .exosystem import ExoMatrix
from .plant import PlantTruth

# Exosystem: quarter-turn rotation; minimal polynomial 1 + x^2.
VTOL_S = np.array([[0.0, 1.0], [-1.0, 0.0]])

VTOL_A = np.array(
    [
        [1.0000, 0.2500, 0.0000, 0.0000],
        [0.0000, 1.0000, 0.0000, 0.0000],
        [-0.3066, -0.0255, 1.0000, 0.2500],
        [-2.4525, -0.3066, 0.0000, 1.0000],
    ]
)
VTOL_B = np.array([[0.4396], [3.5172], [-0.0152], [-0.3015]])
VTOL_P = np.zeros((4, 2))
VTOL_C = np.array([[1.0, 0.0, 1.0, 0.0]])
VTOL_Q = np.array([[1.0, 0.0]])

VTOL_W0 = np.array([0.0538, 0.1834])
VTOL_X0 = np.array([-2.2588, 0.8622, 0.3188, -1.3077])
VTOL_ETA0 = np.array([-0.4336, 0.3426])

VTOL_ELL = 4
VTOL_T = 20


def vtol() -> tuple[PlantTruth, ExoMatrix]:
    plant = PlantTruth(A=VTOL_A, B=VTOL_B, P=VTOL_P, C=VTOL_C, Q=VTOL_Q)
    return plant, ExoMatrix(VTOL_S)


def wide_output() -> tuple[PlantTruth, ExoMatrix]:
    """Two-output, three-state plant with observability index 2 (so p*ell > n)."""
    A = np.array(
        [
            [0.9, 0.2, 0.0],
            [0.0, 0.8, 0.3],
            [0.1, 0.0, 0.7],
        ]
    )
    B = np.array([[1.0], [0.5], [-0.4]])
    P = np.array([[0.2, 0.0], [0.0, 0.3], [0.1, -0.1]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    Q = np.array([[0.5, 0.1], [0.0, 0.4]])
    plant = PlantTruth(A=A, B=B, P=P, C=C, Q=Q)
    return plant, ExoMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
