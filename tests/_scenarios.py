"""Shared scenario builders for the test suite: the canned benchmarks plus
randomized observable plants and unit-circle exosystems.
"""

import numpy as np

from ddreg.benchmarks import vtol, wide_output  # noqa: F401  (re-exported)
from ddreg.plant import ExoMatrix, PlantTruth, observability_index


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def monic_horner(coeffs, x):
    """``c[0] + c[1] x + ... + x^d`` at a scalar or a square matrix ``x``,
    by Horner's rule, from the non-leading coefficients ``coeffs``."""
    eye = np.eye(len(x)) if np.ndim(x) == 2 else 1.0
    acc = eye
    for c in coeffs[::-1]:
        acc = np.dot(acc, x) + c * eye
    return acc


def random_plant(rng, n, m, p, n_w, radius=0.85):
    """Random observable plant; ``radius`` scales the open-loop spectrum."""
    for _ in range(100):
        A = rng.standard_normal((n, n))
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        if rho > 0:
            A *= radius / rho
        C = rng.standard_normal((p, n))
        try:
            observability_index(A, C)
        except ValueError:
            continue
        return PlantTruth(
            A=A,
            B=rng.standard_normal((n, m)),
            P=0.5 * rng.standard_normal((n, n_w)),
            C=C,
            Q=0.5 * rng.standard_normal((p, n_w)),
        )
    raise RuntimeError("failed to draw an observable plant")


def random_unit_circle_exo(rng, n_w, conjugate=False):
    """Block-diagonal exosystem with all eigenvalues on the unit circle.

    Draws rotation pairs and +/-1 reals until ``n_w`` dimensions are filled;
    optionally hides the structure behind a well-conditioned similarity.
    """
    blocks = []
    dim = 0
    while dim < n_w:
        if n_w - dim >= 2 and rng.random() < 0.7:
            theta = float(rng.uniform(0.2, np.pi - 0.2))
            blocks.append(rotation(theta))
            dim += 2
        else:
            blocks.append(np.array([[rng.choice([-1.0, 1.0])]]))
            dim += 1
    S = np.zeros((n_w, n_w))
    at = 0
    for blk in blocks:
        k = blk.shape[0]
        S[at : at + k, at : at + k] = blk
        at += k
    if conjugate:
        while True:
            V = rng.standard_normal((n_w, n_w))
            if np.linalg.cond(V) < 50:
                break
        S = V @ S @ np.linalg.inv(V)
    return ExoMatrix(S)
