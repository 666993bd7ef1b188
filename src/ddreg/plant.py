"""Ground-truth plant/exosystem representation and the stacked window
matrices (observability stack, input/exosignal Toeplitz maps, reachability
rows) the oracle builds on.

The plant

    w(k+1) = S w(k)
    x(k+1) = A x(k) + B u(k) + P w(k)
    y(k)   = C x(k) + Q w(k)

is known only to the harness; the design pipeline sees input-output data.
The plant is stepped forward only as one block of a larger linear system:
the data-collection experiment (``experiment.collect_experiment``) and the
closed loop (``verify.assemble_closed_loop``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DEFAULT_RANK_RTOL,
    as_integer,
    as_matrix,
    as_real,
    minimal_polynomial,
    rank_with_tol,
)

# Eigenvalues of the exosystem map may not dip below the unit circle by more
# than this slack.
UNIT_CIRCLE_SLACK = 1e-9


def observability_index(A, C, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
    """Minimal window length l with ``rank [C; CA; ...; CA^(l-1)] = n``.

    Raises
    ------
    ValueError
        If the stacked rank never reaches n ("unobservable pair").
    """
    A = as_matrix(A, "A", square=True)
    C = as_matrix(C, "C")
    n = A.shape[0]
    if C.shape[1] != n:
        raise ValueError(f"C must have {n} columns, got {C.shape[1]}")
    rows = [C]
    for depth in range(1, n + 1):
        stacked = np.vstack(rows)
        if rank_with_tol(stacked, rel_tol) == n:
            return depth
        rows.append(rows[-1] @ A)
    raise ValueError("unobservable pair")


@dataclass
class ExoMatrix:
    """Known exosystem map S.  All eigenvalue moduli must be >= 1.

    ``eigs`` holds the eigenvalues of S, taken once by the validation; every
    reader of S's spectrum reads them here.  ``coeffs`` holds the internal
    model's: those of S's ``minimal_polynomial``.  Both are read-only."""

    S: np.ndarray
    eigs: np.ndarray = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.S = as_matrix(self.S, "S", square=True)
        self.eigs = np.linalg.eigvals(self.S)
        self.eigs.flags.writeable = False
        if np.any(np.abs(self.eigs) < 1.0 - UNIT_CIRCLE_SLACK):
            raise ValueError("exosystem eigenvalue inside unit circle")
        # Invertibility is implied by the modulus bound; double-check via rank.
        if rank_with_tol(self.S) < self.S.shape[0]:
            raise ValueError("exosystem matrix is singular")
        self.coeffs = minimal_polynomial(self.S)
        self.coeffs.flags.writeable = False

    @property
    def n_w(self) -> int:
        return self.S.shape[0]


@dataclass
class JordanSpec:
    """Jordan structure of the exosystem map.

    ``real_blocks`` holds (eigenvalue, block size) pairs; ``complex_blocks``
    holds (modulus, angle, block size) triples with the angle in (0, pi),
    conjugate blocks implicit.  A block size is a whole number (``2.0`` is
    accepted, ``1.5`` raises).  Block dimensions must add up to the exosystem
    dimension: sum of real sizes plus twice the sum of complex sizes.
    """

    real_blocks: list[tuple[float, int]] = field(default_factory=list)
    complex_blocks: list[tuple[float, float, int]] = field(default_factory=list)

    def __post_init__(self):
        self.real_blocks = [
            (as_real(lam, "eigenvalue"), as_integer(k, "block size"))
            for lam, k in self.real_blocks
        ]
        self.complex_blocks = [
            (as_real(rho, "modulus"), as_real(theta, "angle"), as_integer(k, "block size"))
            for rho, theta, k in self.complex_blocks
        ]
        for lam, k in self.real_blocks:
            if k < 1:
                raise ValueError(f"block size must be >= 1, got {k}")
            if abs(lam) < 1.0 - UNIT_CIRCLE_SLACK:
                raise ValueError("exosystem eigenvalue inside unit circle")
        for rho, theta, k in self.complex_blocks:
            if k < 1:
                raise ValueError(f"block size must be >= 1, got {k}")
            if rho < 1.0 - UNIT_CIRCLE_SLACK:
                raise ValueError("exosystem eigenvalue inside unit circle")
            if not (0.0 < theta < np.pi):
                raise ValueError(f"complex-block angle must lie in (0, pi), got {theta}")

    @property
    def n_w(self) -> int:
        return sum(k for _, k in self.real_blocks) + 2 * sum(
            k for _, _, k in self.complex_blocks
        )

    def eigenvalues(self) -> np.ndarray:
        """Implied spectrum, with multiplicity."""
        eigs = []
        for lam, k in self.real_blocks:
            eigs.extend([complex(lam, 0.0)] * k)
        for rho, theta, k in self.complex_blocks:
            eigs.extend([rho * np.exp(1j * theta)] * k)
            eigs.extend([rho * np.exp(-1j * theta)] * k)
        return np.array(eigs)

    def minimal_degree(self) -> int:
        """Degree of the minimal polynomial implied by the block structure."""
        largest: dict[complex, int] = {}
        for lam, k in self.real_blocks:
            key = complex(round(lam, 9), 0.0)
            largest[key] = max(largest.get(key, 0), k)
        degree = sum(largest.values())
        largest_c: dict[complex, int] = {}
        for rho, theta, k in self.complex_blocks:
            key = complex(round(rho, 9), round(theta, 9))
            largest_c[key] = max(largest_c.get(key, 0), k)
        return degree + 2 * sum(largest_c.values())


@dataclass
class PlantTruth:
    """Hidden ground-truth matrices of the plant; oracle/verifier use only.

    ``obs_index`` is the observability index of (A, C), decided once when
    the plant is built (an unobservable plant raises)."""

    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    obs_index: int = field(init=False, repr=False)

    def __post_init__(self):
        self.A = as_matrix(self.A, "A", square=True)
        n = self.A.shape[0]
        self.B = as_matrix(self.B, "B")
        self.P = as_matrix(self.P, "P")
        self.C = as_matrix(self.C, "C")
        self.Q = as_matrix(self.Q, "Q")
        if self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {self.B.shape[0]}")
        if self.P.shape[0] != n:
            raise ValueError(f"P must have {n} rows, got {self.P.shape[0]}")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {self.C.shape[1]}")
        if self.Q.shape[0] != self.C.shape[0]:
            raise ValueError(
                f"Q must have {self.C.shape[0]} rows, got {self.Q.shape[0]}"
            )
        if self.Q.shape[1] != self.P.shape[1]:
            raise ValueError(
                f"Q must have {self.P.shape[1]} columns, got {self.Q.shape[1]}"
            )
        # Observability of (A, C) underpins the whole construction.
        self.obs_index = observability_index(self.A, self.C)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def n_w(self) -> int:
        return self.P.shape[1]


@dataclass
class StructuralMatrices:
    """Stacked-window maps of the plant at window length ``ell``.

    ``obs`` stacks C, CA, ..., CA^(ell-1); ``toeplitz_u``/``toeplitz_w`` map
    the stacked input/exosignal window to the stacked output window (block
    lower-triangular Toeplitz, the exosignal one carrying Q on the diagonal);
    ``reach_u``/``reach_w`` map the windows to the state advanced ell steps.
    ``obs_pinv`` is the Moore-Penrose left inverse of ``obs``; ``a_ell`` is
    A^ell, the last of the powers the maps are built from.
    """

    ell: int
    obs: np.ndarray
    toeplitz_u: np.ndarray
    toeplitz_w: np.ndarray
    reach_u: np.ndarray
    reach_w: np.ndarray
    obs_pinv: np.ndarray = field(repr=False)
    a_ell: np.ndarray = field(repr=False)


def build_structural_matrices(plant: PlantTruth, ell: int) -> StructuralMatrices:
    """Window maps for a window of ``ell >= 1`` steps; requires observability
    at ell."""
    n, m, p, n_w = plant.n, plant.m, plant.p, plant.n_w
    A, B, P, C, Q = plant.A, plant.B, plant.P, plant.C, plant.Q

    powers = [np.eye(n)]
    for _ in range(ell):
        powers.append(powers[-1] @ A)

    obs = np.vstack([C @ powers[j] for j in range(ell)])
    # One thin SVD gives the rank test and, in np.linalg.pinv's arithmetic,
    # the pseudo-inverse (every singular value left is above pinv's cutoff).
    u, s, vt = np.linalg.svd(obs, full_matrices=False)
    if np.count_nonzero(s > DEFAULT_RANK_RTOL * s[0]) < n:
        raise ValueError("ell below observability index")
    obs_pinv = vt.T @ ((1 / s)[:, None] * u.T)

    cb, cp = (obs.reshape(ell, p, n) @ M for M in (B, P))  # C A^d B, C A^d P
    toeplitz_u = np.zeros((p * ell, m * ell))
    toeplitz_w = np.zeros((p * ell, n_w * ell))
    for i in range(ell):
        toeplitz_w[i * p : (i + 1) * p, i * n_w : (i + 1) * n_w] = Q
        for j in range(i):
            toeplitz_u[i * p : (i + 1) * p, j * m : (j + 1) * m] = cb[i - j - 1]
            toeplitz_w[i * p : (i + 1) * p, j * n_w : (j + 1) * n_w] = cp[i - j - 1]

    reach_u = np.hstack([powers[ell - 1 - j] @ B for j in range(ell)])
    reach_w = np.hstack([powers[ell - 1 - j] @ P for j in range(ell)])
    return StructuralMatrices(
        ell=ell,
        obs=obs,
        toeplitz_u=toeplitz_u,
        toeplitz_w=toeplitz_w,
        reach_u=reach_u,
        reach_w=reach_w,
        obs_pinv=obs_pinv,
        a_ell=powers[ell],
    )
