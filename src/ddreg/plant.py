"""Ground-truth plant/exosystem representation and the stacked window
matrices (observability stack, input/exosignal Toeplitz maps, reachability
rows) the oracle builds on.

The plant

    w(k+1) = S w(k)
    x(k+1) = A x(k) + B u(k) + P w(k)
    y(k)   = C x(k) + Q w(k)

is known only to the harness; the design pipeline sees input-output data.
The window maps are read off one stack of powers of A
(``numerics.matrix_powers``), each Toeplitz block being the Markov
parameter at its lag.  The plant is stepped forward only inside a loop
with a controller, whose one-step map on ``[w; x; c]`` :func:`plant_loop`
alone writes: the data-collection experiment
(``experiment.collect_experiment``) runs it with the internal model as
controller, the closed loop (``verify.assemble_closed_loop``) with window
and internal model under the designed gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy.linalg

from .numerics import as_matrix, matrix_powers, minimal_polynomial, numerical_rank

# Eigenvalues of the exosystem map may not dip below the unit circle by more
# than this slack (in the geometric mean of each cluster; see ExoMatrix).
UNIT_CIRCLE_SLACK = 1e-9


def observability_index(A, C) -> int:
    """Minimal window length l with ``rank [C; CA; ...; CA^(l-1)] = n``.

    Raises
    ------
    ValueError
        If the stacked rank never reaches n ("unobservable pair").
    """
    A = as_matrix(A, "A", square=True)
    C = as_matrix(C, "C")
    n, p = A.shape[0], C.shape[0]
    if C.shape[1] != n:
        raise ValueError(f"C must have {n} columns, got {C.shape[1]}")
    obs = (C @ matrix_powers(A, n - 1)).reshape(n * p, n)
    for depth in range(1, n + 1):
        if numerical_rank(np.linalg.svd(obs[: depth * p], compute_uv=False)) == n:
            return depth
    raise ValueError("unobservable pair")


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
    reach = 4 * len(S) * np.finfo(float).eps * np.linalg.norm(S) * cond
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
    reader of S's spectrum reads them here.  ``coeffs`` holds the internal
    model's: those of S's ``minimal_polynomial``.  Both are read-only."""

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


@cache
def _toeplitz_index(ell: int, p: int, m: int) -> np.ndarray:
    """Where each entry of a block lower-triangular Toeplitz matrix of ell x
    ell blocks of p x m sits in its blocks stacked flat by lag (lags 0 to
    ell - 1, then a zero block): block (i, j) is lag i - j, or the zero
    block above the diagonal.  Read-only, kept per shape."""
    lag = np.arange(ell)[:, None] - np.arange(ell)
    block = np.where(lag >= 0, lag, ell)[:, None, :, None]
    entry = (np.arange(p)[:, None] * m + np.arange(m))[None, :, None, :]
    index = (block * (p * m) + entry).reshape(ell * p, ell * m)
    index.flags.writeable = False
    return index


def _block_toeplitz(lag0: np.ndarray, markov: np.ndarray) -> np.ndarray:
    """Block lower-triangular Toeplitz matrix of ``len(markov) + 1`` block
    rows: block (i, j) is ``lag0`` at i = j, ``markov[i - j - 1]`` below."""
    ell, (p, m) = len(markov) + 1, lag0.shape
    by_lag = np.zeros((ell + 1, p, m))  # lags 0 .. ell - 1, then zero
    by_lag[0] = lag0
    by_lag[1:ell] = markov
    return by_lag.ravel()[_toeplitz_index(ell, p, m)]


def build_structural_matrices(plant: PlantTruth, ell: int) -> StructuralMatrices:
    """Window maps for a window of ``ell >= 1`` steps; requires observability
    at ell."""
    n, m, p = plant.n, plant.m, plant.p
    A, B, P, C, Q = plant.A, plant.B, plant.P, plant.C, plant.Q

    powers = matrix_powers(A, ell)
    obs = (C @ powers[:ell]).reshape(ell * p, n)
    # One thin SVD gives the rank test and, in np.linalg.pinv's arithmetic,
    # the pseudo-inverse (every singular value left is above pinv's cutoff).
    u, s, vt = np.linalg.svd(obs, full_matrices=False)
    if numerical_rank(s) < n:
        raise ValueError("ell below observability index")
    obs_pinv = vt.T @ ((1 / s)[:, None] * u.T)

    # Markov parameters by lag: C A^(d-1) B and C A^(d-1) P at lag d >= 1.
    cb, cp = (obs.reshape(ell, p, n)[: ell - 1] @ M for M in (B, P))
    toeplitz_u = _block_toeplitz(np.zeros((p, m)), cb)
    toeplitz_w = _block_toeplitz(Q, cp)
    # Column block j of the reachability rows is A^(ell-1-j) times B or P.
    reach_u, reach_w = (np.concatenate(powers[ell - 1 :: -1] @ M, axis=1) for M in (B, P))
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


def plant_loop(plant: PlantTruth, S, ctrl_a, ctrl_y, ctrl_u, gain=None):
    """One-step maps ``(F, G)`` of exosystem, plant and a controller
    ``c(k+1) = ctrl_a c(k) + ctrl_y y(k) + ctrl_u u(k)`` on ``[w; x; c]``,
    with ``[w; x; c](k+1) = F [w; x; c](k) + G v(k)``.

    The input is ``u = gain @ c + v``, or ``u = v`` without a gain, so
    ``G = [0; B; ctrl_u]``.
    """
    n_w, n = S.shape[0], plant.n
    x, c = n_w, n_w + n  # where x and c start
    F = np.zeros((c + ctrl_a.shape[0],) * 2)
    F[:x, :x] = S
    F[x:c, :x] = plant.P
    F[x:c, x:c] = plant.A
    F[c:, :x] = ctrl_y @ plant.Q
    F[c:, x:c] = ctrl_y @ plant.C
    F[c:, c:] = ctrl_a
    if gain is not None:
        F[x:c, c:] = plant.B @ gain
        F[c:, c:] += ctrl_u @ gain
    return F, np.concatenate((np.zeros((n_w, plant.m)), plant.B, ctrl_u))
