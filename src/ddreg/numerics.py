"""Dense real-matrix primitives shared by the rest of the toolkit.

Everything operates on plain float64 ``numpy`` arrays.  Every sequence of
matrix powers (the plant's observability stack and window maps, the
exosignal window's inverse powers, the regressor's Krylov sequence, the
minimal polynomial's test and a blocked simulation's stacked powers) comes
from :func:`matrix_powers`, and every linear system the package steps over
time goes through :func:`simulate_linear`, which steps an autonomous system
in blocks of states and a driven one state by state, one matrix-vector
product per step.  An autonomous system may start from a block of initial
states, one per column (the closed loop's run and its zero-exosignal probe
are one call).  Its divergence guard is decided by one bound on the largest
entry of all states, and its stacked powers' finiteness by one test; the
per-step norms and the per-power scan run only when these fail.

The Sylvester certificate's matrix is factored once, by :func:`real_schur`
(one LAPACK ``dgees``, its workspace size kept per matrix order): its
eigenvalues and its Schur form, on which :func:`solve_sylvester` solves the
steady-state equation.  The stability and representation spectra come from
:func:`spectral_radius`.

At the package's sizes the per-call overhead of numpy's wrappers is
comparable to the arithmetic.  Every norm the checks take is :func:`norm`
or :func:`row_norms`, equal to ``np.linalg.norm`` bit for bit without its
checks.

Every rank decision follows one rule, :func:`numerical_rank`: the singular
values above :data:`DEFAULT_RANK_RTOL` times the largest.  The degree of
S's minimal polynomial is decided at the same relative tolerance, by the
residual test of ``exosystem.minimal_polynomial``.  The solver's pivoted
Cholesky keeps LAPACK's default, and holds linearly dependent variables at
zero.

Outside numbers are read by :func:`as_real`, :func:`as_integer` (a whole
number, never truncated), :func:`as_vector` and :func:`as_matrix`, which
take real numbers only: no string, no boolean.
"""

from __future__ import annotations

import math
import numbers
from functools import cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgees, dtrsyl

# Rank tolerance of numerical_rank and exosystem.minimal_polynomial
# (relative to the largest singular value, or to the tested power's norm).
DEFAULT_RANK_RTOL = 1e-8

# Simulations abort once any state norm passes this bound, signalling
# divergence instead of emitting Inf.
DIVERGENCE_GUARD = 1e12

# States an autonomous simulation advances per loop iteration (one product
# with the stacked powers of its map).
BLOCK_STEPS = 32


def as_real(value, name: str = "value") -> float:
    """``value`` as a float; anything but a real number raises ``ValueError``
    (``float`` would read the string "1e-6" or the boolean True as one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: {value!r} is not a number")
    return float(value)


def as_vector(a, name: str = "vector", dim: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a 1-D float64 array, rejecting NaN/Inf entries and,
    unless ``a`` is a numeric array, any entry :func:`as_real` rejects (numpy
    turns ``[True, 1.5]`` into floats silently)."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "fiu"):
        for x in np.asarray(a, dtype=object).flat:
            if type(x) is not float:  # a plain float needs no further test
                as_real(x, name)
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.size and not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.size}")
    return v


def as_matrix(a, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array (a 1-D ``a`` is one row), its
    entries checked as by :func:`as_vector`."""
    M = as_vector(a, name).reshape(np.shape(a))
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if square and M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def as_integer(value, name: str = "value") -> int:
    """``value`` as an int, an integer kept exact.  An integral float such
    as 20.0 is accepted; a non-integral number raises ``ValueError``, it is
    not truncated, and so does anything :func:`as_real` rejects."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not as_real(value, name).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def numerical_rank(s) -> int:
    """Number of singular values ``s`` (descending, as ``np.linalg.svd``
    returns them) above ``DEFAULT_RANK_RTOL`` times ``s[0]``: 0 for an empty
    or zero ``s``."""
    return int(np.count_nonzero(s > DEFAULT_RANK_RTOL * s[0])) if len(s) else 0


def norm(x) -> float:
    """``np.linalg.norm(x)`` (2-norm of a vector, Frobenius norm of a
    matrix) bit for bit: the same dot product of the entries in memory
    order, without the wrapper's checks."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def row_norms(x) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` of a real matrix bit for bit: the same
    reduction of the squares, without the wrapper's checks."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def spectral_radius(M) -> float:
    """Maximum eigenvalue modulus of a square matrix."""
    return float(np.abs(np.linalg.eigvals(M)).max())


class RealSchur(NamedTuple):
    """Real Schur form ``M = z t zᵀ`` of a square matrix (``t``
    quasi-triangular, ``z`` orthogonal) with the eigenvalues ``eigs`` of M."""

    t: np.ndarray
    z: np.ndarray
    eigs: np.ndarray


def _unsorted(wr, wi):
    """dgees' selection callback: no eigenvalue is sorted to the top."""
    return None


@cache
def _dgees_lwork(n: int) -> int:
    """dgees' optimal workspace for an ``n x n`` matrix, from its workspace
    query; the size depends on the order alone."""
    return int(dgees(_unsorted, np.eye(n), lwork=-1)[-2][0])


def real_schur(M) -> RealSchur:
    """One LAPACK ``dgees`` of a finite square matrix: its real Schur form
    and eigenvalues, unsorted and unbalanced.  The form is the one
    ``scipy.linalg.schur(M)`` returns (the same workspace size, then the
    same call); the eigenvalues are dgees' own, read off the form."""
    M = np.asarray_chkfinite(M)
    t, _, wr, wi, z, _, info = dgees(_unsorted, M, lwork=_dgees_lwork(len(M)))
    if info:
        raise np.linalg.LinAlgError(f"Schur form not found (dgees info {info})")
    return RealSchur(t, z, wr + 1j * wi)


def solve_sylvester(schur: RealSchur, b, q) -> np.ndarray:
    """X solving ``A X + X b = q``, with A given by its :func:`real_schur`.

    The Bartels-Stewart steps of ``scipy.linalg.solve_sylvester`` (the Schur
    form of ``bᵀ``, LAPACK ``dtrsyl`` on the two forms, the change of basis
    back), on a Schur form of A already computed: the same X, bit for bit,
    without factoring A a second time.
    """
    s, v, _ = real_schur(b.T)
    f = schur.z.T.dot(q).dot(v)
    y, scale, info = dtrsyl(schur.t, s, f, tranb="C")
    if info < 0:
        raise np.linalg.LinAlgError(f"illegal value in argument {-info} of dtrsyl")
    return schur.z.dot(scale * y).dot(v.T)


def matrix_powers(F: np.ndarray, count: int) -> np.ndarray:
    """``I, F, F^2, ..., F^count`` as a ``(count + 1, n, n)`` stack.

    Each power is F times the one before, so column i of ``F^j`` is a
    per-step run from the unit vector e_i, with that run's kind of
    round-off.  Squaring powers (doubling) takes fewer products but
    multiplies two rounded powers: on the paper example's closed loop
    (``|F|`` about 245) the states it gave were 1e-11 relative to the run's
    largest state away from exact, against 1e-13 this way.
    """
    powers = np.empty((count + 1, *F.shape))
    powers[0] = np.eye(len(F))
    for prev, nxt in zip(powers[:-1], powers[1:]):
        F.dot(prev, out=nxt)
    return powers


def simulate_linear(F, z0, steps: int, G=None, u=None) -> np.ndarray:
    """States z(0..steps) of ``z(k+1) = F z(k) + G u(k)``, one row per step.

    ``z0`` is one initial state, shape ``(n,)``, giving states of shape
    ``(steps + 1, n)``.  An autonomous system also takes a block of c
    initial states as columns, shape ``(n, c)``, giving states of shape
    ``(steps + 1, n, c)`` whose column j is the run from ``z0[:, j]``.
    ``G`` and ``u`` come together or not at all; ``u`` needs at least
    ``steps`` rows.  Deterministic: identical inputs give bit-identical
    states.

    The guard watches each run on its own, at the first step whose state is
    past :data:`DIVERGENCE_GUARD` in norm or not finite.  A single run
    raises there; a run of a block is NaN from there on, and the other runs
    of the block are unaffected.  It is decided by one bound: a state's
    norm is at most sqrt(n) times its largest entry, so the largest entry
    of all states times sqrt(n) at or below the guard clears every state
    at once.  The per-step norms, and the search for each run's first step
    past the guard, are taken only when that bound fails.

    An autonomous system (``G is None``) advances up to
    :data:`BLOCK_STEPS` states per iteration: each block is one product of
    the stacked powers ``[F; F^2; ...; F^b]``, built once per call, with the
    block's first states.  The states agree with a per-step loop to
    round-off (within 1e-12 of the run's largest state on the tested maps,
    the paper example's closed loop among them).  A power that overflows is
    not used, so a map whose square overflows steps one state at a time;
    the stacked powers are tested for finiteness at once, and scanned power
    by power only when that test fails.

    A driven system steps one state per iteration, one matrix-vector
    product and one add, bit-identical to the plain recursion.  Lifting the
    drive term into the blocks adds sums of powers times ``G u`` whose
    round-off grows with the powers of an open-loop-unstable plant: on the
    paper plant it took the correspondence residual of a 40-step
    closed-loop run from 2e-11 to 2e-9.
    """
    n, single = F.shape[0], np.ndim(z0) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        if G is None:
            z = _step_autonomous(F, np.reshape(z0, (n, -1)), steps)
        else:
            if not single:
                raise ValueError("a driven system steps one initial state")
            if u.shape[0] < steps:
                raise ValueError(f"need at least {steps} input samples, got {u.shape[0]}")
            z = np.empty((steps + 1, n))
            z[0] = z0
            for prev, nxt, d in zip(z[:-1], z[1:], u[:steps] @ G.T):
                F.dot(prev, out=nxt)
                nxt += d
            z = z[:, :, None]
        # One test after the loop: a run past the guard may go on to overflow
        # (silenced above), and the first state past it is the one reported.
        # Negated so that a non-finite state counts as past the guard.
        states = z[1:]
        if not states.size or np.abs(states).max() * math.sqrt(n) <= DIVERGENCE_GUARD:
            return z[:, :, 0] if single else z
        past = ~(np.einsum("kic,kic->kc", states, states) <= DIVERGENCE_GUARD**2)
        if single:
            if past.any():
                step = int(np.argmax(past[:, 0])) + 1
                raise RuntimeError(
                    f"state norm {norm(z[step]):.3e} exceeded "
                    f"{DIVERGENCE_GUARD:.0e} at step {step}: divergent simulation"
                )
            return z[:, :, 0]
    for j in np.flatnonzero(past.any(axis=0)):
        z[int(np.argmax(past[:, j])) + 1 :, :, j] = np.nan
    return z


def _step_autonomous(F, starts, steps: int) -> np.ndarray:
    """States ``(steps + 1, n, c)`` of ``z(k+1) = F z(k)`` from the columns
    of ``starts``, in blocks of up to :data:`BLOCK_STEPS` states (the caller
    silences overflow)."""
    n, c = starts.shape
    powers = matrix_powers(F, max(1, min(BLOCK_STEPS, steps)))[1:]
    # Keep the powers before the first one that is not finite, and F itself:
    # a map that is not finite steps one state at a time, as a per-step loop
    # would, into states that are past the guard.
    if not np.isfinite(powers).all():
        finite = np.isfinite(powers).all(axis=(1, 2))
        powers = powers[: max(1, int(np.argmin(finite)))]
    b = len(powers)
    stacked = powers.reshape(b * n, n)
    z = np.empty((steps + 1, n, c))
    z[0] = starts
    flat = z.reshape(-1, c)  # state k is rows k * n : (k + 1) * n
    for k in range(0, steps, b):
        m = min(b, steps - k)
        stacked[: m * n].dot(z[k], out=flat[(k + 1) * n : (k + 1 + m) * n])
    return z
