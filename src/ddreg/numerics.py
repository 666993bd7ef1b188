"""Dense real-matrix primitives shared by the rest of the toolkit.

Everything operates on plain float64 ``numpy`` arrays.  Every linear system
the package steps over time goes through :func:`simulate_linear`, which
steps an autonomous system in blocks of states and a driven one state by
state.  Rank decisions are relative, each under one of four tolerances:
:data:`DEFAULT_RANK_RTOL` in :func:`rank_with_tol` and in
``synthesis._svd_split`` (the nullspace of ``mhat``, and the rank of
``psi0 null_m`` that decides the design program's rank branch);
``tolerances.reduce_tol`` in ``exo_factorization.reduce_to_full_row_rank``;
``tolerances.exo_cluster_tol`` in ``analyze_exosystem`` (eigenvalue
clusters, ``_complex_rank`` and the minimal-polynomial degree); and
LAPACK's default in the solver's pivoted Cholesky, which holds linearly
dependent variables at zero.

Outside numbers are read by :func:`as_real`, :func:`as_integer` (a whole
number, never truncated), :func:`as_vector` and :func:`as_matrix`, which
take real numbers only: no string, no boolean.
"""

from __future__ import annotations

import numbers

import numpy as np

# Rank tolerance of rank_with_tol and synthesis._svd_split (relative to the
# largest singular value of the matrix under test).
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
            as_real(x, name)
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
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


def rank_with_tol(M, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
    """Numerical rank: number of singular values above ``rel_tol * sigma_max``.

    The zero matrix has rank 0.  An empty matrix is rejected.
    """
    M = as_matrix(M, "rank input")
    if M.size == 0:
        raise ValueError("empty input")
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def minimal_polynomial(S, tol: float = 1e-8) -> np.ndarray:
    """Lowest-degree monic polynomial annihilating a square matrix, as its
    non-leading coefficients ``c[0] .. c[d-1]`` of
    ``c[0] + c[1] x + ... + x^d`` (the degree d is their count).

    Found by an incremental Krylov test on vectorized powers: the smallest
    ``d`` such that ``vec(S^d)`` lies, within ``tol`` relative residual, in
    the span of ``vec(S^0) .. vec(S^(d-1))``.  ``d = n`` always succeeds.
    """
    n = S.shape[0]
    power = np.eye(n)
    basis = [power.ravel()]
    for d in range(1, n + 1):
        power = power @ S
        target = power.ravel()
        K = np.column_stack(basis)
        c, *_ = np.linalg.lstsq(K, target, rcond=None)
        resid = np.linalg.norm(K @ c - target)
        if resid <= tol * max(1.0, np.linalg.norm(target)) or d == n:
            return -c
        basis.append(target)
    raise AssertionError("unreachable: degree n always annihilates")


def spectral_radius(M) -> float:
    """Maximum eigenvalue modulus of a square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _powers(F: np.ndarray, count: int) -> np.ndarray:
    """``F, F^2, ..., F^j`` as a ``(j, n, n)`` stack, for the largest
    ``j <= count`` whose powers are all finite (``j >= 1``, as F itself is
    finite).

    Each power is F times the one before, so column i of ``F^j`` is a
    per-step run from the unit vector e_i, with that run's kind of
    round-off.  Squaring powers (doubling) takes fewer products but
    multiplies two rounded powers: on the paper example's closed loop
    (``|F|`` about 245) the states it gave were 1e-11 relative to the run's
    largest state away from exact, against 1e-13 this way.
    """
    powers = np.empty((count, *F.shape))
    powers[0] = F
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, count):
            np.matmul(F, powers[j - 1], out=powers[j])
    finite = np.isfinite(powers).all(axis=(1, 2))
    return powers if finite.all() else powers[: int(np.argmin(finite))]


def simulate_linear(F, z0, steps: int, G=None, u=None) -> np.ndarray:
    """States z(0..steps) of ``z(k+1) = F z(k) + G u(k)``, one row per step.

    ``G`` and ``u`` come together or not at all; ``u`` needs at least
    ``steps`` rows.  Deterministic: identical inputs give bit-identical
    states.  Raises once the state norm passes :data:`DIVERGENCE_GUARD`, at
    the first step whose state is past it or not finite.

    An autonomous system (``G is None``) advances up to
    :data:`BLOCK_STEPS` states per iteration: each block is one product of
    the stacked powers ``[F; F^2; ...; F^b]``, built once per call, with the
    block's first state.  The states agree with a per-step loop to
    round-off (within 1e-12 of the run's largest state on the tested maps,
    the paper example's closed loop among them).  A power that overflows is
    not used, so a map whose square overflows steps one state at a time.

    A driven system steps one state per iteration, bit-identical to the
    plain recursion.  Lifting the drive term into the blocks adds sums of
    powers times ``G u`` whose round-off grows with the powers of an
    open-loop-unstable plant: on the paper plant it took the correspondence
    residual of a 40-step closed-loop run from 2e-11 to 2e-9.
    """
    n = F.shape[0]
    z = np.empty((steps + 1, n))
    z[0] = z0
    drive = None
    if G is not None:
        if u.shape[0] < steps:
            raise ValueError(f"need at least {steps} input samples, got {u.shape[0]}")
        drive = u[:steps] @ G.T
        powers = F[None]
    else:
        powers = _powers(F, max(1, min(BLOCK_STEPS, steps)))
    b = len(powers)
    stacked = powers.reshape(b * n, n)
    flat = z.reshape(-1)  # state k is flat[k * n : (k + 1) * n]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, steps, b):
            m = min(b, steps - k)
            np.matmul(stacked[: m * n], z[k], out=flat[(k + 1) * n : (k + 1 + m) * n])
            if drive is not None:
                z[k + 1] += drive[k]
        # One test after the loop: a run past the guard may go on to overflow
        # (silenced above), and the first state past it is the one reported.
        # Negated so that a non-finite state counts as past the guard.
        past = np.flatnonzero(~(np.einsum("ij,ij->i", z[1:], z[1:]) <= DIVERGENCE_GUARD**2))
        if past.size:
            step = int(past[0]) + 1
            raise RuntimeError(
                f"state norm {np.linalg.norm(z[step]):.3e} exceeded "
                f"{DIVERGENCE_GUARD:.0e} at step {step}: divergent simulation"
            )
    return z

