"""Shared scenario builders for the test suite and ``tools/recheck.py``: the
canned benchmarks plus randomized observable plants and unit-circle
exosystems, the random-plant sweep, the ladder of plant sizes, the paper
example in other bases and units, and exosystems in real Jordan form with
their closed-form sequences.
"""

import dataclasses
import math

import numpy as np
from scipy.linalg import block_diag

from ddreg.benchmarks import vtol, wide_output  # noqa: F401  (re-exported)
from ddreg.exosystem import ExoMatrix, build_internal_model
from ddreg.plant import PlantTruth, observability_index


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def real_jordan(real_blocks, complex_blocks=()):
    """Real Jordan matrix: blocks ``lam I + N`` for the (eigenvalue, size)
    pairs of ``real_blocks``, then ``I_k (x) rho [[cos, -sin], [sin, cos]]``
    plus ``I_2`` on the block superdiagonal for the (modulus, angle, size)
    triples of ``complex_blocks``."""
    sizes = [k for _, k in real_blocks] + [2 * k for *_, k in complex_blocks]
    J, at = np.zeros((sum(sizes), sum(sizes))), 0
    for lam, k in real_blocks:
        J[at : at + k, at : at + k] = lam * np.eye(k) + np.eye(k, k=1)
        at += k
    for rho, theta, k in complex_blocks:
        c, s, blk = rho * np.cos(theta), rho * np.sin(theta), slice(at, at + 2 * k)
        J[blk, blk] = np.kron(np.eye(k), [[c, -s], [s, c]]) + np.eye(2 * k, k=2)
        at += 2 * k
    return J


def closed_form_jordan(real_blocks, complex_blocks, ell, T):
    """The sequences ``J^t e``, t = ell..T, of :func:`real_jordan`'s matrix,
    e the last unit vector of each block (for a complex block, the cosine
    row of its last pair), entry by entry: row j of a real block of size k
    at time t is C(t, k - j) lam^e with e = t - k + j (zero for e < 0); a
    complex block's pair j is C(t, k - j) rho^e (cos theta e, sin theta e).
    """
    cols = []
    for t in range(ell, T + 1):
        col = []
        for lam, k in real_blocks:
            for j in range(1, k + 1):
                e = t - k + j
                col.append(math.comb(t, e) * lam**e if e >= 0 else 0.0)
        for rho, theta, k in complex_blocks:
            for j in range(1, k + 1):
                e = t - k + j
                scale = math.comb(t, e) * rho**e if e >= 0 else 0.0
                col += [scale * np.cos(theta * e), scale * np.sin(theta * e)]
        cols.append(col)
    return np.array(cols).T


def probe(seed, steps, m):
    """The probing input a plant config without explicit ``values`` draws
    from ``seed``: ``steps`` standard-normal samples of ``m`` entries."""
    return np.random.default_rng(seed).standard_normal((steps, m))


def lstsq_rel_residual(W0, M):
    """Oracle: best least-squares factor of W0 against the regressor rows."""
    L, *_ = np.linalg.lstsq(M.T, W0.T, rcond=None)
    return np.linalg.norm(W0 - L.T @ M) / max(np.linalg.norm(W0), 1e-300)


def exo_trajectory_stack(S, w0, ell, T):
    """W0 = [w(ell) ... w(T)] for w(k) = S^k w0."""
    w = np.asarray(w0, dtype=float)
    cols = []
    for k in range(T + 1):
        if k >= ell:
            cols.append(w.copy())
        w = S @ w
    return np.column_stack(cols)


def monic_horner(coeffs, x):
    """``c[0] + c[1] x + ... + x^d`` at a scalar or a square matrix ``x``,
    by Horner's rule, from the non-leading coefficients ``coeffs``."""
    eye = np.eye(len(x)) if np.ndim(x) == 2 else 1.0
    acc = eye
    for c in coeffs[::-1]:
        acc = np.dot(acc, x) + c * eye
    return acc


def scalar_plant(a=0.5, b=1.0, c=1.0, p=0.0, q=0.0):
    """A one-state, one-input, one-output plant driven by a scalar exosignal."""
    return PlantTruth(
        A=[[a]], B=[[b]], P=[[p]], C=[[c]], Q=[[q]]
    )


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


def paper_config(seed, presentation):
    """The ``ddreg paper-example`` config at one probing seed, its
    exosystem presented in the benchmark's real Jordan form ("jordan") or
    in the Krylov basis ``[w0, S w0]`` of its initial state ("krylov").
    The change of basis moves S, w0 and the plant's P and Q together, so
    the plant sees the same exosignal and the two designs agree up to
    round-off."""
    from ddreg.cli import paper_example_config

    config = paper_example_config(seed)
    if presentation == "jordan":
        return config
    assert presentation == "krylov"
    S, w0, plant = config.exo.S, config.w0, config.plant
    basis = np.column_stack([w0, S @ w0])
    moved = PlantTruth(
        A=plant.A, B=plant.B, P=plant.P @ basis, C=plant.C, Q=plant.Q @ basis
    )
    return dataclasses.replace(
        config,
        exo_s=np.linalg.solve(basis, S @ basis),
        plant=moved,
        w0=np.linalg.solve(basis, w0),
    )


def paper_in_units(output=1.0, input_=1.0):
    """The ``ddreg paper-example`` config at probing seed 0 with every output
    sample times ``output`` (C, Q and eta0 scaled) and every input sample
    times ``input_`` (B divided; the probe is given as the explicit samples
    ``input_`` times the seed-0 draw): an exact diagonal rescaling of the
    same data, which the same controllers stabilize."""
    from ddreg.cli import paper_example_config

    config = paper_example_config(0)
    plant = config.plant
    scaled = PlantTruth(
        A=plant.A, B=plant.B / input_, P=plant.P, C=output * plant.C, Q=output * plant.Q
    )
    return dataclasses.replace(
        config,
        plant=scaled,
        eta0=output * config.eta0,
        input_policy={"values": input_ * config.probing_input()},
    )


def ladder_config(n, m, p, n_w, s):
    """The ladder rung (n, m, p, n_w) at seed ``s``: the plant
    ``random_plant(default_rng(s), n, m, p, n_w)``, S = rotation(0.7), or
    rotation(0.7) + rotation(1.9) (block diagonal) when n_w = 4, ell the
    plant's observability index, T = 10 ell + 11, probing seed ``s`` and
    zero initial states."""
    from ddreg.cli import RunConfig

    S = rotation(0.7)
    if n_w == 4:
        S = block_diag(S, rotation(1.9))
    plant = random_plant(np.random.default_rng(s), n, m, p, n_w)
    ell = observability_index(plant.A, plant.C)
    return RunConfig(exo_s=S, ell=ell, T=10 * ell + 11, seed=s, plant=plant)


def sweep_config(seed, conjugate=False):
    """One input of the random-plant sweep, everything drawn from
    ``default_rng(seed)`` in this order: n, m, p and n_w over [2, 5),
    [1, 3), [1, 3) and [1, 4); the plant (:func:`random_plant`); the
    exosystem (:func:`random_unit_circle_exo`, behind a similarity when
    ``conjugate``); then w0 and x0, standard normal.  ell is the plant's
    observability index, T = ell + nu + n_w ell + 10 with
    nu = (m + p) ell + im.dim, the probing seed is ``seed`` and eta0 is
    zero."""
    from ddreg.cli import RunConfig

    rng = np.random.default_rng(seed)
    bounds = [(2, 5), (1, 3), (1, 3), (1, 4)]
    n, m, p, n_w = (int(rng.integers(lo, hi)) for lo, hi in bounds)
    plant = random_plant(rng, n, m, p, n_w)
    exo = random_unit_circle_exo(rng, n_w, conjugate)
    w0, x0 = rng.standard_normal(n_w), rng.standard_normal(n)
    ell = observability_index(plant.A, plant.C)
    nu = (m + p) * ell + build_internal_model(exo, p).dim
    T = ell + nu + n_w * ell + 10
    return RunConfig(exo_s=exo.S, ell=ell, T=T, seed=seed, plant=plant, w0=w0, x0=x0)
