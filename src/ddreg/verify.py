"""Oracle-side verification: the auxiliary stacked-window system, the
closed loop of plant plus dynamic controller, and every identity the design
rests on, each evaluated as a residual.

Every oracle map is formed once, by the builder that owns it: the plant's
window maps and A^ell by ``plant.build_structural_matrices``, the auxiliary
system and its exosignal maps by :func:`build_auxiliary_matrices`.  The
checks only apply those maps to data; none re-derives a power of A or S.

Identities along a run compare sliding windows of the run
(``experiment.stacked_windows``) in one batch; the auxiliary system and the
closed loop are stepped by ``numerics.simulate_linear``.  Everything here may
read ground truth; nothing here feeds the design path.

Nothing here passes or fails: the check battery in ``cli`` decides each
report row once, from the value returned here.  A value that does not exist
raises (``ValueError``: no unique steady state; ``RuntimeError``: a
diverging simulation), and the battery reports it as NaN, which fails.

Outside input is validated at three boundaries, the run config
(``config.RunConfig``), a record CSV (``experiment.record_from_csv``) and a
gain file (``cli.verify_gain``); no function here re-checks its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULTS
from .experiment import DataMatrices, ExperimentRecord, stacked_windows
from .internal_model import InternalModel
from .numerics import simulate_linear, spectral_radius
from .plant import ExoMatrix, PlantTruth, StructuralMatrices

# Closest an eigenvalue of the closed loop may come to one of S's (absolute,
# in the complex plane) for the steady state to count as unique.
SPECTRUM_GAP_TOL = 1e-9


@dataclass
class AuxiliaryMatrices:
    """Stacked-window auxiliary system and its cascade with the internal model,
    with the plant, exosystem and internal model it was built from.

    ``window_shift`` advances the (output, input) window one step;
    ``inject_y``/``inject_u`` write the newest output/input into the window;
    ``exo_window_map`` maps the current exosignal state to the stacked values
    over the trailing window (inverse powers of S, then identity);
    ``y_from_window``/``y_from_exo`` reproduce the plant output from the
    window and from the current exosignal state w(k).  ``ext_*`` are the
    one-step matrices of the window state cascaded with the internal model;
    ``ext_p`` also maps w(k).  :func:`build_auxiliary_matrices` forms every
    map; the checks only apply them.
    """

    ell: int
    window_shift: np.ndarray
    inject_y: np.ndarray
    inject_u: np.ndarray
    exo_window_map: np.ndarray
    y_from_window: np.ndarray
    y_from_exo: np.ndarray
    window_a: np.ndarray
    ext_a: np.ndarray
    ext_b: np.ndarray
    ext_p: np.ndarray
    struct: StructuralMatrices = field(repr=False)
    plant: PlantTruth = field(repr=False)
    exo: ExoMatrix = field(repr=False)
    im: InternalModel = field(repr=False)

    @property
    def window_dim(self) -> int:
        return self.window_shift.shape[0]


def build_auxiliary_matrices(
    plant: PlantTruth, struct: StructuralMatrices, exo: ExoMatrix, im: InternalModel
) -> AuxiliaryMatrices:
    """Assemble the auxiliary system at the window length of ``struct``."""
    ell = struct.ell
    m, p, n_w = plant.m, plant.p, plant.n_w
    C, Q = plant.C, plant.Q

    wd = (m + p) * ell
    off = p * ell
    window_shift = np.zeros((wd, wd))
    window_shift[:off, :off] = np.eye(off, k=p)
    window_shift[off:, off:] = np.eye(m * ell, k=m)

    inject_y = np.zeros((wd, p))
    inject_y[(ell - 1) * p : ell * p, :] = np.eye(p)
    inject_u = np.zeros((wd, m))
    inject_u[off + (ell - 1) * m : off + ell * m, :] = np.eye(m)

    s_inv = np.linalg.inv(exo.S)
    stack = [np.eye(n_w)]
    for _ in range(ell):
        stack.append(stack[-1] @ s_inv)
    exo_window_map = np.vstack(stack[::-1])  # S^-ell, ..., S^-1, I

    core = C @ struct.a_ell @ struct.obs_pinv
    y_from_window = np.hstack([core, C @ struct.reach_u - core @ struct.toeplitz_u])
    # Output and cascade maps of the stacked exosignal, composed with
    # exo_window_map once so that they map the current exosignal state.
    y_from_stack = np.hstack([C @ struct.reach_w - core @ struct.toeplitz_w, Q])
    y_from_exo = y_from_stack @ exo_window_map

    window_a = window_shift + inject_y @ y_from_window

    dim_im = im.dim
    ext_a = np.zeros((wd + dim_im, wd + dim_im))
    ext_a[:wd, :wd] = window_a
    ext_a[wd:, :wd] = im.input_map @ y_from_window
    ext_a[wd:, wd:] = im.companion
    ext_b = np.vstack([inject_u, np.zeros((dim_im, m))])
    ext_p = (
        np.vstack([inject_y @ y_from_stack, im.input_map @ y_from_stack])
        @ exo_window_map
    )

    return AuxiliaryMatrices(
        ell=ell,
        window_shift=window_shift,
        inject_y=inject_y,
        inject_u=inject_u,
        exo_window_map=exo_window_map,
        y_from_window=y_from_window,
        y_from_exo=y_from_exo,
        window_a=window_a,
        ext_a=ext_a,
        ext_b=ext_b,
        ext_p=ext_p,
        struct=struct,
        plant=plant,
        exo=exo,
        im=im,
    )


def check_data_identity(data: DataMatrices, aux: AuxiliaryMatrices) -> float:
    """Relative defect of the one-step data relation, using the hidden
    exosignal stack: psi1 against ext_a psi0 + ext_b u1 + ext_p w.
    """
    predicted = aux.ext_a @ data.psi0 + aux.ext_b @ data.u1 + aux.ext_p @ data.w0_oracle
    return float(
        np.linalg.norm(data.psi1 - predicted) / max(1.0, np.linalg.norm(data.psi1))
    )


def oracle_factorization_residual(data: DataMatrices, regressor_matrix) -> float:
    """Best least-squares factorization of the hidden exosignal stack against
    the rows of the known regressor, as a relative residual.
    """
    M, W0 = regressor_matrix, data.w0_oracle
    L, *_ = np.linalg.lstsq(M.T, W0.T, rcond=None)
    return float(np.linalg.norm(W0 - L.T @ M) / max(np.linalg.norm(W0), 1e-300))


def check_claim1(
    rec: ExperimentRecord, plant: PlantTruth, struct: StructuralMatrices
) -> tuple[float, float, float]:
    """Window-reconstruction identities along a recorded run.

    Returns the worst relative residual of (output window, state, output)
    reconstructed from the trailing windows, over all steps k >= ell.
    """
    ell, T = struct.ell, rec.T
    y, u, w, x = rec.y, rec.u, rec.oracle.w, rec.oracle.x
    state_from_window = struct.a_ell @ struct.obs_pinv
    ru_eff = struct.reach_u - state_from_window @ struct.toeplitz_u
    rw_eff = struct.reach_w - state_from_window @ struct.toeplitz_w

    scale = max(
        1.0,
        float(np.abs(y).max()),
        float(np.abs(x).max()),
        float(np.abs(w).max()),
        float(np.abs(u).max()),
    )
    # Row k - ell of each stack is the trailing window of step k = ell..T.
    yw, uw, ww = (stacked_windows(a[:T], ell) for a in (y, u, w))
    r1 = yw - (
        x[: T + 1 - ell] @ struct.obs.T
        + uw @ struct.toeplitz_u.T
        + ww @ struct.toeplitz_w.T
    )
    state = yw @ state_from_window.T + uw @ ru_eff.T + ww @ rw_eff.T
    r2 = x[ell:] - state
    r3 = y[ell:] - (state @ plant.C.T + w[ell:] @ plant.Q.T)
    return tuple(float(np.linalg.norm(r, axis=1).max()) / scale for r in (r1, r2, r3))


def check_solution_correspondence(
    aux: AuxiliaryMatrices, w, x0, y, u
) -> tuple[float, float]:
    """Compare a plant run with the auxiliary system started from the
    prescribed initial stack.

    The run has exosignal samples ``w`` at steps 0..ell at least (further
    rows are ignored), starts from plant state ``x0``, and has outputs ``y``
    at steps 0..K, K >= ell, and inputs ``u`` at steps 0..K-1 (further input
    rows are ignored).  The auxiliary run starts at step ell with the window
    state built from ``x0``, the first ell inputs and exosignal samples, and
    its exosignal state at w(ell).  Returns the worst relative mismatch over
    steps ell..K of (window state against the stacked trailing output and
    input window of the run, output).
    """
    ell = aux.ell
    struct = aux.struct
    steps = y.shape[0] - 1
    u = u[:steps]

    # Auxiliary system on (xi, omega) from the prescribed initialization.
    xi = np.concatenate(
        [
            struct.obs @ x0
            + struct.toeplitz_u @ u[:ell].ravel()
            + struct.toeplitz_w @ w[:ell].ravel(),
            u[:ell].ravel(),
        ]
    )
    wd, n_w, S = aux.window_dim, aux.exo.n_w, aux.exo.S
    F = np.zeros((wd + n_w, wd + n_w))
    F[:wd, :wd] = aux.window_a
    F[:wd, wd:] = aux.inject_y @ aux.y_from_exo
    F[wd:, wd:] = S
    G = np.vstack([aux.inject_u, np.zeros((n_w, u.shape[1]))])
    z = simulate_linear(F, np.concatenate([xi, w[ell]]), steps - ell, G, u[ell:])
    xi, omega = z[:, :wd], z[:, wd:]
    phi = xi @ aux.y_from_window.T + omega @ aux.y_from_exo.T

    # Row k - ell is the trailing (output, input) window of step k = ell..K.
    window = np.hstack([stacked_windows(y[:steps], ell), stacked_windows(u, ell)])
    scale = max(1.0, float(np.abs(y).max()), float(np.abs(u).max()))
    worst_state = float(np.linalg.norm(xi - window, axis=1).max())
    worst_out = float(np.linalg.norm(phi - y[ell:], axis=1).max())
    return worst_state / scale, worst_out / scale


@dataclass
class ClosedLoopModel:
    """Plant under the dynamic output-feedback controller.

    State blocks, in order: exosignal w, plant state x, window state chi,
    internal-model state eta.  ``full_map`` is the one-step matrix on the
    whole stack; ``core_map`` drops the exosignal row/column (the autonomous
    part whose spectral radius decides internal stability).  The plant,
    exosystem and internal model are those of ``aux``.
    """

    aux: AuxiliaryMatrices
    gain: np.ndarray
    full_map: np.ndarray = field(repr=False)
    core_map: np.ndarray = field(repr=False)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        aux = self.aux
        return (aux.exo.n_w, aux.plant.n, aux.window_dim, aux.im.dim)


def assemble_closed_loop(aux: AuxiliaryMatrices, gain) -> ClosedLoopModel:
    """One-step block map of the closed loop under u = gain @ (chi, eta),
    for an ``m x (window_dim + im.dim)`` gain."""
    plant, im = aux.plant, aux.im
    wd, di = aux.window_dim, im.dim
    n, n_w = plant.n, plant.n_w
    k_chi = gain[:, :wd]
    k_eta = gain[:, wd:]

    A, B, P, C, Q = plant.A, plant.B, plant.P, plant.C, plant.Q
    x, c, e = n_w, n_w + n, n_w + n + wd  # where x, chi and eta start
    full = np.zeros((e + di, e + di))
    full[:x, :x] = aux.exo.S
    full[x:c, :x] = P
    full[x:c, x:c] = A
    full[x:c, c:e] = B @ k_chi
    full[x:c, e:] = B @ k_eta
    full[c:e, :x] = aux.inject_y @ Q
    full[c:e, x:c] = aux.inject_y @ C
    full[c:e, c:e] = aux.window_shift + aux.inject_u @ k_chi
    full[c:e, e:] = aux.inject_u @ k_eta
    full[e:, :x] = im.input_map @ Q
    full[e:, x:c] = im.input_map @ C
    full[e:, e:] = im.companion
    core = full[x:, x:].copy()
    return ClosedLoopModel(aux=aux, gain=gain, full_map=full, core_map=core)


def check_internal_stability(cl: ClosedLoopModel) -> float:
    """Spectral radius of the exosignal-free closed loop; stable iff < 1."""
    return spectral_radius(cl.core_map)


@dataclass
class ClosedLoopRun:
    steps: int
    w: np.ndarray
    x: np.ndarray
    chi: np.ndarray
    eta: np.ndarray
    y: np.ndarray
    u: np.ndarray
    tail_max_y: float
    settle_step: int | None


def simulate_closed_loop(
    cl: ClosedLoopModel,
    w0,
    x0,
    chi0,
    eta0,
    steps: int,
    eps_reg: float = DEFAULTS["tolerances"]["eps_reg"],
    tail_frac: float = DEFAULTS["verify"]["tail_frac"],
) -> ClosedLoopRun:
    """Roll the closed loop and measure regulation.

    The stacked state (w, x, chi, eta) is stepped by ``cl.full_map``
    (``numerics.simulate_linear``, which raises on divergence; the loop is
    autonomous, so it advances in blocks of states, each one product with
    the stacked powers of the map); outputs and inputs are read off the
    stored states afterwards.
    ``tail_max_y`` is the largest output norm over the final ``tail_frac``
    of the horizon; ``settle_step`` is the first step from which the output
    norm stays below ``eps_reg`` to the end (None if it never does).
    """
    n_w, n, wd, di = cl.dims
    z = simulate_linear(cl.full_map, np.concatenate([w0, x0, chi0, eta0]), steps)
    w, x, chi, eta = np.split(z, np.cumsum([n_w, n, wd]), axis=1)
    y = z[:, : n_w + n] @ np.hstack([cl.aux.plant.Q, cl.aux.plant.C]).T
    u = z[:steps, n_w + n :] @ cl.gain.T

    y_norms = np.linalg.norm(y, axis=1)
    tail_start = max(0, int(np.floor((1.0 - tail_frac) * steps)))
    unsettled = np.flatnonzero(~(y_norms < eps_reg))
    settle = int(unsettled[-1]) + 1 if unsettled.size else 0
    return ClosedLoopRun(
        steps=steps,
        w=w,
        x=x,
        chi=chi,
        eta=eta,
        y=y,
        u=u,
        tail_max_y=float(np.max(y_norms[tail_start:])),
        settle_step=settle if settle <= steps else None,
    )


def check_regulator_equations(
    aux: AuxiliaryMatrices, closed_data_matrix, eigs
) -> tuple[float, float]:
    """Steady-state (Sylvester) certificate for zero asymptotic output.

    Solves ``A_cl P - P S = -ext_p`` for the closed-loop matrix ``A_cl``
    (in its data representation), whose eigenvalues are ``eigs``, and
    returns the norm of ``y_from_exo + y_from_window P_top`` together with
    the relative Sylvester residual.  Raises ``ValueError`` when ``A_cl`` is
    not Schur or is resonant with S (an eigenvalue within
    :data:`SPECTRUM_GAP_TOL` of one of S's): no unique steady state.
    """
    A_cl, S = closed_data_matrix, aux.exo.S
    rho = float(np.max(np.abs(eigs)))
    if rho >= 1.0:
        raise ValueError(f"closed-loop matrix is not Schur (radius {rho:.4f})")
    if np.min(np.abs(eigs[:, None] - aux.exo.eigs)) <= SPECTRUM_GAP_TOL:
        raise ValueError("resonant spectra")
    rhs = -aux.ext_p
    Pi = scipy.linalg.solve_sylvester(A_cl, -S, rhs)
    syl = np.linalg.norm(A_cl @ Pi - Pi @ S - rhs)
    denom = (np.linalg.norm(A_cl) + np.linalg.norm(S)) * np.linalg.norm(Pi) + 1e-300
    pi_top = Pi[: aux.window_dim]
    identity = float(np.linalg.norm(aux.y_from_exo + aux.y_from_window @ pi_top))
    return identity, float(syl / denom)


def check_representation_equivalence(model_side, data_eigs) -> float:
    """Gap between the spectral radii of the model-side closed loop
    ``ext_a + ext_b gain`` and its data-side representation, whose
    eigenvalues are ``data_eigs``."""
    return abs(spectral_radius(model_side) - float(np.max(np.abs(data_eigs))))
