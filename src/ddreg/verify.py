"""Oracle-side verification: the auxiliary stacked-window system, the
closed loop of plant plus dynamic controller, and every identity the design
rests on, each evaluated as a residual.

Every oracle map is formed once, by the builder that owns it: the plant's
window maps and A^ell by ``plant.build_structural_matrices``, the auxiliary
system and its exosignal maps by :func:`build_auxiliary_matrices`, and the
loop of plant and controller by ``plant.plant_loop``.  The checks only apply
those maps to data; none re-derives a power of A or S.  The internal model
is the run config's (``RunConfig.im``).

Identities along a run compare sliding windows of the run
(``experiment.stacked_windows``) in one batch; the auxiliary system and the
closed loop are stepped by ``numerics.simulate_linear``, the closed loop's
run and its zero-exosignal probe in one call.  The steady-state certificate
is solved on the closed-loop matrix's one Schur form
(``numerics.real_schur``), whose eigenvalues the guards read.  Everything
here may read ground truth; nothing here feeds the design path.

Nothing here passes or fails: the check battery in ``cli`` decides each
report row once, from the value returned here.  A value that does not exist
raises ``ValueError`` (no unique steady state) or is NaN (the spectral
radius of a loop map that is not finite, a closed-loop run past the
divergence guard); the battery reports either as NaN, which fails.  Every
norm is ``numerics.norm`` or ``numerics.row_norms`` (``np.linalg.norm``
bit for bit, without its checks), and blocks are joined with
``np.concatenate`` and cut with slices.

Outside input is validated at three boundaries, the run config
(``config.RunConfig``), a record CSV (``experiment.record_from_csv``) and a
gain file (``cli.verify_gain``); no function here re-checks its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exosystem import ExoMatrix, InternalModel
from .experiment import DataMatrices, ExperimentRecord, stacked_windows
from .numerics import (
    RealSchur,
    matrix_powers,
    norm,
    row_norms,
    simulate_linear,
    solve_sylvester,
    spectral_radius,
)
from .plant import PlantTruth, StructuralMatrices, plant_loop

# Closest an eigenvalue of the closed loop may come to one of S's (absolute,
# in the complex plane) for the steady state to count as unique.
SPECTRUM_GAP_TOL = 1e-9

# How the regulation rows read a closed-loop run (the ``regulation_tail`` row
# of ``cli.BATTERY`` is ``EPS_REG``): the final fraction of the run that is
# its tail, and the output norm below which the output counts as regulated.
TAIL_FRAC = 0.1
EPS_REG = 1e-4


@dataclass
class AuxiliaryMatrices:
    """Stacked-window auxiliary system and its cascade with the internal model,
    with the plant, exosystem and internal model it was built from.

    The controller is the (output, input) window plus the internal model,
    ``c(k+1) = ctrl_a c(k) + ctrl_y y(k) + ext_b u(k)`` on ``c = [chi; eta]``
    (``plant.plant_loop``): ``ctrl_a`` advances the window one step beside
    the companion matrix, and the window's rows of ``ctrl_y``/``ext_b``
    write the newest output/input into it.  ``y_from_window``/``y_from_exo``
    reproduce the plant output from the window and from the current
    exosignal state w(k).  ``ext_*`` are the one-step matrices of the
    controller with y so reproduced; ``ext_p`` maps w(k).
    :func:`build_auxiliary_matrices` forms every map; the checks only apply
    them.
    """

    y_from_window: np.ndarray
    y_from_exo: np.ndarray
    ctrl_a: np.ndarray
    ctrl_y: np.ndarray
    ext_a: np.ndarray
    ext_b: np.ndarray
    ext_p: np.ndarray
    struct: StructuralMatrices = field(repr=False)
    plant: PlantTruth = field(repr=False)
    exo: ExoMatrix = field(repr=False)
    im: InternalModel = field(repr=False)

    @property
    def window_dim(self) -> int:
        return self.y_from_window.shape[1]


def build_auxiliary_matrices(
    plant: PlantTruth, struct: StructuralMatrices, exo: ExoMatrix, im: InternalModel
) -> AuxiliaryMatrices:
    """Assemble the auxiliary system at the window length of ``struct``."""
    ell = struct.ell
    m, p, n_w = plant.m, plant.p, plant.n_w
    C, Q = plant.C, plant.Q

    wd, off = (m + p) * ell, p * ell
    # Each window shifts by one step (ones on the diagonal of the block
    # that maps sample i + 1 to slot i), and its last slot takes the newest
    # sample.
    ctrl_a = np.zeros((wd + im.dim, wd + im.dim))
    np.fill_diagonal(ctrl_a[: off - p, p:off], 1.0)
    np.fill_diagonal(ctrl_a[off : wd - m, off + m : wd], 1.0)
    ctrl_a[wd:, wd:] = im.companion
    ctrl_y = np.zeros((wd + im.dim, p))
    np.fill_diagonal(ctrl_y[off - p : off], 1.0)
    ctrl_y[wd:] = im.input_map
    ext_b = np.zeros((wd + im.dim, m))
    np.fill_diagonal(ext_b[wd - m : wd], 1.0)

    # S^-ell, ..., S^-1, I stacked: w(k - ell .. k) from w(k).
    exo_window_map = matrix_powers(np.linalg.inv(exo.S), ell)[::-1].reshape(-1, n_w)

    core = C @ struct.a_ell @ struct.obs_pinv
    y_from_window = np.concatenate(
        (core, C @ struct.reach_u - core @ struct.toeplitz_u), axis=1
    )
    # The output map of the stacked exosignal, composed with exo_window_map
    # once so that it maps the current exosignal state.
    y_from_stack = np.concatenate((C @ struct.reach_w - core @ struct.toeplitz_w, Q), axis=1)
    y_from_exo = y_from_stack @ exo_window_map

    ext_a = ctrl_a.copy()
    ext_a[:, :wd] += ctrl_y @ y_from_window
    return AuxiliaryMatrices(
        y_from_window=y_from_window,
        y_from_exo=y_from_exo,
        ctrl_a=ctrl_a,
        ctrl_y=ctrl_y,
        ext_a=ext_a,
        ext_b=ext_b,
        ext_p=ctrl_y @ y_from_stack @ exo_window_map,
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
    return norm(data.psi1 - predicted) / max(1.0, norm(data.psi1))


def oracle_factorization_residual(data: DataMatrices, regressor_matrix) -> float:
    """Best least-squares factorization of the hidden exosignal stack against
    the rows of the known regressor, as a relative residual.
    """
    M, W0 = regressor_matrix, data.w0_oracle
    L, *_ = np.linalg.lstsq(M.T, W0.T, rcond=None)
    return norm(W0 - L.T @ M) / max(norm(W0), 1e-300)


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
    return tuple(float(row_norms(r).max()) / scale for r in (r1, r2, r3))


def check_solution_correspondence(
    aux: AuxiliaryMatrices, w, x0, y, u
) -> tuple[float, float]:
    """Compare a plant run with the auxiliary system started from the
    prescribed initial stack.

    The run starts from plant state ``x0`` and has outputs ``y`` at steps
    0..K, K >= ell, inputs ``u`` at steps 0..K-1 and exosignal samples ``w``
    at steps 0..K (further rows of either are ignored).  The auxiliary
    window state starts at step ell, built from ``x0`` and the first ell
    inputs and exosignal samples, and is driven by the run's later inputs
    and exosignal samples; S is not stepped.  Returns the worst relative
    mismatch over steps ell..K of (window state against the stacked
    trailing output and input window of the run, output).
    """
    struct, ell = aux.struct, aux.struct.ell
    steps = y.shape[0] - 1
    u, w = u[:steps], w[: steps + 1]

    # The window state from the prescribed initialization, driven by the
    # exosignal through y_from_exo and by the input.
    xi0 = np.concatenate(
        [
            struct.obs @ x0
            + struct.toeplitz_u @ u[:ell].ravel()
            + struct.toeplitz_w @ w[:ell].ravel(),
            u[:ell].ravel(),
        ]
    )
    wd = aux.window_dim
    G = np.concatenate((aux.ctrl_y[:wd] @ aux.y_from_exo, aux.ext_b[:wd]), axis=1)
    drive = np.concatenate((w[ell:steps], u[ell:]), axis=1)
    xi = simulate_linear(aux.ext_a[:wd, :wd], xi0, steps - ell, G, drive)
    phi = xi @ aux.y_from_window.T + w[ell:] @ aux.y_from_exo.T

    # Row k - ell is the trailing (output, input) window of step k = ell..K.
    window = np.concatenate(
        (stacked_windows(y[:steps], ell), stacked_windows(u, ell)), axis=1
    )
    scale = max(1.0, float(np.abs(y).max()), float(np.abs(u).max()))
    worst_state = float(row_norms(xi - window).max())
    worst_out = float(row_norms(phi - y[ell:]).max())
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
    for an ``m x (window_dim + im.dim)`` gain: ``plant.plant_loop`` with the
    auxiliary system's controller."""
    full, _ = plant_loop(aux.plant, aux.exo.S, aux.ctrl_a, aux.ctrl_y, aux.ext_b, gain)
    core = full[aux.exo.n_w :, aux.exo.n_w :].copy()
    return ClosedLoopModel(aux=aux, gain=gain, full_map=full, core_map=core)


def check_internal_stability(cl: ClosedLoopModel) -> float:
    """Spectral radius of the exosignal-free closed loop; stable iff < 1.
    NaN when the loop map is not finite (a gain so large that the map
    overflowed): it has no spectrum to read."""
    core = cl.core_map
    return spectral_radius(core) if np.isfinite(core).all() else float("nan")


@dataclass
class ClosedLoopRun:
    steps: int
    w: np.ndarray
    x: np.ndarray
    chi: np.ndarray
    eta: np.ndarray
    y: np.ndarray
    tail_max_y: float
    settle_step: int | None
    zero_exo_decay: float
    controller: np.ndarray = field(repr=False)  # the (chi, eta) columns of the states
    gain: np.ndarray = field(repr=False)

    @cached_property
    def u(self) -> np.ndarray:
        """The inputs ``K (chi, eta)`` of steps 0 .. steps - 1, read off the
        states on first use: only the trajectory CSV needs them.  What
        overflows is NaN or inf in its rows, as in the states."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.controller[: self.steps] @ self.gain.T


def simulate_closed_loop(
    cl: ClosedLoopModel,
    w0,
    x0,
    chi0,
    eta0,
    steps: int,
) -> ClosedLoopRun:
    """Roll the closed loop and measure regulation.

    One ``numerics.simulate_linear`` call steps ``cl.full_map`` from two
    initial states: the run from (w0, x0, chi0, eta0), under the persistent
    exosignal, and the zero-exosignal probe from w = 0 and the same core
    state (x0, chi0, eta0), or the unit probe ``ones / sqrt(dim)`` when that
    state is zero (a zero state would stay zero under any gain).  While w
    is zero the probe's states are those of ``cl.core_map``.  The loop is
    autonomous, so both advance in blocks of states, each one product of the
    stacked powers of the map with the block's first states; the outputs
    are read off the stored states afterwards, the inputs when first read.

    ``tail_max_y`` is the largest output norm over the final ``TAIL_FRAC``
    of the horizon; ``settle_step`` is the first step from which the output
    norm stays below ``EPS_REG`` to the end (None if it never does);
    ``zero_exo_decay`` is the probe's final core norm over its first.  Each
    of the two is guarded on its own: a run past the divergence guard is
    NaN from there on (so its ``tail_max_y`` is NaN exactly when it
    diverged, and its ``settle_step`` is None), and a probe past it gives a
    NaN decay.
    """
    n_w, n, wd, di = cl.dims
    c = n_w + n  # where the controller state starts
    starts = np.zeros((c + wd + di, 2))
    starts[:, 0] = np.concatenate([w0, x0, chi0, eta0])
    core0 = starts[n_w:, 0]
    starts[n_w:, 1] = core0 if core0.any() else 1.0 / math.sqrt(core0.size)
    both = simulate_linear(cl.full_map, starts, steps)
    z, probe = both[:, :, 0], both[:, n_w:, 1]
    plant = cl.aux.plant
    y = z[:, :c] @ np.concatenate((plant.Q, plant.C), axis=1).T
    y_norms = row_norms(y)
    tail_start = max(0, math.floor((1.0 - TAIL_FRAC) * steps))
    unsettled = np.flatnonzero(~(y_norms < EPS_REG))
    settle = int(unsettled[-1]) + 1 if unsettled.size else 0
    return ClosedLoopRun(
        steps=steps,
        w=z[:, :n_w],
        x=z[:, n_w:c],
        chi=z[:, c : c + wd],
        eta=z[:, c + wd :],
        y=y,
        tail_max_y=float(y_norms[tail_start:].max()),
        settle_step=settle if settle <= steps else None,
        zero_exo_decay=norm(probe[-1]) / max(norm(probe[0]), 1e-300),
        controller=z[:, c:],
        gain=cl.gain,
    )


def check_regulator_equations(
    aux: AuxiliaryMatrices, closed_data_matrix, schur: RealSchur
) -> tuple[float, float]:
    """Steady-state (Sylvester) certificate for zero asymptotic output.

    Solves ``A_cl P - P S = -ext_p`` for the closed-loop matrix ``A_cl``
    (in its data representation), on its real Schur form ``schur``
    (``numerics.real_schur``, whose eigenvalues the guards read), and
    returns the norm of ``y_from_exo + y_from_window P_top`` together with
    the relative Sylvester residual.  Raises ``ValueError`` when ``A_cl`` is
    not Schur or is resonant with S (an eigenvalue within
    :data:`SPECTRUM_GAP_TOL` of one of S's): no unique steady state.
    """
    A_cl, S, eigs = closed_data_matrix, aux.exo.S, schur.eigs
    rho = float(np.abs(eigs).max())
    if rho >= 1.0:
        raise ValueError(f"closed-loop matrix is not Schur (radius {rho:.4f})")
    if np.min(np.abs(eigs[:, None] - aux.exo.eigs)) <= SPECTRUM_GAP_TOL:
        raise ValueError("resonant spectra")
    rhs = -aux.ext_p
    Pi = solve_sylvester(schur, -S, rhs)
    syl = norm(A_cl @ Pi - Pi @ S - rhs)
    denom = (norm(A_cl) + norm(S)) * norm(Pi) + 1e-300
    identity = norm(aux.y_from_exo + aux.y_from_window @ Pi[: aux.window_dim])
    return identity, syl / denom


def check_representation_equivalence(model_side, data_eigs) -> float:
    """Gap between the spectral radii of the model-side closed loop
    ``ext_a + ext_b gain`` and its data-side representation, whose
    eigenvalues are ``data_eigs``."""
    return abs(spectral_radius(model_side) - float(np.abs(data_eigs).max()))
