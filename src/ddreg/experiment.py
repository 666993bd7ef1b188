"""Data-collection experiment on the plant plus internal model, and assembly
of the designer-visible data stacks.

The experiment steps exosystem, plant and internal model as one linear
system on the stacked state ``[w; x; eta]`` (:func:`numerics.simulate_linear`).
The record keeps the measured input/output/internal-model sequences visible
and segregates the exosignal (and state) behind an oracle attribute that the
design path never touches.  The data stacks are sliding windows over the
record (:func:`stacked_windows`).

Outside input is validated where it enters, at one of three boundaries: the
run config (``config.RunConfig``), a record CSV (:func:`record_from_csv`) or
a gain file (``cli.verify_gain``).  The functions here trust the rest.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .internal_model import InternalModel
from .numerics import simulate_linear
from .plant import ExoMatrix, PlantTruth


@dataclass
class NormalInputPolicy:
    """Seeded standard-normal probing input, one draw per channel and step."""

    seed: int
    scale: float = DEFAULTS["input_policy"]["scale"]

    def sample(self, steps: int, m: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return self.scale * rng.standard_normal((steps, m))

    def manifest(self) -> dict:
        return {
            "type": "normal",
            "generator": "numpy-pcg64",
            "seed": int(self.seed),
            "scale": float(self.scale),
        }


@dataclass
class OracleTraces:
    """Hidden experiment signals; only oracle/verifier paths may read these."""

    w: np.ndarray  # (T+1, n_w)
    x: np.ndarray  # (T+1, n)


@dataclass
class ExperimentRecord:
    """Sequences from one data-collection run.

    ``u``/``y`` cover steps 0..T, ``eta`` covers 0..T+1 (the internal model is
    advanced once more by the final measured output).
    """

    T: int
    ell: int
    u: np.ndarray
    y: np.ndarray
    eta: np.ndarray
    oracle: OracleTraces = field(repr=False)
    input_manifest: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    @property
    def im_dim(self) -> int:
        return self.eta.shape[1]

    def internal_model_residual(self, im: InternalModel) -> float:
        """Worst defect of the stored eta sequence against its recursion,
        relative to the record's scale (its largest |y| or |eta| entry, at
        least 1): the defect's round-off grows with the data."""
        e = self.eta[1:] - (self.eta[:-1] @ im.companion.T + self.y @ im.input_map.T)
        scale = max(1.0, float(np.abs(self.y).max()), float(np.abs(self.eta).max()))
        return float(np.linalg.norm(e, axis=1).max()) / scale


def collect_experiment(
    plant: PlantTruth,
    exo: ExoMatrix,
    im: InternalModel,
    w0,
    x0,
    eta0,
    input_policy,
    T: int,
    ell: int,
) -> ExperimentRecord:
    """Run one experiment of length T with window length ell.

    ``input_policy`` is either an explicit array of at least T+1 input
    samples of m entries (flat when m is 1) or a :class:`NormalInputPolicy`.
    The arguments are trusted as ``RunConfig`` validated them: matching
    dimensions, finite entries, ``T >= ell``.
    """
    if isinstance(input_policy, NormalInputPolicy):
        u = input_policy.sample(T + 1, plant.m)
        manifest = input_policy.manifest()
    else:
        u = np.asarray(input_policy, dtype=float).reshape(-1, plant.m)[: T + 1]
        manifest = {"type": "explicit"}

    n_w, n = exo.n_w, plant.n
    nz = n_w + n
    z0 = np.concatenate([w0, x0, eta0])
    # One step of [w; x; eta]; the output y = [Q C] [w; x] feeds eta.
    out = np.hstack([plant.Q, plant.C])
    F = np.zeros((nz + im.dim, nz + im.dim))
    F[:n_w, :n_w] = exo.S
    F[n_w:nz, :n_w] = plant.P
    F[n_w:nz, n_w:nz] = plant.A
    F[nz:, :nz] = im.input_map @ out
    F[nz:, nz:] = im.companion
    G = np.vstack([np.zeros((n_w, plant.m)), plant.B, np.zeros((im.dim, plant.m))])
    z = simulate_linear(F, z0, T + 1, G, u)
    return ExperimentRecord(
        T=T,
        ell=ell,
        u=u,
        y=z[: T + 1, :nz] @ out.T,
        eta=z[:, nz:],
        oracle=OracleTraces(w=z[: T + 1, :n_w], x=z[: T + 1, n_w:nz]),
        input_manifest=manifest,
    )


@dataclass
class DataMatrices:
    """Designer-visible stacks plus the hidden exosignal stack.

    Column j of ``psi0`` holds the output window y(j..j+ell-1), the input
    window u(j..j+ell-1) and the internal-model state eta(j+ell); ``psi1``
    holds the same quantities shifted one step.  ``u1`` holds u(ell..T).
    ``w0_oracle`` stacks w(ell..T) and exists only for verification.
    """

    ell: int
    u1: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    w0_oracle: np.ndarray = field(repr=False)


def stacked_windows(a: np.ndarray, ell: int) -> np.ndarray:
    """Row j holds the samples ``a[j .. j+ell-1]`` stacked in time order,
    i.e. ``a[j : j + ell].ravel()``, for every j with a full window: a
    read-only strided view of ``a``, or of its contiguous copy."""
    a = np.ascontiguousarray(a)
    rows, c = a.shape[0] - ell + 1, a.shape[1]
    windows = np.ndarray((rows, ell * c), a.dtype, a, 0, (a.strides[0], a.itemsize))
    windows.flags.writeable = False
    return windows


def assemble_data_matrices(rec: ExperimentRecord) -> DataMatrices:
    """Stack the record into the design-facing data matrices."""
    T, ell = rec.T, rec.ell
    # Column j of the stack is column j of psi0 and column j-1 of psi1.
    stack = np.hstack(
        [stacked_windows(rec.y, ell), stacked_windows(rec.u, ell), rec.eta[ell:]]
    ).T
    return DataMatrices(
        ell=ell,
        u1=rec.u[ell : T + 1].T.copy(),
        psi0=np.ascontiguousarray(stack[:, :-1]),
        psi1=np.ascontiguousarray(stack[:, 1:]),
        w0_oracle=rec.oracle.w[ell : T + 1].T.copy(),
    )


def record_to_csv(rec: ExperimentRecord, path, unmask: bool = False) -> None:
    """Write the record as CSV: k, u_*, y_*, eta_*; exosignal only if unmasked."""
    header = (
        ["k"]
        + [f"u_{i + 1}" for i in range(rec.m)]
        + [f"y_{i + 1}" for i in range(rec.p)]
        + [f"eta_{i + 1}" for i in range(rec.im_dim)]
    )
    if unmask:
        header += [f"w_{i + 1}" for i in range(rec.oracle.w.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        cols = [rec.u, rec.y, rec.eta[: rec.T + 1]]
        if unmask:
            cols.append(rec.oracle.w)
        for k, values in enumerate(np.hstack(cols)):
            writer.writerow([k] + [repr(float(v)) for v in values])


def record_from_csv(path, ell: int, im: InternalModel, m: int, p: int) -> ExperimentRecord:
    """Rebuild a designer-visible record from CSV.

    The stored eta rows cover 0..T; the final state eta(T+1) is recomputed
    from the recursion, and the whole eta sequence is validated against it.
    A record is outside input: every entry must be finite and it must hold
    T >= ell steps, and the stages trust the record this returns.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("CSV needs a header row and at least one sample")
    header, body = rows[0], rows[1:]
    expected = 1 + m + p + im.dim
    if len(header) < expected:
        raise ValueError(f"CSV needs at least {expected} columns, got {len(header)}")
    data = np.array([[float(v) for v in row[1:expected]] for row in body])
    if not np.isfinite(data).all():
        raise ValueError("CSV record contains non-finite entries")
    T = len(body) - 1
    if T < ell:
        raise ValueError(f"experiment too short: the CSV holds T = {T}, ell = {ell}")
    u = data[:, :m]
    y = data[:, m : m + p]
    eta_stored = data[:, m + p : m + p + im.dim]
    eta = np.vstack(
        [eta_stored, im.companion @ eta_stored[-1] + im.input_map @ y[-1]]
    )
    rec = ExperimentRecord(
        T=T,
        ell=ell,
        u=u,
        y=y,
        eta=eta,
        oracle=OracleTraces(w=np.zeros((T + 1, 0)), x=np.zeros((T + 1, 0))),
        input_manifest={"type": "csv"},
    )
    if rec.internal_model_residual(im) > 1e-10:
        raise ValueError("eta sequence in CSV is inconsistent with the internal model")
    return rec
