"""Data-collection experiment on the plant plus internal model, and assembly
of the designer-visible data stacks.

The experiment steps exosystem, plant and internal model as one linear
system on the stacked state ``[w; x; eta]``: ``plant.plant_loop`` with the
internal model as the controller, stepped by ``numerics.simulate_linear``.
The internal model, the probing input and the initial states are the run
config's (``RunConfig.im``, ``probing_input`` and ``initial``).  The record
keeps the measured input/output/internal-model sequences visible and
segregates the exosignal (and state) behind an oracle attribute that the
design path never touches.  The data stacks are sliding windows of the
design's length over the record (:func:`stacked_windows`).  Every CSV the package writes (the
record and the regressor, written here, and the closed-loop trajectories)
goes through :func:`write_csv`, in the one format :func:`record_from_csv`
reads back.

Outside input is validated where it enters, at one of three boundaries: the
run config (``config.RunConfig``), a record CSV (:func:`record_from_csv`) or
a gain file (``cli.verify_gain``).  The functions here trust the rest.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .exosystem import ExoMatrix, InternalModel, Regressor
from .numerics import row_norms, simulate_linear
from .plant import PlantTruth, plant_loop


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

    u: np.ndarray
    y: np.ndarray
    eta: np.ndarray
    oracle: OracleTraces = field(repr=False)

    @property
    def T(self) -> int:
        return len(self.u) - 1

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    def internal_model_residual(self, im: InternalModel) -> float:
        """Worst defect of the stored eta sequence against its recursion,
        relative to the record's scale (its largest |y| or |eta| entry, at
        least 1): the defect's round-off grows with the data."""
        e = self.eta[1:] - (self.eta[:-1] @ im.companion.T + self.y @ im.input_map.T)
        scale = max(1.0, float(np.abs(self.y).max()), float(np.abs(self.eta).max()))
        return float(row_norms(e).max()) / scale


def collect_experiment(
    plant: PlantTruth, exo: ExoMatrix, im: InternalModel, w0, x0, eta0, u: np.ndarray
) -> ExperimentRecord:
    """Run one experiment on the T + 1 input samples ``u``, one row of m
    entries per step (``RunConfig.probing_input``).  The arguments are
    trusted as ``RunConfig`` validated them: matching dimensions, finite
    entries."""
    steps, n_w = len(u), exo.n_w
    nz = n_w + plant.n
    # The internal model is the controller; the probing input enters as v.
    F, G = plant_loop(
        plant, exo.S, im.companion, im.input_map, np.zeros((im.dim, plant.m))
    )
    z = simulate_linear(F, np.concatenate([w0, x0, eta0]), steps, G, u)
    return ExperimentRecord(
        u=u,
        y=z[:steps, :nz] @ np.concatenate((plant.Q, plant.C), axis=1).T,
        eta=z[:, nz:],
        oracle=OracleTraces(w=z[:steps, :n_w], x=z[:steps, n_w:nz]),
    )


@dataclass
class DataMatrices:
    """Designer-visible stacks plus the hidden exosignal stack.

    Column j of ``psi0`` holds the output window y(j..j+ell-1), the input
    window u(j..j+ell-1) and the internal-model state eta(j+ell); ``psi1``
    holds the same quantities shifted one step.  ``u1`` holds u(ell..T).
    ``w0_oracle`` stacks w(ell..T) and exists only for verification.
    """

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


def assemble_data_matrices(rec: ExperimentRecord, ell: int) -> DataMatrices:
    """Stack the record into the design-facing data matrices of window
    length ``ell`` (at most T)."""
    T = rec.T
    # Column j of the stack is column j of psi0 and column j-1 of psi1.
    stack = np.concatenate(
        (stacked_windows(rec.y, ell), stacked_windows(rec.u, ell), rec.eta[ell:]), axis=1
    ).T
    return DataMatrices(
        u1=rec.u[ell : T + 1].T.copy(),
        psi0=np.ascontiguousarray(stack[:, :-1]),
        psi1=np.ascontiguousarray(stack[:, 1:]),
        w0_oracle=rec.oracle.w[ell : T + 1].T.copy(),
    )


def write_csv(path, blocks: dict, header: list[str] | None = None) -> None:
    """Write the package's one CSV format, the one :func:`record_from_csv`
    reads: a header row, then row k of every block side by side after the
    index k, each number as the shortest text that reads back to it.
    Block ``name`` of c columns is headed ``name_1`` ... ``name_c``; a block
    with fewer rows than the table leaves its cells empty where it has no
    sample.  A given ``header`` is written instead, with no index column."""
    index = header is None
    if index:
        header = ["k"] + [
            f"{name}_{i + 1}" for name, b in blocks.items() for i in range(b.shape[1])
        ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(max(len(b) for b in blocks.values())):
            cells = [k] if index else []
            for b in blocks.values():
                if k < len(b):
                    cells += [repr(float(v)) for v in b[k]]
                else:
                    cells += [""] * b.shape[1]
            writer.writerow(cells)


def record_to_csv(rec: ExperimentRecord, path, unmask: bool = False) -> None:
    """Write the record as CSV: k, u_*, y_*, eta_*; exosignal only if unmasked."""
    blocks = {"u": rec.u, "y": rec.y, "eta": rec.eta[: rec.T + 1]}
    if unmask:
        blocks["w"] = rec.oracle.w
    write_csv(path, blocks)


def regressor_to_csv(reg: Regressor, path) -> None:
    """Dump the regressor rows for inspection: one line per row, under a
    ``kept_rows=`` header that names every row, with no index column."""
    header = [f"kept_rows={';'.join(map(str, reg.selection))}"]
    write_csv(path, {"mhat": reg.matrix}, header=header)


def record_from_csv(path, im: InternalModel, m: int, T: int) -> ExperimentRecord:
    """Rebuild a designer-visible record of ``m`` inputs and ``im.p``
    outputs from CSV.

    The stored eta rows cover 0..T; the final state eta(T+1) is recomputed
    from the recursion, and the whole eta sequence is validated against it.
    A record is outside input: every entry must be finite and it must hold
    the config's ``T`` steps (at least ``ell``, and the length the regressor
    is built for), and the stages trust the record this returns.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("CSV needs a header row and at least one sample")
    header, body = rows[0], rows[1:]
    p = im.p
    expected = 1 + m + p + im.dim
    if len(header) < expected:
        raise ValueError(f"CSV needs at least {expected} columns, got {len(header)}")
    data = np.empty((len(body), expected - 1))
    for n, row in enumerate(body, start=2):
        if len(row) < expected:
            raise ValueError(f"CSV line {n} has {len(row)} columns, needs {expected}")
        for j, text in enumerate(row[1:expected]):
            try:
                data[n - 2, j] = float(text)
            except ValueError:
                raise ValueError(
                    f"CSV line {n}, column {header[j + 1]}: {text!r} is not a number"
                ) from None
    if not np.isfinite(data).all():
        raise ValueError("CSV record contains non-finite entries")
    if len(body) - 1 != T:
        raise ValueError(f"the CSV holds T = {len(body) - 1}, the config has T = {T}")
    u = data[:, :m]
    y = data[:, m : m + p]
    eta_stored = data[:, m + p : m + p + im.dim]
    eta = np.concatenate(
        (eta_stored, [im.companion @ eta_stored[-1] + im.input_map @ y[-1]])
    )
    rec = ExperimentRecord(
        u=u,
        y=y,
        eta=eta,
        oracle=OracleTraces(w=np.zeros((T + 1, 0)), x=np.zeros((T + 1, 0))),
    )
    if rec.internal_model_residual(im) > 1e-10:
        raise ValueError("eta sequence in CSV is inconsistent with the internal model")
    return rec
