"""Run configuration: every knob of a run, its default and its validation.

A run has two settable knobs, ``tolerances.feas_tol`` (default ``FEAS_TOL``,
which library defaults read too) and ``input_policy.values``; every other
key is data.  A ``RunConfig`` is validated once, when it is built, and the
stages trust it; every set key is checked, whether or not the run reads it.
A variant is built anew, not patched: ``dataclasses.replace(config, T=...)``
runs every check again.  The config also builds the run's exosystem and,
with a plant, its internal model, once, and gives the experiment's initial
states and probing input: the explicit samples, or else the standard-normal
draw from ``seed``, the one thing a seed is read for.  The hash of its
effective config, every default materialized, stamps the report.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .exosystem import ExoMatrix, InternalModel, build_internal_model
from .numerics import as_integer, as_real, as_vector
from .plant import PlantTruth

# The default of ``tolerances.feas_tol``, the design solve's feasibility
# tolerance.  The check battery's thresholds and horizon are fixed
# (``cli.BATTERY``), not set here.
FEAS_TOL = 1e-6
INITIAL_STATES = ("w0", "x0", "eta0", "chi0")
_TOP_LEVEL = (
    "exosystem", "ell", "T", "seed", "plant", "initial", "output_dir", "tolerances",
    "input_policy",
)


class PipelineError(RuntimeError):
    """Stage failure with a remediation hint."""

    def __init__(self, stage: str, message: str, hint: str = ""):
        self.stage = stage
        self.hint = hint
        text = f"[{stage}] {message}"
        if hint:
            text += f" (hint: {hint})"
        super().__init__(text)


@contextmanager
def _config_errors():
    """Raise what malformed outside input raises as a ``config`` error."""
    try:
        yield
    except KeyError as exc:
        raise PipelineError("config", f"missing key {exc}") from exc
    except (AttributeError, OSError, TypeError, ValueError) as exc:
        raise PipelineError("config", str(exc)) from exc


def _known(section: str, given, known) -> None:
    _require(
        isinstance(given, dict),
        f"{section} must be a JSON object, got {type(given).__name__}",
    )
    unknown = sorted(set(map(str, given)) - set(known))
    _require(
        not unknown,
        f"unknown {section} option(s) {', '.join(unknown)}",
        f"known options: {', '.join(known)}",
    )


def _require(ok: bool, message: str, hint: str = "") -> None:
    if not ok:
        raise PipelineError("config", message, hint)


def _check_inputs(u: np.ndarray, rows: int, m: int | None) -> None:
    """Explicit input samples ``u``, finite numbers: at least ``rows`` rows
    of ``m`` (a flat list when ``m`` is 1; any width when ``m`` is None, as
    in a plant-free config)."""
    u = u[:, None] if u.ndim == 1 and m in (1, None) else u
    _require(
        u.ndim == 2 and m in (None, u.shape[1]),
        f"input_policy.values must be samples of {'m' if m is None else f'm = {m}'} "
        f"entries, got shape {u.shape}",
    )
    _require(
        u.shape[0] >= rows,
        f"input_policy.values needs {rows} samples (T + 1), got {u.shape[0]}",
    )


@dataclass
class RunConfig:
    """One run's knobs.  ``exo`` is the run's exosystem, validated from
    ``exo_s`` (which then holds ``exo.S``), and ``im`` the internal model of
    a plant config, which every stage reads (None without a plant: a record
    gives m and p, and ``experiment.record_from_csv`` builds it); every
    other field keeps its name in the JSON form."""

    exo_s: np.ndarray = field(repr=False)
    ell: int
    T: int
    seed: int | None = None
    plant: PlantTruth | None = None
    input_policy: dict = field(default_factory=dict)
    w0: np.ndarray | None = None
    x0: np.ndarray | None = None
    eta0: np.ndarray | None = None
    chi0: np.ndarray | None = None
    tolerances: dict = field(default_factory=dict)
    output_dir: str | None = None
    exo: ExoMatrix = field(init=False, repr=False)
    im: InternalModel | None = field(init=False, repr=False)

    def __post_init__(self):
        with _config_errors():
            _known("tolerances", self.tolerances, ("feas_tol",))
            feas_tol = as_real(
                self.tolerances.get("feas_tol", FEAS_TOL), "tolerances.feas_tol"
            )
            _require(
                0 <= feas_tol < float("inf"),
                f"tolerances.feas_tol must be finite and >= 0, got {feas_tol!r}",
            )
            self.tolerances = {"feas_tol": feas_tol}
            _known("input_policy", self.input_policy, ("values",))
            self.exo = ExoMatrix(self.exo_s)
            self.exo_s = self.exo.S
            self.ell, self.T = as_integer(self.ell, "ell"), as_integer(self.T, "T")
            self.seed = None if self.seed is None else as_integer(self.seed, "seed")
        plant, values = self.plant, self.input_policy.get("values")
        _require(self.ell >= 1, f"window length must be >= 1, got {self.ell}")
        _require(
            self.seed is None or self.seed >= 0, f"seed must be >= 0, got {self.seed}"
        )
        _require(self.T >= self.ell, "experiment too short", "require T >= ell")
        _require(
            plant is None or values is not None or self.seed is not None,
            "a plant config without input_policy.values needs a seed for its input draw",
            'set "seed"',
        )
        _require(
            self.output_dir is None or isinstance(self.output_dir, str),
            f"output_dir must be a string, got {self.output_dir!r}",
        )
        if values is not None:
            with _config_errors():
                values = as_vector(values, "input_policy.values").reshape(np.shape(values))
            _check_inputs(values, self.T + 1, plant.m if plant else None)
        self.input_policy = {"values": values}
        self.im = None
        if plant is not None:
            n_w = self.exo.n_w
            _require(
                plant.n_w == n_w,
                f"plant P has {plant.n_w} columns, exosystem S is {n_w} x {n_w}",
            )
            index = plant.obs_index
            _require(
                self.ell >= index,
                f"ell = {self.ell} is below the plant's observability index {index}",
                f"set ell >= {index}",
            )
            self.im = build_internal_model(self.exo, plant.p)
        with _config_errors():
            for name, dim in self._state_lengths().items():
                value = getattr(self, name)
                if value is not None:
                    setattr(self, name, as_vector(value, f"initial.{name}", dim))

    def _state_lengths(self) -> dict:
        """Each initial state's length; None for the plant's and the internal
        model's states in a plant-free config."""
        plant = self.plant
        return {
            "w0": self.exo.n_w,
            "x0": None if plant is None else plant.n,
            "eta0": None if plant is None else self.im.dim,
            "chi0": None if plant is None else (plant.m + plant.p) * self.ell,
        }

    # -- the experiment's inputs -------------------------------------------

    def probing_input(self) -> np.ndarray:
        """The T + 1 input samples that probe the plant, one row of m
        entries per step: the first T + 1 explicit ``values``, or else the
        standard-normal draw from ``seed``.  ``T`` is read at the call, so
        explicit values are checked against it again.  A plant-free config
        probes nothing: it raises ``PipelineError`` at the ``collect``
        stage."""
        if self.plant is None:
            raise PipelineError(
                "collect", "no plant in config", "collection needs ground truth"
            )
        policy, steps, m = self.input_policy, self.T + 1, self.plant.m
        if policy["values"] is not None:
            u = policy["values"].reshape(-1, m)
            _check_inputs(u, steps, m)
            return u[:steps]
        return np.random.default_rng(self.seed).standard_normal((steps, m))

    def input_manifest(self) -> dict:
        """The report's description of :meth:`probing_input`."""
        if self.input_policy["values"] is not None:
            return {"type": "explicit"}
        return {"type": "normal", "generator": "numpy-pcg64", "seed": self.seed}

    def initial(self, *names: str) -> list[np.ndarray]:
        """The named initial states (``w0``, ``x0``, ``eta0``, ``chi0``),
        zero where the config leaves them unset; the config is not touched,
        so its hash stays as written."""
        lengths = self._state_lengths()
        return [
            np.zeros(lengths[name]) if getattr(self, name) is None else getattr(self, name)
            for name in names
        ]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config of a JSON document; malformed input raises
        ``PipelineError`` at the ``config`` stage."""
        with _config_errors():
            _known("config", raw, _TOP_LEVEL)
            exosystem, plant = raw["exosystem"], raw.get("plant")
            initial, tolerances, input_policy = (
                {} if raw.get(name) is None else raw[name]
                for name in ("initial", "tolerances", "input_policy")
            )
            _known("exosystem", exosystem, ("S",))
            _known("initial", initial, INITIAL_STATES)
            if plant is not None:
                _known("plant", plant, "ABPCQ")
                plant = PlantTruth(**{key: plant[key] for key in "ABPCQ"})
            return cls(
                exo_s=exosystem["S"],
                ell=raw["ell"],
                T=raw["T"],
                seed=raw.get("seed"),
                plant=plant,
                **{name: initial.get(name) for name in INITIAL_STATES},
                tolerances=tolerances,
                input_policy=input_policy,
                output_dir=raw.get("output_dir"),
            )

    @classmethod
    def from_json(cls, path, seed=None) -> "RunConfig":
        """The config in ``path``, with a ``seed`` that overrides it written
        in before validation."""
        with _config_errors(), open(path) as fh:
            raw = json.load(fh)
            if seed is not None:
                raw["seed"] = seed
        return cls.from_dict(raw)

    # -- serialization -----------------------------------------------------

    def effective_dict(self) -> dict:
        values = self.input_policy["values"]
        d = {
            "exosystem": {"S": self.exo.S.tolist()},
            "ell": self.ell,
            "T": self.T,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "input_policy": {"values": None if values is None else values.tolist()},
            "initial": {
                k: None if getattr(self, k) is None else getattr(self, k).tolist()
                for k in INITIAL_STATES
            },
            "output_dir": self.output_dir,
        }
        if self.plant is not None:
            d["plant"] = {k: getattr(self.plant, k).tolist() for k in "ABPCQ"}
        return d

    def config_hash(self) -> str:
        canon = json.dumps(self.effective_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

