"""Run configuration: every knob of a run, its default and its validation.

``DEFAULTS`` holds each settable key and its one default (library defaults
read it too).  A ``RunConfig`` is validated once, when it is built, and the
stages trust it; every set key is checked, whether or not the run reads it.
It also builds the run's exosystem and internal model, once.  The hash of
its effective config, every default materialized, stamps the report.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field

import numpy as np

from .exosystem import ExoMatrix, InternalModel, build_internal_model
from .numerics import as_integer, as_real, as_vector
from .plant import PlantTruth

# Section -> key -> default.  A tuple lists the allowed values, the first
# being the default; another value is converted to its default's type (an
# int default takes integral numbers only) and must be finite and >= 0, and
# a None default takes the value as given (None: unset).
DEFAULTS = {
    "tolerances": {
        "feas_tol": 1e-6,
        "data_identity": 1e-8,
        "claim_residual": 1e-8,
        "correspondence": 1e-8,
        "factorization_residual": 1e-8,
        "regulator_identity": 1e-6,
        "sylvester_residual": 1e-8,
        "representation_gap": 1e-8,
        "gain_identity": 1e-6,
        "eps_reg": 1e-4,
        "zero_exo_decay": 1e-6,
    },
    "verify": {"steps": 300, "tail_frac": 0.1},
    "solver": {"gap_tol": 1e-8, "max_newton": 2000},
    "input_policy": {"type": ("normal", "explicit"), "scale": 1.0, "values": None},
    "dims": {"m": None, "p": None},  # plant-free runs: input and output counts
}
INITIAL_STATES = ("w0", "x0", "eta0", "chi0")
_TOP_LEVEL = ("exosystem", "ell", "T", "seed", "plant", "initial", "output_dir", *DEFAULTS)


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
def _config_errors(where: str = ""):
    """Raise what malformed outside input raises as a ``config`` error, its
    message prefixed with ``where``."""
    try:
        yield
    except KeyError as exc:
        raise PipelineError("config", f"{where}missing key {exc}") from exc
    except (AttributeError, OSError, TypeError, ValueError) as exc:
        raise PipelineError("config", f"{where}{exc}") from exc


def _known(section: str, given, known) -> None:
    unknown = sorted(set(map(str, given)) - set(known))
    _require(
        not unknown,
        f"unknown {section} option(s) {', '.join(unknown)}",
        f"known options: {', '.join(known)}",
    )


def _require(ok: bool, message: str, hint: str = "") -> None:
    if not ok:
        raise PipelineError("config", message, hint)


def _section(name: str, given: dict) -> dict:
    """``given`` completed and checked against its ``DEFAULTS`` table."""
    table = DEFAULTS[name]
    _known(name, given, table)
    section = {}
    for key, default in table.items():
        if isinstance(default, tuple):
            value = given.get(key, default[0])
            _require(
                value in default,
                f"{name}.{key} must be {' or '.join(default)}, got {value!r}",
            )
        else:
            value = given.get(key, default)
            if default is not None:
                read = as_integer if isinstance(default, int) else as_real
                value = read(value, f"{name}.{key}")
                _require(
                    0 <= value < float("inf"),
                    f"{name}.{key} must be finite and >= 0, got {value!r}",
                )
        section[key] = value
    return section


def _check_inputs(u: np.ndarray, rows: int, m: int) -> None:
    """Explicit input samples ``u``, finite numbers: at least ``rows`` rows
    of ``m`` (a flat list when ``m`` is 1)."""
    u = u[:, None] if u.ndim == 1 and m == 1 else u
    _require(
        u.ndim == 2 and u.shape[1] == m,
        f"input_policy.values must be samples of m = {m} entries, got shape {u.shape}",
    )
    _require(
        u.shape[0] >= rows,
        f"input_policy.values needs {rows} samples (T + 1), got {u.shape[0]}",
    )


@dataclass
class RunConfig:
    """One run's knobs.  ``exo`` is the run's exosystem, validated from
    ``exo_s``, and ``im`` its internal model, which every stage reads; every
    other field keeps its name in the JSON form."""

    exo_s: InitVar[np.ndarray]
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
    verify: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    dims: dict = field(default_factory=dict)
    output_dir: str | None = None
    exo: ExoMatrix = field(init=False, repr=False)
    im: InternalModel = field(init=False, repr=False)

    def __post_init__(self, exo_s):
        with _config_errors():
            for name in DEFAULTS:
                setattr(self, name, _section(name, getattr(self, name)))
            self.exo = ExoMatrix(exo_s)
            self.ell, self.T = as_integer(self.ell, "ell"), as_integer(self.T, "T")
            self.seed = None if self.seed is None else as_integer(self.seed, "seed")
        policy, dims = self.input_policy, self.dims
        plant = self.plant
        _require(self.ell >= 1, f"window length must be >= 1, got {self.ell}")
        _require(
            self.seed is None or self.seed >= 0, f"seed must be >= 0, got {self.seed}"
        )
        _require(self.T >= self.ell, "experiment too short", "require T >= ell")
        _require(
            policy["type"] != "normal" or self.seed is not None,
            "random input policy needs a seed",
            'set "seed"',
        )
        _require(
            policy["type"] != "explicit" or policy["values"] is not None,
            "explicit input policy needs values",
        )
        _require(
            plant is not None or None not in (dims["m"], dims["p"]),
            "plant-free config needs dims.m and dims.p",
            'add "dims": {"m": ..., "p": ...}',
        )
        with _config_errors():
            for key in ("m", "p"):
                if dims[key] is not None:
                    dims[key] = as_integer(dims[key], f"dims.{key}")
            values = policy["values"]
            if values is not None:
                u = as_vector(values, "input_policy.values")
                values = u.reshape(np.shape(values))
        _require(
            all(v is None or v >= 1 for v in dims.values()),
            f"dims.m and dims.p must be >= 1, got {dims['m']} and {dims['p']}",
        )
        n_w = self.exo.n_w
        lengths = {"w0": n_w, "x0": None, "eta0": None, "chi0": None}
        if plant is not None:
            _require(
                plant.n_w == n_w,
                f"plant P has {plant.n_w} columns, exosystem S is {n_w} x {n_w}",
            )
            for key in ("m", "p"):
                own = getattr(plant, key)
                _require(
                    dims[key] in (None, own),
                    f"dims.{key} = {dims[key]} contradicts the plant's {key} = {own}",
                )
            index = plant.obs_index
            _require(
                self.ell >= index,
                f"ell = {self.ell} is below the plant's observability index {index}",
                f"set ell >= {index}",
            )
            lengths.update(x0=plant.n, chi0=(plant.m + plant.p) * self.ell)
            if policy["type"] == "explicit":
                _check_inputs(values, self.T + 1, plant.m)
        p = plant.p if plant else dims["p"]
        self.im = build_internal_model(self.exo, p)
        lengths["eta0"] = self.im.dim
        with _config_errors():
            for name, dim in lengths.items():
                value = getattr(self, name)
                if value is not None:
                    setattr(self, name, as_vector(value, f"initial.{name}", dim))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config of a JSON document; malformed input raises
        ``PipelineError`` at the ``config`` stage."""
        with _config_errors():
            _known("config", raw, _TOP_LEVEL)
            plant, initial = raw.get("plant"), raw.get("initial") or {}
            _known("initial", initial, INITIAL_STATES)
            return cls(
                exo_s=raw["exosystem"]["S"],
                ell=raw["ell"],
                T=raw["T"],
                seed=raw.get("seed"),
                plant=PlantTruth(**plant) if plant else None,
                **{name: initial.get(name) for name in INITIAL_STATES},
                **{name: raw.get(name) or {} for name in DEFAULTS},
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
        d = {
            "exosystem": {"S": self.exo.S.tolist()},
            "ell": self.ell,
            "T": self.T,
            "seed": self.seed,
            **{name: getattr(self, name) for name in DEFAULTS},
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

