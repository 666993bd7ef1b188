"""Outside-in tracing: spans around the calls into each ddreg layer.

The tracer replaces the public functions that ``run_pipeline`` and
``verify_gain`` look up in the ``ddreg.cli`` namespace (and
``ddreg.synthesis.maximize_margin``) with timing wrappers while it is
installed, and puts the originals back on removal.  Spans stay in memory and
are written out once, at the end.  Counters are read only from the public
return values of the wrapped calls.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

from ddreg import cli, synthesis

# (module, attribute, layer) for every wrapped call.
WRAPPED = [
    (cli, "collect_experiment", "experiment"),
    (cli, "assemble_data_matrices", "experiment"),
    (cli, "build_regressor", "exo_factorization"),
    (cli, "assemble_sdp", "synthesis"),
    (cli, "feasibility_precheck", "synthesis"),
    (cli, "solve_feasibility_sdp", "synthesis"),
    (synthesis, "maximize_margin", "sdp"),
    (cli, "build_structural_matrices", "verify.checks"),
    (cli, "build_auxiliary_matrices", "verify.checks"),
    (cli, "check_data_identity", "verify.checks"),
    (cli, "check_claim1", "verify.checks"),
    (cli, "oracle_factorization_residual", "verify.checks"),
    (cli, "check_solution_correspondence", "verify.checks"),
    (cli, "assemble_closed_loop", "verify.checks"),
    (cli, "check_internal_stability", "verify.checks"),
    (cli, "check_representation_equivalence", "verify.checks"),
    (cli, "check_regulator_equations", "verify.checks"),
    (cli, "simulate_closed_loop", "verify.simulate"),
]

# Layers in report order; the operation's root span is the ``cli`` layer.
LAYERS = [
    "experiment",
    "exo_factorization",
    "synthesis",
    "sdp",
    "verify.checks",
    "verify.simulate",
    "cli",
]


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start: float
    end: float | None = None


def _count(counters, margins, name, args, result):
    """Counters from public return values (and the ``blocks`` argument)."""
    if name == "collect_experiment":
        counters["experiment.samples"] += result.T + 1
    elif name == "build_regressor":
        counters["exo_factorization.rows"] += len(result.selection)
    elif name == "maximize_margin":
        counters["sdp.calls"] += 1
        counters["sdp.newton_steps"] += result.newton_steps
        counters["sdp.converged"] += bool(result.converged)
        counters["sdp.free_params"] += result.v.size
        counters["sdp.block_degree"] += sum(b.size for b in args[0])
        margins.append(float(result.margin))
    elif name == "simulate_closed_loop":
        counters["verify.sim_steps"] += result.steps


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.margins: list[float] = []  # MarginResult.margin of every solve
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._op = -1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, attr, layer in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer))

    def remove(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    @contextmanager
    def _span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, layer, perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            with self._span(name, layer):
                result = fn(*args, **kwargs)
            _count(self.counters, self.margins, name, args, result)
            return result

        return traced

    # -- operations --------------------------------------------------------

    def operation(self, op: int, name: str, fn, *args):
        """Run one operation under a root span of the ``cli`` layer."""
        self._op = op
        with self._span(name, "cli"):
            return fn(*args)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: span duration minus its children's."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            totals[s.layer] += (s.end - s.start) - child_time[s.span_id]
        return totals

    def op_seconds(self) -> float:
        """Total duration of the operations' root spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
