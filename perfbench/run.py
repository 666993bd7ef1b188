"""ddreg benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

An operation is one ``run_pipeline(config)`` call (``ddreg run`` without the
file writes); on ``reverify`` it is one ``verify_gain(config, gain)`` call
(``ddreg verify --gain``).  Operations run one at a time: the next starts when
the previous one has returned.  Every timed operation gets a fresh input from
the workload's stream until ``--seconds`` have passed.  Every operation's
report is checked against the workload's expected verdict, and a
``PipelineError`` counts as a failed operation under its stage.  At the end
the warm-up input and the first timed inputs run again, and their reports
must match the first ones bit for bit.

``setup_s`` is the median over several cold set-ups, each in a fresh process
running this script with ``--setup-only``: interpreter start, imports, the
``reverify`` gains and one warm-up operation.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs every input twice, untraced and traced, and reports the
per-layer metrics (see ``tracing.py``).  The last line of standard output is
one JSON object holding the metrics that ``BENCHMARK.json`` lists for the
mode; the lines before it give every metric by name and unit, and the run
environment.  Details, and the spans of a traced run, go to
``perfbench/out/``.
"""

import os
import sys

# Pin BLAS to one thread in this process before numpy is imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import ddreg  # noqa: E402
from ddreg import cli  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5  # cold set-ups per run, each in a fresh process; the median is reported
RERUNS = 3  # timed inputs run again at the end, besides the warm-up input
PIPELINE_STAGES = ["collect", "assemble", "factorize", "assemble-sdp", "solve", "verify"]
INF = float("inf")


@dataclass
class Outcome:
    op: int
    item: int  # index in the input stream; -1 for the warm-up input
    traced: bool
    seconds: float
    slowdown: float  # machine speed just before, relative to nominal (speed.py)
    cpu_seconds: float  # thread CPU time; the rest of ``seconds`` was spent waiting
    verdict: str  # synthesis status, verified/rejected, or error:<stage>
    passed: bool
    stage: str | None = None  # PipelineError.stage
    failed_checks: list = field(default_factory=list)
    fingerprint: str = ""

    @property
    def scaled(self) -> float:
        """Wall time at nominal machine speed."""
        return self.seconds / self.slowdown


def _verdict(report: dict) -> str:
    if "synthesis" in report:
        return report["synthesis"]["status"]
    return "verified" if report["all_pass"] else "rejected"


def _failed_checks(report: dict, expected: str) -> list:
    """Failed check rows; on ``infeasible`` the verdict row itself is exempt."""
    return [
        c["name"]
        for c in report["checks"]
        if not c["pass"] and not (expected == "infeasible" and c["name"] == "sdp_feasible")
    ]


def attempt(item, expected: str, op: int, index: int, slowdown: float = 1.0,
            tracer=None) -> Outcome:
    """One operation, timed, then checked against ``expected``."""
    if item.gain is None:
        fn, args = cli.run_pipeline, (item.config,)
    else:
        fn, args = cli.verify_gain, (item.config, item.gain)
    start, cpu_start = perf_counter(), thread_time()
    try:
        if tracer is None:
            report = fn(*args)
        else:
            report = tracer.operation(op, fn.__name__, fn, *args)
    except cli.PipelineError as exc:
        seconds, cpu = perf_counter() - start, thread_time() - cpu_start
        return Outcome(op, index, tracer is not None, seconds, slowdown, cpu, f"error:{exc.stage}",
                       False, stage=exc.stage, fingerprint=f"error:{exc}")
    seconds, cpu = perf_counter() - start, thread_time() - cpu_start
    verdict = _verdict(report)
    failed = _failed_checks(report, expected)
    canon = json.dumps(report, sort_keys=True).encode()
    return Outcome(op, index, tracer is not None, seconds, slowdown, cpu, verdict,
                   verdict == expected and not failed, failed_checks=failed,
                   fingerprint=hashlib.sha256(canon).hexdigest())


def environment() -> dict:
    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def _quantile(values, q: float) -> float:
    """Inclusive-method quantile; ``inf`` entries stand for failed operations."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(values) - 1)
    if values[hi] == INF:
        return values[hi] if pos > lo else values[lo]
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(outcomes, setup_s: float) -> dict:
    """End-to-end metrics over untraced timed operations.

    Times are at nominal machine speed (``speed.py``).  A failed operation
    counts as missing every latency limit (``inf``); its time counts toward
    the run but it is not counted as completed.
    """
    times = [o.scaled if o.passed else INF for o in outcomes]
    passed = sum(o.passed for o in outcomes)
    return {
        "op_s.p50": (_quantile(times, 0.5), "s"),
        "op_s.p90": (_quantile(times, 0.9), "s"),
        "ops_per_s": (passed / sum(o.scaled for o in outcomes), "1/s"),
        "fail_frac": ((len(outcomes) - passed) / len(outcomes), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced, feas_tol: float) -> dict:
    """Per-layer metrics: self times and counts are means per traced operation."""
    n = len(traced)
    c = tracer.counters
    self_s = tracer.self_times()
    calls = c["sdp.calls"]
    steps = c["sdp.newton_steps"]
    margins = [m / feas_tol for m in tracer.margins]
    errors = {s: sum(o.stage == s for o in traced) for s in PIPELINE_STAGES}
    metrics = {
        "experiment.self_s": (self_s["experiment"] / n, "s"),
        "experiment.samples": (c["experiment.samples"] / n, "count"),
        "exo_factorization.self_s": (self_s["exo_factorization"] / n, "s"),
        "exo_factorization.rows": (c["exo_factorization.rows"] / n, "count"),
        "synthesis.self_s": (self_s["synthesis"] / n, "s"),
        "synthesis.errors": (sum(errors.values()), "count"),
    }
    metrics.update({f"synthesis.errors.{s}": (k, "count") for s, k in errors.items()})
    metrics.update({
        "sdp.self_s": (self_s["sdp"] / n, "s"),
        "sdp.newton_steps": (steps / n, "count"),
        "sdp.step_ms": (1e3 * self_s["sdp"] / steps if steps else 0.0, "ms"),
        "sdp.free_params": (c["sdp.free_params"] / calls if calls else 0.0, "count"),
        "sdp.block_degree": (c["sdp.block_degree"] / calls if calls else 0.0, "count"),
        "sdp.converged_frac": (c["sdp.converged"] / calls if calls else 0.0, "ratio"),
        "sdp.margin_over_feas_tol": (statistics.median(margins) if margins else 0.0, "ratio"),
        "verify.checks_s": (self_s["verify.checks"] / n, "s"),
        "verify.simulate_s": (self_s["verify.simulate"] / n, "s"),
        "verify.sim_steps": (c["verify.sim_steps"] / n, "count"),
        "verify.checks_failed": (sum(len(o.failed_checks) for o in traced), "count"),
        "cli.self_s": (self_s["cli"] / n, "s"),
        "trace.op_s": (tracer.op_seconds() / n, "s"),
        "trace.overhead_frac": (_overhead(traced, untraced), "ratio"),
    })
    return metrics


def _overhead(traced, untraced) -> float:
    """Median traced over median untraced time, on inputs that passed both."""
    ok = {o.item: o.scaled for o in untraced if o.passed}
    pairs = [(o.scaled, ok[o.item]) for o in traced if o.passed and o.item in ok]
    if not pairs:
        return 0.0
    return statistics.median(t for t, _ in pairs) / statistics.median(u for _, u in pairs) - 1.0


def _number(value):
    """JSON has no infinity: a latency every input failed to meet is null."""
    return value if math.isfinite(value) else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int,
                        help="run exactly this many timed operations (pairs when "
                             "traced) instead of --seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help="do one set-up, print its warm-up outcome and exit")
    return parser.parse_args(argv)


def setup_only(args) -> int:
    """One cold set-up: the ``reverify`` gains and one warm-up operation."""
    workload = workloads.WORKLOADS[args.workload]
    warm = attempt(workloads.Inputs(args.workload, args.seed).warmup, workload.expected, -1, -1)
    print(json.dumps({"passed": warm.passed, "fingerprint": warm.fingerprint}))
    return 0


def cold_setups(args, speedometer) -> list[dict]:
    """Time ``SETUP_REPS`` fresh ``--setup-only`` processes, one after another.

    Each wall time is scaled to nominal machine speed by the mean of the
    set-up slowdowns (``speed.py``) measured just before and just after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = speedometer.setup_slowdown()
    setups = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        seconds = perf_counter() - start
        after = speedometer.setup_slowdown()
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{proc.stderr}")
        slowdown = (before + after) / 2
        setups.append({"seconds": seconds, "slowdown": slowdown, "scaled": seconds / slowdown,
                       **json.loads(proc.stdout.strip().splitlines()[-1])})
        before = after
    return setups


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(ddreg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ddreg must be imported from {SRC}, got {ddreg.__file__}")
    if args.setup_only:
        return setup_only(args)
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    expected = workload.expected
    fingerprints = {}  # input index -> report fingerprint, for the determinism check
    mismatches = 0

    def record(outcome):
        nonlocal mismatches
        seen = fingerprints.setdefault(outcome.item, outcome.fingerprint)
        mismatches += seen != outcome.fingerprint
        return outcome

    # This process's own set-up, then the timed cold set-ups in fresh processes,
    # whose warm-up reports must match this one.
    speedometer = speed.Speedometer()
    inputs = workloads.Inputs(args.workload, args.seed)
    warm = record(attempt(inputs.warmup, expected, -1, -1))
    setups = cold_setups(args, speedometer)
    mismatches += sum(s["fingerprint"] != warm.fingerprint for s in setups)
    setup_s = statistics.median(s["scaled"] for s in setups)

    tracer = tracing.Tracer() if args.trace else None
    per_step = 2 if args.trace else 1
    outcomes = []
    kept = []  # the first timed inputs, run again at the end
    start = perf_counter()

    def more():
        if args.ops is not None:
            return len(outcomes) < args.ops * per_step
        return perf_counter() - start < args.seconds

    while more():
        index = len(outcomes) // per_step
        item = inputs.next()
        if len(kept) < RERUNS:
            kept.append((index, item))
        if not args.trace:
            outcomes.append(record(attempt(item, expected, len(outcomes), index,
                                           speedometer.slowdown())))
            continue
        # Flip which of the pair runs first every second input, so that inputs of
        # either parity (factorization method, reverify gain) see both orders.
        for traced in (False, True) if index // 2 % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                o = attempt(item, expected, len(outcomes), index, speedometer.slowdown(),
                            tracer if traced else None)
            finally:
                tracer.remove()
            outcomes.append(record(o))
    elapsed = perf_counter() - start
    reruns = [record(attempt(item, expected, -1, index))
              for index, item in [(-1, inputs.warmup)] + kept]

    untraced = [o for o in outcomes if not o.traced]
    traced = [o for o in outcomes if o.traced]
    metrics = end_to_end(untraced, setup_s)
    if args.trace:
        feas_tol = inputs.warmup.config.tolerances["feas_tol"]
        metrics.update(per_layer(tracer, traced, untraced, feas_tol))
    failed = sum(not o.passed for o in outcomes)
    correct = (failed == 0 and mismatches == 0 and all(s["passed"] for s in setups)
               and all(o.passed for o in [warm] + reruns))
    beyond = sum(o.scaled > metrics["op_s.p90"][0] or not o.passed for o in untraced)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({
            "workload": args.workload, "why": workload.why, "seed": args.seed,
            "trace": args.trace, "loop": "closed, 1 client", "environment": env,
            "setups": [{k: v for k, v in s.items() if k != "fingerprint"} for s in setups],
            "elapsed_s": elapsed, "nondeterministic_reports": mismatches,
            "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in metrics.items()},
            "operations": [{k: v for k, v in asdict(o).items() if k != "fingerprint"}
                           for o in [warm] + outcomes],
            "reruns": [{k: v for k, v in asdict(o).items() if k != "fingerprint"}
                       for o in reruns],
        }, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} operations in {elapsed:.3f} s, each on a fresh input, "
          f"closed loop, 1 client")
    print(f"environment {json.dumps(env)}")
    print(f"latency samples: {len(untraced)} operations, {beyond} beyond op_s.p90")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if mismatches:
        print(f"nondeterministic reports: {mismatches}")
    section = listed["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": _number(metrics[m["name"]][0]),
                                "unit": metrics[m["name"]][1]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
