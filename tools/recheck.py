"""Re-check the design solve on a fixed set of 157 inputs.

The inputs are the paper example at probing seeds 0-29, twice each, with
its exosystem presented in its real Jordan form (``paper-N-jordan``, the
``ddreg paper-example`` config) and in the Krylov basis ``[w0, S w0]`` of
its initial state (``paper-N-krylov``; ``_scenarios.paper_config``, which
moves S, w0, P and Q together, so the two designs agree up to round-off),
the wide-output plant at seeds 0-2 (T = 20, ell = 2, zero initial states),
and the ladder rung (10, 3, 2, 4) at s = 0-2 (``n10-s``;
``_scenarios.ladder_config``).  Then inputs whose verdict a change to the
design program can flip: the random-plant sweep at seeds 0-79
(``sweep-N``, ``_scenarios.sweep_config``; 52 feasible, 13 infeasible by
the solver's certificate and 15 by the rank test), the ramp exosystem
``[[1, 1], [0, 1]]`` on the paper plant (``paper-ramp``, infeasible by the
solver's certificate), and the paper example with its output in other
units, times 1e-3 ... 1e3 (``paper-output-A``), and its input times
0.01 ... 100 (``paper-input-B``; ``_scenarios.paper_in_units``), six of
them infeasible by the solver's certificate.

    python tools/recheck.py [--out FILE]

runs every input and writes one JSON record per line (stdout by default):
verdict, ``all_pass``, the solver's stop reason ("no solve" when none
ran), iterations, margin, gap bound, gain K, and the value, pass flag and
threshold of every check row, all read off the report.  For a feasible
input it also runs ``verify_gain(config, K)`` and records the same of each
of its rows (``verify_rows``; null for an infeasible input).  It exits 1
when an input misses its expected verdict (paper and rung: feasible with
every check passing; wide-output: infeasible; the sweep, ramp and unit
inputs: the verdict alone, since some of their feasible designs fail a
closed-loop row).  ``ddreg`` and ``_scenarios`` are imported from this
checkout's ``src`` and ``tests``, ahead of any installed copy.

    python tools/recheck.py --compare OLD NEW

prints the per-input table of two such files: iterations, margin, the
relative margin and K shifts, and whether the certified brackets
[margin, margin + gap_bound] overlap; then, per check row name (the
``verify_gain`` rows prefixed ``verify_gain.``), the largest relative shift
of its value over the inputs, each file's largest value and the row's
threshold, so that a large relative shift of a round-off-level value reads
as what it is.  A row that some NEW input has and no OLD input has is one
the change adds: it is listed as added, and it must pass on every input.
It exits 1 when a verdict, ``all_pass``, stop reason, set of other rows or
row pass flag differs, when an added row fails, or when two brackets are
disjoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

# This checkout's package and test scenarios, ahead of any installed copy.
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _scenarios import (  # noqa: E402
    ladder_config,
    paper_config,
    paper_in_units,
    sweep_config,
)

from ddreg import benchmarks  # noqa: E402
from ddreg.cli import RunConfig, run_pipeline, verify_gain  # noqa: E402


# The sweep seeds whose verdict is infeasible; every other seed is feasible.
SWEEP_INFEASIBLE = {
    1, 6, 9, 11, 12, 16, 22, 24, 25, 26, 29, 30, 32, 35, 41, 44, 49, 51, 53, 58,
    61, 62, 63, 64, 65, 67, 68, 73,
}


def inputs():
    """(name, config, expected verdict, whether every check must pass) for
    every input, in a fixed order."""
    for seed in range(30):
        for basis in ("jordan", "krylov"):
            yield f"paper-{seed}-{basis}", paper_config(seed, basis), "feasible", True
    plant, exo = benchmarks.wide_output()
    for seed in range(3):
        config = RunConfig(exo_s=exo.S, ell=2, T=20, seed=seed, plant=plant)
        yield f"wide-{seed}", config, "infeasible", False
    for seed in range(3):
        yield f"n10-{seed}", ladder_config(10, 3, 2, 4, seed), "feasible", True
    for seed in range(80):
        verdict = "infeasible" if seed in SWEEP_INFEASIBLE else "feasible"
        yield f"sweep-{seed}", sweep_config(seed), verdict, False
    paper = paper_config(0, "jordan")
    ramp = dataclasses.replace(paper, exo_s=np.array([[1.0, 1.0], [0.0, 1.0]]))
    yield "paper-ramp", ramp, "infeasible", False
    # Today's verdicts in other units: feasible within a factor 10 of the
    # paper's units, infeasible beyond.
    for scale in (1e-3, 1e-2, 1e-1, 1e1, 1e2, 1e3):
        verdict = "feasible" if 0.1 <= scale <= 10 else "infeasible"
        yield f"paper-output-{scale:g}", paper_in_units(output=scale), verdict, False
        if 1e-2 <= scale <= 1e2:
            yield f"paper-input-{scale:g}", paper_in_units(input_=scale), verdict, False


def _rows(report) -> dict:
    return {
        c["name"]: [c["value"], c["pass"], c["threshold"]] for c in report["checks"]
    }


def record(name, config) -> dict:
    """One input's verdict, solver outcome and rows, and the rows of
    ``verify_gain`` on its gain."""
    report = run_pipeline(config)
    syn = report["synthesis"]
    verify_rows = None
    if syn["gain"] is not None:
        verify_rows = _rows(verify_gain(config, syn["gain"]))
    return {
        "input": name,
        "verdict": syn["status"],
        "all_pass": report["all_pass"],
        "stop": syn["stop"] or "no solve",
        "iterations": syn["iterations"],
        "margin": syn["margin"],
        "gap_bound": syn["gap_bound"],
        "K": syn["gain"],
        "rows": _rows(report),
        "verify_rows": verify_rows,
    }


def run(out) -> int:
    unexpected = []
    for name, config, expected, all_rows in inputs():
        rec = record(name, config)
        out.write(json.dumps(rec) + "\n")
        ok = rec["verdict"] == expected and (rec["all_pass"] or not all_rows)
        if not ok:
            unexpected.append(f"{name}: {rec['verdict']}, all_pass={rec['all_pass']}")
    for line in unexpected:
        print(f"unexpected verdict on {line}", file=sys.stderr)
    return 1 if unexpected else 0


def _load(path) -> dict:
    with open(path) as fh:
        return {rec["input"]: rec for rec in map(json.loads, fh)}


def _brackets(a: dict, b: dict) -> str:
    """Whether the brackets [margin, margin + gap_bound] of two records
    meet ("—" when a record has no solve)."""
    if a["gap_bound"] is None or b["gap_bound"] is None:
        return "—"
    lo = max(a["margin"], b["margin"])
    hi = min(a["margin"] + a["gap_bound"], b["margin"] + b["gap_bound"])
    return "overlap" if lo <= hi else "DISJOINT"


def _shift(a: float, b: float) -> float:
    """Relative shift from ``a`` to ``b``: 0 when equal (NaN included), inf
    when only one is NaN or ``a`` is 0."""
    if a == b or (np.isnan(a) and np.isnan(b)):
        return 0.0
    if np.isnan(a) or np.isnan(b) or a == 0.0:
        return float("inf")
    return abs(b - a) / abs(a)


def _all_rows(rec: dict) -> dict:
    """The record's rows, then its ``verify_gain`` rows under a prefix."""
    verify = rec.get("verify_rows") or {}
    return rec["rows"] | {f"verify_gain.{k}": v for k, v in verify.items()}


def _row_shifts(old: dict, new: dict, bad: list) -> dict:
    """Per row name over the inputs both files ran: the largest relative
    value shift, each file's largest value and the row's threshold (None in
    a file written before rows carried one).  A row that no OLD input has
    was added by the change: its shift is None, and it must pass.  An input
    whose other rows differ, that fails an added row or that flips a row's
    pass flag goes into ``bad``."""
    shared = [name for name in new if name in old]
    added = set().union(*(_all_rows(new[name]) for name in shared)) - set().union(
        *map(_all_rows, old.values())
    )
    table = {}
    for name in shared:
        a, b = _all_rows(old[name]), _all_rows(new[name])
        if a.keys() != b.keys() - added:
            bad.append(f"{name} (rows differ)")
            continue
        for row, (vb, pb, *threshold) in b.items():
            limit = threshold[0] if threshold else None
            if row in added:
                top_b = table.get(row, (None, None, -np.inf, None))[2]
                table[row] = (None, None, np.nanmax([top_b, vb]), limit)
                if not pb:
                    bad.append(f"{name} ({row} added, fails)")
                continue
            va, pa = a[row][:2]
            shift, top_a, top_b, _ = table.get(row, (0.0, -np.inf, -np.inf, None))
            table[row] = (
                max(shift, _shift(va, vb)),
                np.nanmax([top_a, va]),
                np.nanmax([top_b, vb]),
                limit,
            )
            if pa != pb:
                bad.append(f"{name} ({row} pass {pa} → {pb})")
    return table


def compare(old_path, new_path) -> int:
    old, new = _load(old_path), _load(new_path)
    print(
        "| input | verdict | all_pass | stop | iterations | margin | margin shift "
        "| K shift | brackets |"
    )
    print("|---|---|---|---|---|---|---|---|---|")
    bad = sorted(set(old) ^ set(new))  # inputs only one side ran
    for name, b in new.items():
        a = old.get(name)
        if a is None:
            continue
        same = all(a[key] == b[key] for key in ("verdict", "all_pass", "stop"))
        brackets = _brackets(a, b)
        if not same or brackets == "DISJOINT":
            bad.append(name)
        if a["K"] is None or b["K"] is None:
            k_shift = "—"
        else:
            Ka, Kb = np.asarray(a["K"]), np.asarray(b["K"])
            k_shift = f"{np.linalg.norm(Kb - Ka) / np.linalg.norm(Ka):.1e}"
        margin_shift = 0.0
        if np.isfinite(a["margin"]) and a["margin"] != b["margin"]:
            margin_shift = abs(b["margin"] - a["margin"]) / abs(a["margin"])
        verdict = b["verdict"] if same else f"{a['verdict']} → {b['verdict']}"
        all_pass = b["all_pass"] if same else f"{a['all_pass']} → {b['all_pass']}"
        stop = b["stop"] if same else f"{a['stop']} → {b['stop']}"
        print(
            f"| {name} | {verdict} | {all_pass} | {stop} "
            f"| {a['iterations']} → {b['iterations']} | {b['margin']:.5e} "
            f"| {margin_shift:.1e} | {k_shift} | {brackets} |"
        )
    print(
        "\n| row | largest relative shift | largest value OLD | largest value NEW "
        "| threshold |\n|---|---|---|---|---|"
    )
    for row, (shift, top_a, top_b, threshold) in _row_shifts(old, new, bad).items():
        limit = "—" if threshold is None else f"{threshold:.1e}"
        if shift is None:
            print(f"| {row} | added | — | {top_b:.2e} | {limit} |")
        else:
            print(f"| {row} | {shift:.1e} | {top_a:.2e} | {top_b:.2e} | {limit} |")
    for name in bad:
        print(f"mismatch: {name}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the records here (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        return run(sys.stdout)
    with open(args.out, "w") as fh:
        return run(fh)


if __name__ == "__main__":
    sys.exit(main())
