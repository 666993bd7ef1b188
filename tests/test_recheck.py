"""``tools/recheck.py --compare`` on small hand-written record files."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "recheck", Path(__file__).resolve().parents[1] / "tools" / "recheck.py"
)
recheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recheck)


def _record(name, rows, verdict="feasible"):
    """One recheck line: ``rows`` maps a row name to (value, pass)."""
    return {
        "input": name,
        "verdict": verdict,
        "all_pass": all(p for _, p in rows.values()),
        "stop": "verdict" if verdict == "feasible" else "no solve",
        "iterations": 5,
        "margin": 0.1 if verdict == "feasible" else float("-inf"),
        "gap_bound": 0.01 if verdict == "feasible" else None,
        "K": [[1.0, 2.0]] if verdict == "feasible" else None,
        "rows": {row: [v, p, 1e-8] for row, (v, p) in rows.items()},
        "verify_rows": None,
    }


def _compare(tmp_path, old, new):
    for side, records in (("old", old), ("new", new)):
        with open(tmp_path / side, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
    return recheck.compare(tmp_path / "old", tmp_path / "new")


PARENT = [_record("x", {"sdp": (0.1, True), "gain": (1e-15, True)})]


def test_compare_lists_an_added_row_that_passes(tmp_path, capsys):
    change = [_record("x", {"sdp": (0.1, True), "win": (1e-15, True), "gain": (1e-15, True)})]
    assert _compare(tmp_path, PARENT, change) == 0
    out = capsys.readouterr().out
    assert "| win | added | — | 1.00e-15 |" in out
    assert "| gain | 0.0e+00 |" in out


def test_compare_fails_an_added_row_that_fails(tmp_path, capsys):
    change = [_record("x", {"sdp": (0.1, True), "win": (1e-3, False), "gain": (1e-15, True)})]
    assert _compare(tmp_path, PARENT, change) == 1
    assert "mismatch: x (win added, fails)" in capsys.readouterr().err


def test_compare_fails_a_removed_row(tmp_path, capsys):
    change = [_record("x", {"sdp": (0.1, True), "win": (1e-15, True), "gain": (1e-15, True)})]
    assert _compare(tmp_path, change, PARENT) == 1
    assert "mismatch: x (rows differ)" in capsys.readouterr().err


@pytest.mark.parametrize("order", [("x", "y"), ("y", "x")])
def test_compare_reports_a_verdict_flip_as_rows_differ(tmp_path, capsys, order):
    # Input x flips from infeasible to feasible: its gain row is missing
    # only from OLD, but input y has it on both sides, so it is no added
    # row; x is a mismatch, y's shift is still measured, win is added.
    old = [
        _record("x", {"sdp": (-1.0, False)}, verdict="infeasible"),
        _record("y", {"sdp": (0.1, True), "gain": (1e-15, True)}),
    ]
    both = {"sdp": (0.1, True), "win": (1e-15, True), "gain": (2e-15, True)}
    new = {"x": _record("x", both), "y": _record("y", both)}
    assert _compare(tmp_path, old, [new[name] for name in order]) == 1
    captured = capsys.readouterr()
    assert "mismatch: x (rows differ)" in captured.err
    assert "| gain | 1.0e+00 |" in captured.out
    assert "| win | added |" in captured.out
