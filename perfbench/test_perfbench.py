"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench -q

Each workload runs one timed operation untraced and one traced pair, twice.
The test checks the output format (metric names and units), that traced
self times add up to the traced operation time, and that Newton-step counts,
verdicts and the failure fraction repeat exactly with BLAS pinned.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["paper", "ladder-n8", "infeasible", "long-record", "reverify"]
E2E_UNITS = {
    "op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s", "fail_frac": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}
SELF_TIMES = [
    "experiment.self_s", "exo_factorization.self_s", "synthesis.self_s", "sdp.self_s",
    "verify.checks_s", "verify.simulate_s", "cli.self_s",
]
SEED = 7


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--ops", "1"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def run_ok(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(
        (HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    return lines, result, detail


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny(workload):
    lines, result, detail = run_ok(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in E2E_UNITS.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert detail["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"

    runs = [run_ok(workload, 1) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for _, result, detail in runs:
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        total = sum(metrics[k]["value"] for k in SELF_TIMES)
        assert total == pytest.approx(metrics["trace.op_s"]["value"], rel=1e-9)

    def repeatable(run):
        _, result, detail = run
        return (
            result["metrics"]["sdp.newton_steps"]["value"],
            [o["verdict"] for o in detail["operations"]],
            detail["metrics"]["fail_frac"]["value"],
        )

    assert repeatable(runs[0]) == repeatable(runs[1])
    if workload != "long-record":  # long-record hits a known defect
        assert all(r["correct"] for _, r, _ in runs)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench("paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
