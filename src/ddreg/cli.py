"""Config-driven pipeline: collect -> factorize -> synthesize -> verify ->
report, plus a canned reproduction of the benchmark scenario.

One JSON config (``config.RunConfig``, validated when it is built) describes
a run; the stages trust it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks
from .config import PipelineError, RunConfig
from .exosystem import companion_regressor
from .experiment import (
    ExperimentRecord,
    assemble_data_matrices,
    collect_experiment,
    record_from_csv,
    record_to_csv,
    regressor_to_csv,
    write_csv,
)
from .numerics import as_vector, real_schur
from .plant import build_structural_matrices
from .synthesis import assemble_sdp, feasibility_precheck, solve_feasibility_sdp
from .verify import (
    EPS_REG,
    assemble_closed_loop,
    build_auxiliary_matrices,
    check_claim1,
    check_data_identity,
    check_internal_stability,
    check_regulator_equations,
    check_representation_equivalence,
    check_solution_correspondence,
    oracle_factorization_residual,
    simulate_closed_loop,
)


def paper_example_config(seed: int, factorization: str = "jordan") -> RunConfig:
    """The benchmark aircraft scenario: unstable 4-state SISO plant with a
    sinusoidal exosignal, window 4, 21-sample experiment.

    ``factorization`` changes nothing, since there is one regressor.  It is
    still accepted because the benchmark's workloads pass "jordan" or
    "krylov"; it goes with the next change to the benchmark harness
    (ROADMAP item 5).
    """
    plant, exo = benchmarks.vtol()
    return RunConfig(
        exo_s=exo.S,
        ell=benchmarks.VTOL_ELL,
        T=benchmarks.VTOL_T,
        seed=seed,
        plant=plant,
        w0=benchmarks.VTOL_W0.copy(),
        x0=benchmarks.VTOL_X0.copy(),
        eta0=benchmarks.VTOL_ETA0.copy(),
    )


# ---------------------------------------------------------------------------
# pipeline stages


def _stage(stage, fn, *args, hint="", **kwargs):
    try:
        return fn(*args, **kwargs)
    except (OSError, ValueError, RuntimeError) as exc:
        if isinstance(exc, PipelineError):
            raise
        raise PipelineError(stage, str(exc), hint) from exc


def build_regressor(config: RunConfig):
    return companion_regressor(config.exo, config.ell, config.T)


def collect_stage(config: RunConfig) -> ExperimentRecord:
    """The experiment's record, collected with the config's internal model
    (the closed-loop checks step the same model); a plant-free config has no
    input to probe with, and raises."""
    u = config.probing_input()
    states = config.initial("w0", "x0", "eta0")
    args = (config.plant, config.exo, config.im, *states, u)
    return _stage("collect", collect_experiment, *args)


def synthesize_stage(config: RunConfig, rec: ExperimentRecord):
    data = _stage("assemble", assemble_data_matrices, rec, config.ell)
    reg = _stage("factorize", build_regressor, config)
    prob = _stage("assemble-sdp", assemble_sdp, data, reg)
    pre = feasibility_precheck(prob)
    tol = config.tolerances["feas_tol"]
    result = _stage("solve", solve_feasibility_sdp, prob, feas_tol=tol)
    return data, reg, prob, pre, result


# The check battery's fixed standard: the threshold of every report row
# (``sdp_feasible`` aside, whose threshold is the run's ``feas_tol``), and the
# length of the closed-loop run that the regulation rows judge (its tail is
# ``verify.TAIL_FRAC`` of it).  No config sets any of it, so no config can
# loosen the rows that judge it.
BATTERY = {
    "data_identity": 1e-8,
    "claim_windows": 1e-8,
    "factorization_residual": 1e-8,
    "correspondence": 1e-8,
    # The window counts as a state: round-off passes, an undetermined
    # output does not.
    "window_residual": 1e-8,
    "gain_identity": 1e-6,
    "stability_radius": 1.0,
    "representation_gap": 1e-8,
    "regulator_identity": 1e-6,
    "sylvester_residual": 1e-8,
    "regulation_tail": EPS_REG,
    "zero_exo_decay": 1e-6,
    "steps": 300,
}


def _check(name, value, threshold=None, op="<", passed=None):
    """One report row; its threshold is ``BATTERY[name]`` unless given, and
    it passes when ``value < threshold`` unless ``passed`` says otherwise."""
    threshold = BATTERY[name] if threshold is None else threshold
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "op": op,
        "pass": bool(value < threshold if passed is None else passed),
    }


def _design_checks(config: RunConfig, result) -> list[dict]:
    """Designer rows: the SDP verdict, whether the window is a state (the
    data's window residual; NaN, which fails, when the data cannot tell)
    and, for a feasible design, the gain's interpolation identity."""
    feas_tol = config.tolerances["feas_tol"]
    feasible = result.status == "feasible"
    rows = [
        _check("sdp_feasible", result.margin, feas_tol, op=">", passed=feasible),
        _check("window_residual", result.window_residual),
    ]
    if feasible:
        rows.append(_check("gain_identity", result.gain_defect))
    return rows


def _oracle_checks(config: RunConfig, rec, data, reg):
    """Oracle identity rows: the one-step data relation, the window
    reconstruction along the record, the factorization of the hidden
    exosignal stack and the correspondence of the record with the auxiliary
    system.  Also returns the auxiliary system that the closed-loop rows
    build on.
    """
    plant, w, x = config.plant, rec.oracle.w, rec.oracle.x
    struct = _stage("verify", build_structural_matrices, plant, config.ell)
    aux = build_auxiliary_matrices(plant, struct, config.exo, config.im)
    rows = [
        _check("data_identity", check_data_identity(data, aux)),
        _check("claim_windows", max(check_claim1(rec, plant, struct))),
        _check(
            "factorization_residual", oracle_factorization_residual(data, reg.matrix)
        ),
        _check(
            "correspondence",
            max(check_solution_correspondence(aux, w, x[0], rec.y, rec.u)),
        ),
    ]
    return rows, aux


def _closed_loop_checks(config: RunConfig, aux, gain, data_side=None):
    """Closed-loop rows for ``gain``, the ``regulation`` section, and the
    run under the persistent exosignal.

    The steady-state certificate is evaluated on ``data_side``, the
    data-side closed-loop matrix ``psi1 G`` of a designed gain, whose
    spectral-radius gap to the model side is then a row too; without it, on
    the model side ``ext_a + ext_b gain``.

    A destabilizing gain still gets its report: a value that cannot be
    computed (the spectrum of a loop map that overflowed, no steady state
    when the closed loop is not Schur, a diverging simulation) is NaN, and
    NaN fails its row; the returned run is None when its simulation
    diverged.
    """
    # A finite gain may still be large enough to overflow the loop maps and
    # the inputs read off the run; what overflowed is NaN in its rows.
    with np.errstate(over="ignore", invalid="ignore"):
        cl = assemble_closed_loop(aux, gain)
        model_side = aux.ext_a + aux.ext_b @ gain
        w0, x0, chi0, eta0 = config.initial("w0", "x0", "chi0", "eta0")
        run = simulate_closed_loop(cl, w0, x0, chi0, eta0, BATTERY["steps"])
    rho = check_internal_stability(cl)
    rows = [_check("stability_radius", rho)]
    a_cl = model_side if data_side is None else data_side
    gap = identity = syl = float("nan")
    try:
        schur = real_schur(a_cl)
        if data_side is not None:
            gap = check_representation_equivalence(model_side, schur.eigs)
        identity, syl = check_regulator_equations(aux, a_cl, schur)
    except ValueError:  # a loop map that is not finite; a loop not Schur
        pass
    if data_side is not None:
        rows.append(_check("representation_gap", gap))
    tail, decay = run.tail_max_y, run.zero_exo_decay
    rows += [
        _check("regulator_identity", identity),
        _check("sylvester_residual", syl),
        _check("regulation_tail", tail),
        _check("zero_exo_decay", decay),
    ]
    regulation = {
        "stability_radius": rho,
        "stability_margin": 1.0 - rho,
        "tail_max_y": tail,
        "settle_step": run.settle_step,
        "zero_exo_decay": decay,
    }
    return rows, regulation, None if np.isnan(tail) else run


def run_pipeline(config: RunConfig, out_dir=None, unmask: bool = False) -> dict:
    """Full pipeline; returns the report dict (and writes it when out_dir set).

    The report carries one row per enabled check, SDP feasibility among
    them; ``all_pass`` is their conjunction.
    """
    rec = collect_stage(config)
    plant = config.plant
    data, reg, prob, pre, result = synthesize_stage(config, rec)

    report = {
        "config_hash": config.config_hash(),
        "effective_config": config.effective_dict(),
        "dims": {
            "n": plant.n,
            "m": plant.m,
            "p": plant.p,
            "n_w": config.exo.n_w,
            "ell": config.ell,
            "T": config.T,
            "nu": prob.nu,
            "N": prob.n_cols,
            "nhat_w": prob.nhat_w,
        },
        "input_manifest": config.input_manifest(),
        "precheck": pre,
        "synthesis": result.to_dict(),
    }

    checks, aux = _oracle_checks(config, rec, data, reg)
    checks += _design_checks(config, result)
    run = None
    if result.status == "feasible":
        rows, report["regulation"], run = _closed_loop_checks(
            config, aux, result.K, data_side=prob.psi1 @ result.G
        )
        checks += rows
    report["checks"] = checks
    report["all_pass"] = bool(all(c["pass"] for c in checks))

    if out_dir is not None:
        out = _write_outputs(out_dir, report, run, unmask)
        record_to_csv(rec, out / "record.csv", unmask=unmask)
        regressor_to_csv(reg, out / "regressor.csv")
    return report


def verify_gain(config: RunConfig, gain, out_dir=None, unmask: bool = False) -> dict:
    """Verify a precomputed gain against ground truth without re-solving.

    Runs the oracle identity rows (correspondence included) on a fresh
    record and the closed-loop rows for the supplied gain, the same battery
    as ``run_pipeline`` minus the rows that need the design data
    (``sdp_feasible``, ``gain_identity``, ``representation_gap``).  The
    steady-state certificate uses the model-side closed-loop matrix
    ``ext_a + ext_b gain``, which the data-side one equals for any gain
    produced by the design program.  A gain that is not a finite
    ``m x (window_dim + im.dim)`` matrix raises ``PipelineError`` at the
    ``verify`` stage before any row runs.
    """
    hint = "the gain is a finite m x (window_dim + im.dim) matrix"
    gain = _stage("verify", as_vector, gain, "gain", hint=hint).reshape(np.shape(gain))
    rec = collect_stage(config)
    plant = config.plant
    m, wd, di = plant.m, (plant.m + plant.p) * config.ell, config.im.dim
    if gain.shape != (m, wd + di):
        raise PipelineError(
            "verify",
            f"gain has shape {gain.shape}, expected ({m}, {wd + di})",
            f"the gain is m x (window_dim + im.dim) = {m} x ({wd} + {di})",
        )
    data = assemble_data_matrices(rec, config.ell)
    reg = _stage("factorize", build_regressor, config)

    checks, aux = _oracle_checks(config, rec, data, reg)
    rows, regulation, run = _closed_loop_checks(config, aux, gain)
    checks += rows
    report = {
        "config_hash": config.config_hash(),
        "gain": gain.tolist(),
        "regulation": regulation,
        "checks": checks,
        "all_pass": bool(all(c["pass"] for c in checks)),
    }
    if out_dir is not None:
        _write_outputs(out_dir, report, run, unmask)
    return report


# ---------------------------------------------------------------------------
# serialization helpers


def _write_outputs(out_dir, report: dict, run, unmask: bool) -> Path:
    """Write report.json, and trajectories.csv unless ``run`` is None."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / "report.json")
    if run is not None:
        write_trajectory_csv(run, out / "trajectories.csv", unmask=unmask)
    return out


def write_report(report: dict, path) -> None:
    """Write a JSON output: indented, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(run, path, unmask: bool = False) -> None:
    """Closed-loop trajectories; oracle columns (w, x) only when unmasked.
    The last step has no input, so its ``u_*`` cells are empty."""
    blocks = {"w": run.w, "x": run.x} if unmask else {}
    blocks |= {"y": run.y, "u": run.u, "chi": run.chi, "eta": run.eta}
    write_csv(path, blocks)


# ---------------------------------------------------------------------------
# command-line front end


def _add_common(parser):
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument(
        "--unmask",
        action="store_true",
        help="include hidden exosignal/state columns in CSV outputs",
    )


def _load_config(args) -> RunConfig:
    """The ``--config`` file with the ``--seed`` override; ``args.out``
    falls back to the config's ``output_dir``."""
    if args.config is None:
        raise PipelineError("config", "--config is required for this command")
    config = RunConfig.from_json(args.config, args.seed)
    if args.out is None and config.output_dir is not None:
        args.out = Path(config.output_dir)
    return config


def _cmd_collect(args) -> int:
    config = _load_config(args)
    rec = collect_stage(config)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    record_to_csv(rec, out / "record.csv", unmask=args.unmask)
    write_report(config.effective_dict(), out / "effective_config.json")
    print(f"record written to {out / 'record.csv'} ({rec.T + 1} samples)")
    return 0


def _cmd_synthesize(args) -> int:
    config = _load_config(args)
    if args.record is not None:
        read = (args.record, config.exo, config.T, config.plant, config.im)
        rec = _stage("collect", record_from_csv, *read)
    else:
        rec = collect_stage(config)
    data, reg, prob, pre, result = synthesize_stage(config, rec)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    regressor_to_csv(reg, out / "regressor.csv")
    payload = result.to_dict()
    payload["config_hash"] = config.config_hash()
    payload["tolerances"] = config.tolerances
    payload["precheck"] = pre
    payload["checks"] = _design_checks(config, result)
    write_report(payload, out / "synthesis.json")
    _print_synthesis(pre, payload, prob.nu)
    return _print_checks(payload["checks"])


def _print_synthesis(pre: dict, syn: dict, nu: int) -> None:
    """Print the design's summary from the precheck and synthesis fields."""
    if pre["columns"] < pre["columns_needed"]:
        print(
            f"precheck: {pre['columns']} data columns < {pre['columns_needed']} "
            "(one more than the rows of psi0, u1 and the regressor); "
            "collect a longer run"
        )
    if syn["stop"] is not None:
        how = f"stop {syn['stop']} after {syn['iterations']} iterations"
    elif syn["error"] is not None:
        how = f"interior point failed: {syn['error']}"
    else:
        how = f"rank psi0 null_m = {syn['rank']} < nu = {nu}, no solve"
    print(f"synthesis: {syn['status']} (margin {syn['margin']:.3e}; {how})")


def _print_checks(checks: list[dict]) -> int:
    """Print the check rows and whether all pass; returns the exit code."""
    for c in checks:
        mark = "PASS" if c["pass"] else "FAIL"
        print(
            f"  [{mark}] {c['name']}: {c['value']:.3e} {c['op']} {c['threshold']:.1e}"
        )
    all_pass = all(c["pass"] for c in checks)
    print(f"all_pass: {all_pass}")
    return 0 if all_pass else 1


def _cmd_run(args) -> int:
    if args.sweep:
        if args.config is not None:
            raise PipelineError("config", "--config and --sweep exclude each other")
        configs = [RunConfig.from_json(p, args.seed) for p in args.sweep]
        reports = [
            run_pipeline(c, args.out and args.out / f"sweep_{i:03d}", args.unmask)
            for i, c in enumerate(configs)
        ]
        ok = all(r["all_pass"] for r in reports)
        for i, r in enumerate(reports):
            print(f"sweep {i}: all_pass={r['all_pass']}")
        return 0 if ok else 1
    config = _load_config(args)
    report = run_pipeline(config, out_dir=args.out, unmask=args.unmask)
    _print_synthesis(report["precheck"], report["synthesis"], report["dims"]["nu"])
    return _print_checks(report["checks"])


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cmd_verify(args) -> int:
    config = _load_config(args)
    payload = _stage("verify", _read_json, args.gain)
    if not isinstance(payload, dict) or payload.get("gain") is None:
        raise PipelineError(
            "verify", f"no gain stored in {args.gain}", "run synthesize first"
        )
    report = verify_gain(config, payload["gain"], out_dir=args.out, unmask=args.unmask)
    return _print_checks(report["checks"])


def _cmd_paper_example(args) -> int:
    seed = args.seed if args.seed is not None else 0
    config = paper_example_config(seed)
    report = run_pipeline(config, out_dir=args.out, unmask=args.unmask)
    print(f"benchmark example, seed {seed}:")
    return _print_checks(report["checks"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddreg",
        description=(
            "Design and verify output-regulating controllers for unknown "
            "discrete-time plants from input-output data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="run the data-collection experiment")
    _add_common(p_collect)
    p_collect.set_defaults(fn=_cmd_collect)

    p_syn = sub.add_parser("synthesize", help="design a gain from data")
    _add_common(p_syn)
    p_syn.add_argument("--record", type=Path, help="experiment record CSV to reuse")
    p_syn.set_defaults(fn=_cmd_synthesize)

    p_verify = sub.add_parser("verify", help="oracle checks for a stored gain")
    _add_common(p_verify)
    p_verify.add_argument(
        "--gain", type=Path, required=True, help="synthesis.json with the gain"
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_run = sub.add_parser("run", help="collect, synthesize, verify, report")
    _add_common(p_run)
    p_run.add_argument("--sweep", nargs="+", type=Path, help="configs to run in turn")
    p_run.set_defaults(fn=_cmd_run)

    p_paper = sub.add_parser(
        "paper-example", help="reproduce the canned benchmark scenario"
    )
    _add_common(p_paper)
    p_paper.set_defaults(fn=_cmd_paper_example)

    for p in (p_collect, p_syn, p_verify, p_run):
        p.add_argument("--config", type=Path, help="JSON run configuration")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
