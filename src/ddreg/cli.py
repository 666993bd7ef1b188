"""Config-driven pipeline: collect -> factorize -> synthesize -> verify ->
report, plus a canned reproduction of the benchmark scenario.

One JSON config (``config.RunConfig``, validated when it is built) describes
a run; the stages trust it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks
from .config import PipelineError, RunConfig
from .exo_factorization import (
    analyze_exosystem,
    build_M_jordan,
    build_M_krylov,
    regressor_to_csv,
)
from .experiment import (
    ExperimentRecord,
    NormalInputPolicy,
    assemble_data_matrices,
    collect_experiment,
    record_from_csv,
    record_to_csv,
)
from .internal_model import InternalModel, build_internal_model
from .numerics import as_vector, simulate_linear
from .plant import build_structural_matrices
from .synthesis import assemble_sdp, feasibility_precheck, solve_feasibility_sdp
from .verify import (
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
    """
    fact = {"method": "krylov", "w_star": [1.0, 0.0]} if factorization == "krylov" else {}
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
        factorization=fact,
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
    fact, exo = config.factorization, config.exo
    if fact["method"] == "jordan":
        spec = analyze_exosystem(
            exo, declared=config.jordan, tol=config.tolerances["exo_cluster_tol"]
        )
        reg = build_M_jordan(spec, ell=config.ell, T=config.T)
    else:
        reg = build_M_krylov(exo, fact["w_star"], ell=config.ell, T=config.T)
    return reg.reduced(config.tolerances["reduce_tol"])


def _initial(config: RunConfig, **dims) -> list[np.ndarray]:
    """The initial states named in ``dims`` (``w0``, ``x0``, ``eta0``,
    ``chi0`` mapped to their dimensions), zero where the config leaves them
    unset.  The config is not touched, so its hash stays as written."""
    return [
        np.zeros(dim) if getattr(config, name) is None else getattr(config, name)
        for name, dim in dims.items()
    ]


def collect_stage(config: RunConfig) -> tuple[ExperimentRecord, InternalModel]:
    """The experiment's record and the internal model it was collected with
    (the closed-loop checks step the same model)."""
    if config.plant is None:
        raise PipelineError(
            "collect", "no plant in config", "collection needs ground truth"
        )
    plant = config.plant
    im = build_internal_model(
        config.exo, p=plant.p, snap_coeffs_tol=config.tolerances["snap_coeffs_tol"]
    )
    w0, x0, eta0 = _initial(config, w0=config.exo.n_w, x0=plant.n, eta0=im.dim)
    policy = config.input_policy
    if policy["type"] == "normal":
        input_policy = NormalInputPolicy(seed=config.seed, scale=policy["scale"])
    else:
        input_policy = policy["values"]
    rec = _stage(
        "collect",
        collect_experiment,
        plant,
        config.exo,
        im,
        w0,
        x0,
        eta0,
        input_policy,
        config.T,
        config.ell,
    )
    return rec, im


def synthesize_stage(config: RunConfig, rec: ExperimentRecord):
    data = _stage("assemble", assemble_data_matrices, rec)
    reg = _stage(
        "factorize",
        build_regressor,
        config,
        hint="declare the Jordan structure or pick a cyclic vector",
    )
    prob = _stage("assemble-sdp", assemble_sdp, data, reg)
    pre = feasibility_precheck(prob)
    tol = config.tolerances["feas_tol"]
    result = _stage("solve", solve_feasibility_sdp, prob, feas_tol=tol, **config.solver)
    return data, reg, prob, pre, result


def _check(name, value, threshold, op="<", passed=None):
    """One report row; it passes when ``value < threshold`` unless
    ``passed`` says otherwise."""
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "op": op,
        "pass": bool(value < threshold if passed is None else passed),
    }


def _design_checks(config: RunConfig, result) -> list[dict]:
    """Designer rows: the SDP verdict and, for a feasible design, the
    gain's interpolation identity."""
    tol = config.tolerances
    feasible = result.status == "feasible"
    rows = [
        _check("sdp_feasible", result.margin, tol["feas_tol"], op=">", passed=feasible)
    ]
    if feasible:
        rows.append(_check("gain_identity", result.gain_defect, tol["gain_identity"]))
    return rows


def _oracle_checks(config: RunConfig, im, rec, data, reg):
    """Oracle identity rows: the one-step data relation, the window
    reconstruction along the record, the factorization of the hidden
    exosignal stack and the correspondence of the record with the auxiliary
    system.  Also returns the auxiliary system that the closed-loop rows
    build on.
    """
    tol, plant, exo = config.tolerances, config.plant, config.exo
    w, x = rec.oracle.w, rec.oracle.x
    struct = _stage("verify", build_structural_matrices, plant, config.ell)
    aux = build_auxiliary_matrices(plant, struct, exo, im)
    rows = [
        _check("data_identity", check_data_identity(data, aux), tol["data_identity"]),
        _check(
            "claim_windows", max(check_claim1(rec, plant, struct)), tol["claim_residual"]
        ),
        _check(
            "factorization_residual",
            oracle_factorization_residual(data, reg.matrix),
            tol["factorization_residual"],
        ),
        _check(
            "correspondence",
            max(check_solution_correspondence(aux, w, x[0], rec.y, rec.u)),
            tol["correspondence"],
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
    computed (no steady state when the closed loop is not Schur, a diverging
    simulation) is NaN, and NaN fails its row; the returned run is None
    when its simulation diverged.
    """
    tol = config.tolerances
    cl = assemble_closed_loop(aux, gain)
    rho = check_internal_stability(cl)
    rows = [_check("stability_radius", rho, 1.0)]
    model_side = aux.ext_a + aux.ext_b @ gain
    a_cl = model_side if data_side is None else data_side
    eigs = np.linalg.eigvals(a_cl)
    if data_side is not None:
        gap = check_representation_equivalence(model_side, eigs)
        rows.append(_check("representation_gap", gap, tol["representation_gap"]))
    try:
        identity, syl = check_regulator_equations(aux, a_cl, eigs)
    except ValueError:  # closed loop not Schur
        identity = syl = float("nan")

    steps, eps_reg = config.verify["steps"], tol["eps_reg"]
    n_w, n, wd, di = cl.dims
    w0, x0, chi0, eta0 = _initial(config, w0=n_w, x0=n, chi0=wd, eta0=di)
    try:
        run = simulate_closed_loop(
            cl, w0, x0, chi0, eta0, steps,
            eps_reg=eps_reg, tail_frac=config.verify["tail_frac"],
        )
    except RuntimeError:  # divergent closed loop
        run = None
    # With w0 = 0 the exosignal stays 0: the loop is its core map alone.  A
    # zero core state stays zero under any gain: probe from ones / sqrt(dim).
    core0 = np.concatenate([x0, chi0, eta0])
    core0 = core0 if core0.any() else np.ones(core0.size) / np.sqrt(core0.size)
    try:
        core = simulate_linear(cl.core_map, core0, steps)
        decay = np.linalg.norm(core[-1]) / max(np.linalg.norm(core[0]), 1e-300)
    except RuntimeError:
        decay = float("nan")
    tail = float("nan") if run is None else run.tail_max_y
    rows += [
        _check("regulator_identity", identity, tol["regulator_identity"]),
        _check("sylvester_residual", syl, tol["sylvester_residual"]),
        _check("regulation_tail", tail, eps_reg),
        _check("zero_exo_decay", decay, tol["zero_exo_decay"]),
    ]
    regulation = {
        "stability_radius": rho,
        "stability_margin": 1.0 - rho,
        "tail_max_y": tail,
        "settle_step": None if run is None else run.settle_step,
        "zero_exo_decay": decay,
    }
    return rows, regulation, run


def run_pipeline(config: RunConfig, out_dir=None, unmask: bool = False) -> dict:
    """Full pipeline; returns the report dict (and writes it when out_dir set).

    The report carries one row per enabled check, SDP feasibility among
    them; ``all_pass`` is their conjunction.
    """
    rec, im = collect_stage(config)
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
        "input_manifest": rec.input_manifest,
        "precheck": pre,
        "synthesis": result.to_dict(),
    }

    checks, aux = _oracle_checks(config, im, rec, data, reg)
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
    rec, im = collect_stage(config)
    plant = config.plant
    m, wd, di = plant.m, (plant.m + plant.p) * config.ell, im.dim
    if gain.shape != (m, wd + di):
        raise PipelineError(
            "verify",
            f"gain has shape {gain.shape}, expected ({m}, {wd + di})",
            f"the gain is m x (window_dim + im.dim) = {m} x ({wd} + {di})",
        )
    data = assemble_data_matrices(rec)
    reg = _stage("factorize", build_regressor, config)

    checks, aux = _oracle_checks(config, im, rec, data, reg)
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
    """Closed-loop trajectories; oracle columns (w, x) only when unmasked."""
    n_w, n, wd, di, p, m = (
        a.shape[1] for a in (run.w, run.x, run.chi, run.eta, run.y, run.u)
    )
    header = ["k"]
    if unmask:
        header += [f"w_{i + 1}" for i in range(n_w)]
        header += [f"x_{i + 1}" for i in range(n)]
    header += [f"y_{i + 1}" for i in range(p)]
    header += [f"u_{i + 1}" for i in range(m)]
    header += [f"chi_{i + 1}" for i in range(wd)]
    header += [f"eta_{i + 1}" for i in range(di)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(run.steps + 1):
            row = [k]
            if unmask:
                row += [repr(float(v)) for v in run.w[k]]
                row += [repr(float(v)) for v in run.x[k]]
            row += [repr(float(v)) for v in run.y[k]]
            if k < run.steps:
                row += [repr(float(v)) for v in run.u[k]]
            else:
                row += [""] * m
            row += [repr(float(v)) for v in run.chi[k]]
            row += [repr(float(v)) for v in run.eta[k]]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# command-line front end


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--factorization",
        choices=["jordan", "krylov"],
        help="override the factorization method",
    )
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument(
        "--unmask",
        action="store_true",
        help="include hidden exosignal/state columns in CSV outputs",
    )


def _load_config(args) -> RunConfig:
    """The ``--config`` file with the ``--seed`` and ``--factorization``
    overrides; ``args.out`` falls back to the config's ``output_dir``."""
    if args.config is None:
        raise PipelineError("config", "--config is required for this command")
    config = RunConfig.from_json(args.config, args.seed, args.factorization)
    if args.out is None and config.output_dir is not None:
        args.out = Path(config.output_dir)
    return config


def _cmd_collect(args) -> int:
    config = _load_config(args)
    rec, _ = collect_stage(config)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    record_to_csv(rec, out / "record.csv", unmask=args.unmask)
    write_report(config.effective_dict(), out / "effective_config.json")
    print(f"record written to {out / 'record.csv'} ({rec.T + 1} samples)")
    return 0


def _cmd_synthesize(args) -> int:
    config = _load_config(args)
    if args.record is not None:
        plant, dims = config.plant, config.dims
        m, p = (plant.m, plant.p) if plant else (dims["m"], dims["p"])
        im = build_internal_model(
            config.exo, p=p, snap_coeffs_tol=config.tolerances["snap_coeffs_tol"]
        )
        rec = _stage(
            "collect", record_from_csv, args.record, ell=config.ell, im=im, m=m, p=p
        )
    else:
        rec, _ = collect_stage(config)
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
            "(rows of psi0 plus reduced regressor); collect a longer run"
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
        configs = [RunConfig.from_json(p) for p in args.sweep]
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
    config = paper_example_config(seed, args.factorization or "jordan")
    report = run_pipeline(config, out_dir=args.out)
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

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
