"""Config-driven pipeline: collect -> factorize -> synthesize -> verify ->
report, plus a canned reproduction of the benchmark scenario.

One JSON config describes a run; every default is materialized into an
"effective config" whose hash stamps the report, so identical configs
reproduce identical reports bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import benchmarks
from .exo_factorization import (
    JordanSpec,
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
from .internal_model import build_internal_model
from .plant import ExoMatrix, PlantTruth, build_structural_matrices
from .synthesis import (
    SolverOptions,
    assemble_sdp,
    feasibility_precheck,
    solve_feasibility_sdp,
)
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

DEFAULT_TOLERANCES = {
    "rank_rtol": 1e-8,
    "reduce_tol": 1e-8,
    "exo_cluster_tol": 1e-8,
    "snap_coeffs_tol": None,
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
}

DEFAULT_VERIFY = {"steps": 300, "tail_frac": 0.1}
DEFAULT_SOLVER = {"backend": "interior_point", "gap_tol": 1e-8, "max_newton": 2000}


class PipelineError(RuntimeError):
    """Stage failure with a remediation hint."""

    def __init__(self, stage: str, message: str, hint: str = ""):
        self.stage = stage
        self.hint = hint
        text = f"[{stage}] {message}"
        if hint:
            text += f" (hint: {hint})"
        super().__init__(text)


@dataclass
class RunConfig:
    exo_s: np.ndarray
    ell: int
    T: int
    seed: int | None = None
    plant: PlantTruth | None = None
    input_policy: dict = field(default_factory=lambda: {"type": "normal", "scale": 1.0})
    w0: np.ndarray | None = None
    x0: np.ndarray | None = None
    eta0: np.ndarray | None = None
    chi0: np.ndarray | None = None
    factorization: dict = field(default_factory=lambda: {"method": "jordan", "mode": "auto"})
    tolerances: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    dims: dict = field(default_factory=dict)  # m, p for plant-free runs
    output_dir: str | None = None

    def __post_init__(self):
        self.exo_s = np.asarray(self.exo_s, dtype=float)
        if self.T < self.ell:
            raise PipelineError("config", "experiment too short", "require T >= ell")
        method = self.factorization.get("method")
        if method not in ("jordan", "krylov"):
            raise PipelineError(
                "config",
                f"factorization method must be jordan or krylov, got {method!r}",
            )
        if self.input_policy.get("type") == "normal" and self.seed is None:
            raise PipelineError(
                "config", "random input policy needs a seed", "set \"seed\""
            )
        self.tolerances = {**DEFAULT_TOLERANCES, **self.tolerances}
        self.verify = {**DEFAULT_VERIFY, **self.verify}
        self.solver = {**DEFAULT_SOLVER, **self.solver}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        plant = None
        if raw.get("plant"):
            pm = raw["plant"]
            plant = PlantTruth(A=pm["A"], B=pm["B"], P=pm["P"], C=pm["C"], Q=pm["Q"])
        initial = raw.get("initial", {})

        def vec(key):
            v = initial.get(key)
            return None if v is None else np.asarray(v, dtype=float)

        return cls(
            exo_s=np.asarray(raw["exosystem"]["S"], dtype=float),
            ell=int(raw["ell"]),
            T=int(raw["T"]),
            seed=None if raw.get("seed") is None else int(raw["seed"]),
            plant=plant,
            input_policy=dict(raw.get("input_policy", {"type": "normal", "scale": 1.0})),
            w0=vec("w0"),
            x0=vec("x0"),
            eta0=vec("eta0"),
            chi0=vec("chi0"),
            factorization=dict(raw.get("factorization", {"method": "jordan", "mode": "auto"})),
            tolerances=dict(raw.get("tolerances", {})),
            verify=dict(raw.get("verify", {})),
            solver=dict(raw.get("solver", {})),
            dims=dict(raw.get("dims", {})),
            output_dir=raw.get("output_dir"),
        )

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- serialization -----------------------------------------------------

    def effective_dict(self) -> dict:
        d = {
            "exosystem": {"S": self.exo_s.tolist()},
            "ell": self.ell,
            "T": self.T,
            "seed": self.seed,
            "input_policy": self.input_policy,
            "factorization": self.factorization,
            "tolerances": self.tolerances,
            "verify": self.verify,
            "solver": self.solver,
            "initial": {
                "w0": None if self.w0 is None else self.w0.tolist(),
                "x0": None if self.x0 is None else self.x0.tolist(),
                "eta0": None if self.eta0 is None else self.eta0.tolist(),
                "chi0": None if self.chi0 is None else self.chi0.tolist(),
            },
            "dims": self.dims,
            "output_dir": self.output_dir,
        }
        if self.plant is not None:
            d["plant"] = {
                "A": self.plant.A.tolist(),
                "B": self.plant.B.tolist(),
                "P": self.plant.P.tolist(),
                "C": self.plant.C.tolist(),
                "Q": self.plant.Q.tolist(),
            }
        return d

    def config_hash(self) -> str:
        canon = json.dumps(self.effective_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def paper_example_config(seed: int, factorization: str = "jordan") -> RunConfig:
    """The benchmark aircraft scenario: unstable 4-state SISO plant with a
    sinusoidal exosignal, window 4, 21-sample experiment.
    """
    fact = {"method": "jordan", "mode": "auto"}
    if factorization == "krylov":
        fact = {"method": "krylov", "w_star": [1.0, 0.0]}
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
    except (ValueError, RuntimeError) as exc:
        if isinstance(exc, PipelineError):
            raise
        raise PipelineError(stage, str(exc), hint) from exc


def build_regressor(config: RunConfig, exo: ExoMatrix):
    fact = config.factorization
    if fact["method"] == "jordan":
        declared = None
        if fact.get("mode") == "declared":
            declared = JordanSpec(
                real_blocks=[tuple(b) for b in fact.get("real_blocks", [])],
                complex_blocks=[tuple(b) for b in fact.get("complex_blocks", [])],
            )
        spec = analyze_exosystem(
            exo, declared=declared, tol=config.tolerances["exo_cluster_tol"]
        )
        reg = build_M_jordan(spec, ell=config.ell, T=config.T)
    else:
        reg = build_M_krylov(
            exo, np.asarray(fact["w_star"], dtype=float), ell=config.ell, T=config.T
        )
    return reg.reduced(config.tolerances["reduce_tol"])


def collect_stage(config: RunConfig) -> ExperimentRecord:
    if config.plant is None:
        raise PipelineError(
            "collect", "no plant in config", "collection needs ground truth"
        )
    exo = ExoMatrix(config.exo_s)
    plant = config.plant
    im = build_internal_model(
        exo, p=plant.p, snap_coeffs_tol=config.tolerances["snap_coeffs_tol"]
    )
    n_w, n = exo.n_w, plant.n
    w0 = np.zeros(n_w) if config.w0 is None else config.w0
    x0 = np.zeros(n) if config.x0 is None else config.x0
    eta0 = np.zeros(im.dim) if config.eta0 is None else config.eta0
    policy = config.input_policy
    if policy.get("type") == "normal":
        input_policy = NormalInputPolicy(
            seed=config.seed, scale=float(policy.get("scale", 1.0))
        )
    elif policy.get("type") == "explicit":
        input_policy = np.asarray(policy["values"], dtype=float)
    else:
        raise PipelineError("collect", f"unknown input policy {policy.get('type')!r}")
    return _stage(
        "collect",
        collect_experiment,
        plant,
        exo,
        im,
        w0,
        x0,
        eta0,
        input_policy,
        config.T,
        config.ell,
        hint="check dimensions and T >= ell",
    )


def synthesize_stage(config: RunConfig, rec: ExperimentRecord):
    exo = ExoMatrix(config.exo_s)
    data = _stage("assemble", assemble_data_matrices, rec)
    reg = _stage(
        "factorize",
        build_regressor,
        config,
        exo,
        hint="declare the Jordan structure or pick a cyclic vector",
    )
    prob = _stage("assemble-sdp", assemble_sdp, data, reg)
    n_truth = None if config.plant is None else config.plant.n
    pre = feasibility_precheck(
        rec.p, config.ell, prob.mhat, prob.psi0, n_truth=n_truth
    )
    opts = SolverOptions(
        feas_tol=config.tolerances["feas_tol"],
        gap_tol=config.solver["gap_tol"],
        max_newton=int(config.solver["max_newton"]),
        backend=config.solver["backend"],
    )
    result = _stage("solve", solve_feasibility_sdp, prob, opts)
    return data, reg, prob, pre, result


def _check(name, value, threshold, op="<"):
    ok = bool(value < threshold) if op == "<" else bool(value <= threshold)
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "op": op,
        "pass": ok,
    }


def run_pipeline(config: RunConfig, out_dir=None, unmask: bool = False) -> dict:
    """Full pipeline; returns the report dict (and writes it when out_dir set).

    The report carries one row per enabled check; ``all_pass`` is their
    conjunction plus SDP feasibility.
    """
    tol = config.tolerances
    exo = ExoMatrix(config.exo_s)
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
            "n_w": exo.n_w,
            "ell": config.ell,
            "T": config.T,
            "nu": prob.nu,
            "N": prob.n_cols,
            "nhat_w": prob.nhat_w,
        },
        "input_manifest": rec.input_manifest,
        "precheck": {
            "messages": pre.messages,
            "provably_infeasible": pre.provably_infeasible,
        },
        "synthesis": result.to_dict(),
    }

    checks = []
    im = build_internal_model(
        exo, p=plant.p, snap_coeffs_tol=config.tolerances["snap_coeffs_tol"]
    )
    struct = _stage("verify", build_structural_matrices, plant, config.ell)
    aux = build_auxiliary_matrices(plant, struct, exo, im)

    checks.append(
        _check("data_identity", check_data_identity(data, aux), tol["data_identity"])
    )
    claim = check_claim1(rec, plant, struct)
    checks.append(_check("claim_windows", max(claim), tol["claim_residual"]))
    checks.append(
        _check(
            "factorization_residual",
            oracle_factorization_residual(data, reg.matrix),
            tol["factorization_residual"],
        )
    )
    w0 = np.zeros(exo.n_w) if config.w0 is None else config.w0
    x0 = np.zeros(plant.n) if config.x0 is None else config.x0
    corr = check_solution_correspondence(
        plant, aux, exo, rec.u, w0, x0, steps=config.T
    )
    checks.append(_check("correspondence", max(corr), tol["correspondence"]))

    feasible = result.status == "feasible"
    checks.append(
        {
            "name": "sdp_feasible",
            "value": result.margin,
            "threshold": tol["feas_tol"],
            "op": ">",
            "pass": feasible,
        }
    )

    run_csv_rows = None
    if feasible:
        G = np.linalg.solve(result.X, result.Y.T).T
        psi1_g = prob.psi1 @ G
        gain_defect = np.linalg.norm(
            np.vstack(
                [result.K, np.eye(prob.nu), np.zeros((prob.nhat_w, prob.nu))]
            )
            - np.vstack([prob.u1, prob.psi0, prob.mhat]) @ G
        )
        checks.append(_check("gain_identity", gain_defect, tol["gain_identity"]))

        cl = assemble_closed_loop(plant, exo, aux, im, result.K)
        rho = check_internal_stability(cl)
        checks.append(_check("stability_radius", rho, 1.0))
        checks.append(
            _check(
                "representation_gap",
                check_representation_equivalence(aux, result.K, psi1_g),
                tol["representation_gap"],
            )
        )
        identity, syl = check_regulator_equations(aux, exo, psi1_g)
        checks.append(_check("regulator_identity", identity, tol["regulator_identity"]))
        checks.append(_check("sylvester_residual", syl, tol["sylvester_residual"]))

        steps = int(config.verify["steps"])
        chi0 = np.zeros(aux.window_dim) if config.chi0 is None else config.chi0
        eta0 = np.zeros(im.dim) if config.eta0 is None else config.eta0
        run = simulate_closed_loop(
            cl,
            w0,
            x0,
            chi0,
            eta0,
            steps,
            eps_reg=tol["eps_reg"],
            tail_frac=float(config.verify["tail_frac"]),
        )
        checks.append(_check("regulation_tail", run.tail_max_y, tol["eps_reg"]))
        zero = simulate_closed_loop(
            cl, np.zeros(exo.n_w), x0, chi0, eta0, steps, eps_reg=tol["eps_reg"]
        )
        decay = zero.core_norm(steps) / max(zero.core_norm(0), 1e-300)
        checks.append(_check("zero_exo_decay", decay, tol["zero_exo_decay"]))

        report["regulation"] = {
            "stability_radius": rho,
            "stability_margin": 1.0 - rho,
            "tail_max_y": run.tail_max_y,
            "settle_step": run.settle_step,
            "zero_exo_decay": decay,
        }
        run_csv_rows = (cl, run)

    report["checks"] = checks
    report["all_pass"] = bool(all(c["pass"] for c in checks))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out / "report.json")
        record_to_csv(rec, out / "record.csv", unmask=unmask)
        regressor_to_csv(reg, out / "regressor.csv")
        if run_csv_rows is not None:
            cl, run = run_csv_rows
            write_trajectory_csv(run, cl, out / "trajectories.csv", unmask=unmask)
    return report


def reproduce_paper_example(
    seed: int, factorization: str = "jordan", out_dir=None
) -> dict:
    """Run the pipeline on the canned benchmark scenario and return its
    report.  Asserts nothing: callers read ``report["all_pass"]``."""
    config = paper_example_config(seed, factorization)
    report = run_pipeline(config, out_dir=out_dir)
    return report


def verify_gain(config: RunConfig, gain, out_dir=None, unmask: bool = False) -> dict:
    """Verify a precomputed gain against ground truth without re-solving.

    Runs the oracle identity checks on a fresh record plus the closed-loop
    battery for the supplied gain; the steady-state certificate uses the
    model-side closed-loop matrix, which the data-side one equals for any
    gain produced by the design program.
    """
    tol = config.tolerances
    gain = np.asarray(gain, dtype=float)
    exo = ExoMatrix(config.exo_s)
    rec = collect_stage(config)
    plant = config.plant
    data = assemble_data_matrices(rec)
    reg = _stage("factorize", build_regressor, config, exo)

    im = build_internal_model(
        exo, p=plant.p, snap_coeffs_tol=config.tolerances["snap_coeffs_tol"]
    )
    struct = _stage("verify", build_structural_matrices, plant, config.ell)
    aux = build_auxiliary_matrices(plant, struct, exo, im)

    checks = [
        _check("data_identity", check_data_identity(data, aux), tol["data_identity"]),
        _check("claim_windows", max(check_claim1(rec, plant, struct)), tol["claim_residual"]),
        _check(
            "factorization_residual",
            oracle_factorization_residual(data, reg.matrix),
            tol["factorization_residual"],
        ),
    ]
    cl = assemble_closed_loop(plant, exo, aux, im, gain)
    rho = check_internal_stability(cl)
    checks.append(_check("stability_radius", rho, 1.0))
    model_side = aux.ext_a + aux.ext_b @ gain
    identity, syl = check_regulator_equations(aux, exo, model_side)
    checks.append(_check("regulator_identity", identity, tol["regulator_identity"]))
    checks.append(_check("sylvester_residual", syl, tol["sylvester_residual"]))

    steps = int(config.verify["steps"])
    w0 = np.zeros(exo.n_w) if config.w0 is None else config.w0
    x0 = np.zeros(plant.n) if config.x0 is None else config.x0
    chi0 = np.zeros(aux.window_dim) if config.chi0 is None else config.chi0
    eta0 = np.zeros(im.dim) if config.eta0 is None else config.eta0
    run = simulate_closed_loop(
        cl, w0, x0, chi0, eta0, steps,
        eps_reg=tol["eps_reg"], tail_frac=float(config.verify["tail_frac"]),
    )
    checks.append(_check("regulation_tail", run.tail_max_y, tol["eps_reg"]))
    zero = simulate_closed_loop(
        cl, np.zeros(exo.n_w), x0, chi0, eta0, steps, eps_reg=tol["eps_reg"]
    )
    decay = zero.core_norm(steps) / max(zero.core_norm(0), 1e-300)
    checks.append(_check("zero_exo_decay", decay, tol["zero_exo_decay"]))

    report = {
        "config_hash": config.config_hash(),
        "gain": gain.tolist(),
        "regulation": {
            "stability_radius": rho,
            "stability_margin": 1.0 - rho,
            "tail_max_y": run.tail_max_y,
            "settle_step": run.settle_step,
            "zero_exo_decay": decay,
        },
        "checks": checks,
        "all_pass": bool(all(c["pass"] for c in checks)),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out / "report.json")
        write_trajectory_csv(run, cl, out / "trajectories.csv", unmask=unmask)
    return report


# ---------------------------------------------------------------------------
# serialization helpers


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(run, cl, path, unmask: bool = False) -> None:
    """Closed-loop trajectories; oracle columns (w, x) only when unmasked."""
    n_w, n, wd, di = cl.dims
    p, m = run.y.shape[1], run.u.shape[1]
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
    if args.config is None:
        raise PipelineError("config", "--config is required for this command")
    config = RunConfig.from_json(args.config)
    if args.out is None and config.output_dir is not None:
        args.out = Path(config.output_dir)
    if args.seed is not None:
        config.seed = args.seed
    if args.factorization == "jordan":
        config.factorization = {"method": "jordan", "mode": "auto"}
    elif args.factorization == "krylov":
        if "w_star" not in config.factorization:
            raise PipelineError(
                "config", "krylov override needs w_star in the config factorization"
            )
    return config


def _cmd_collect(args) -> int:
    config = _load_config(args)
    rec = collect_stage(config)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    record_to_csv(rec, out / "record.csv", unmask=args.unmask)
    with open(out / "effective_config.json", "w") as fh:
        json.dump(config.effective_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"record written to {out / 'record.csv'} ({rec.T + 1} samples)")
    return 0


def _cmd_synthesize(args) -> int:
    config = _load_config(args)
    if args.record is not None:
        exo = ExoMatrix(config.exo_s)
        if config.plant is not None:
            m, p = config.plant.m, config.plant.p
        else:
            try:
                m, p = int(config.dims["m"]), int(config.dims["p"])
            except KeyError:
                raise PipelineError(
                    "config",
                    "plant-free synthesis needs dims.m and dims.p",
                    "add \"dims\": {\"m\": ..., \"p\": ...}",
                )
        im = build_internal_model(
            exo, p=p, snap_coeffs_tol=config.tolerances["snap_coeffs_tol"]
        )
        rec = record_from_csv(args.record, ell=config.ell, im=im, m=m, p=p)
    else:
        rec = collect_stage(config)
    data, reg, prob, pre, result = synthesize_stage(config, rec)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    regressor_to_csv(reg, out / "regressor.csv")
    payload = result.to_dict()
    payload["config_hash"] = config.config_hash()
    payload["tolerances"] = config.tolerances
    payload["precheck"] = {
        "messages": pre.messages,
        "provably_infeasible": pre.provably_infeasible,
    }
    with open(out / "synthesis.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for msg in pre.messages:
        print(f"precheck: {msg}")
    print(f"synthesis status: {result.status} (margin {result.margin:.3e})")
    return 0 if result.status == "feasible" else 1


def _print_checks(report: dict) -> None:
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        print(
            f"  [{mark}] {c['name']}: {c['value']:.3e} {c['op']} {c['threshold']:.1e}"
        )


def _cmd_run(args) -> int:
    if args.sweep:
        configs = [RunConfig.from_json(p) for p in args.sweep]
        outs = [
            (args.out / f"sweep_{i:03d}") if args.out else None
            for i in range(len(configs))
        ]
        with ThreadPoolExecutor(max_workers=min(4, len(configs))) as pool:
            reports = list(
                pool.map(
                    lambda cfg_out: run_pipeline(
                        cfg_out[0], out_dir=cfg_out[1], unmask=args.unmask
                    ),
                    zip(configs, outs),
                )
            )
        ok = all(r["all_pass"] for r in reports)
        for i, r in enumerate(reports):
            print(f"sweep {i}: all_pass={r['all_pass']}")
        return 0 if ok else 1
    config = _load_config(args)
    report = run_pipeline(config, out_dir=args.out, unmask=args.unmask)
    for msg in report["precheck"]["messages"]:
        print(f"precheck: {msg}")
    print(f"synthesis: {report['synthesis']['status']}")
    _print_checks(report)
    print(f"all_pass: {report['all_pass']}")
    return 0 if report["all_pass"] else 1


def _cmd_verify(args) -> int:
    if args.gain is not None:
        config = _load_config(args)
        with open(args.gain) as fh:
            payload = json.load(fh)
        if payload.get("gain") is None:
            raise PipelineError(
                "verify", f"no gain stored in {args.gain}", "run synthesize first"
            )
        report = verify_gain(
            config, payload["gain"], out_dir=args.out, unmask=args.unmask
        )
        _print_checks(report)
        print(f"all_pass: {report['all_pass']}")
        return 0 if report["all_pass"] else 1
    # Without a stored gain, verification is the full pipeline's tail.
    return _cmd_run(args)


def _cmd_paper_example(args) -> int:
    seed = args.seed if args.seed is not None else 0
    report = reproduce_paper_example(
        seed, factorization=args.factorization or "jordan", out_dir=args.out
    )
    print(f"benchmark example, seed {seed}:")
    _print_checks(report)
    print(f"all_pass: {report['all_pass']}")
    return 0 if report["all_pass"] else 1


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
    p_verify.add_argument("--gain", type=Path, help="synthesis.json with the gain")
    p_verify.add_argument("--sweep", nargs="+", type=Path, help="configs to fan out")
    p_verify.set_defaults(fn=_cmd_verify)

    p_run = sub.add_parser("run", help="collect, synthesize, verify, report")
    _add_common(p_run)
    p_run.add_argument("--sweep", nargs="+", type=Path, help="configs to fan out")
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
