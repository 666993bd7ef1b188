import dataclasses
import inspect
import json
import sys
import warnings

import numpy as np
import pytest

from ddreg import cli, verify
from ddreg.benchmarks import (
    VTOL_ETA0,
    VTOL_W0,
    VTOL_X0,
    vtol,
    wide_output,
)
from ddreg.cli import (
    PipelineError,
    RunConfig,
    main,
    paper_example_config,
    run_pipeline,
    verify_gain,
)
from ddreg.config import FEAS_TOL
from ddreg.exosystem import build_internal_model
from ddreg.synthesis import solve_feasibility_sdp


def vtol_config_dict(seed=0):
    plant, exo = vtol()
    return {
        "plant": {
            "A": plant.A.tolist(),
            "B": plant.B.tolist(),
            "P": plant.P.tolist(),
            "C": plant.C.tolist(),
            "Q": plant.Q.tolist(),
        },
        "exosystem": {"S": exo.S.tolist()},
        "ell": 4,
        "T": 20,
        "seed": seed,
        "initial": {
            "w0": VTOL_W0.tolist(),
            "x0": VTOL_X0.tolist(),
            "eta0": VTOL_ETA0.tolist(),
        },
    }


def wide_output_config_dict(seed=0):
    plant, exo = wide_output()
    rng = np.random.default_rng(99)
    return {
        "plant": {
            "A": plant.A.tolist(),
            "B": plant.B.tolist(),
            "P": plant.P.tolist(),
            "C": plant.C.tolist(),
            "Q": plant.Q.tolist(),
        },
        "exosystem": {"S": exo.S.tolist()},
        "ell": 2,
        "T": 20,
        "seed": seed,
        "initial": {"w0": [0.2, -0.1], "x0": rng.standard_normal(3).tolist()},
    }


def write_config(tmp_path, d, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return path


# ---------------------------------------------------------------------------
# config handling


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, vtol_config_dict())
    config = RunConfig.from_json(path)
    assert config.ell == 4 and config.T == 20 and config.seed == 0
    assert config.plant is not None


def test_config_requires_seed_for_random_policy():
    d = vtol_config_dict()
    d.pop("seed")
    with pytest.raises(PipelineError, match="seed"):
        RunConfig.from_dict(d)


def test_config_rejects_short_experiment():
    d = vtol_config_dict()
    d["T"] = 2
    with pytest.raises(PipelineError, match="experiment too short"):
        RunConfig.from_dict(d)


@pytest.mark.parametrize(
    "section, key",
    [
        ("tolerances", "rank_rtol"),
        ("config", "verify"),
        ("input_policy", "sigma"),
        ("initial", "z0"),
        # The retired regressor choice, and a plant matrix that is no
        # plant's.
        ("exosystem", "factorization"),
        ("plant", "D"),
    ],
)
def test_config_rejects_unknown_solver_option(section, key):
    # Every section holds exactly its known keys, and the config its
    # top-level keys.
    d = vtol_config_dict()
    (d if section == "config" else d.setdefault(section, {}))[key] = 1
    with pytest.raises(PipelineError, match=f"unknown {section} option.*{key}") as exc:
        RunConfig.from_dict(d)
    assert exc.value.stage == "config"


def test_solver_options_defaults_are_the_config_defaults():
    config = RunConfig.from_dict(vtol_config_dict())
    params = inspect.signature(solve_feasibility_sdp).parameters
    assert params["feas_tol"].default == config.tolerances["feas_tol"]


def test_internal_model_is_built_once_per_config(tmp_path, monkeypatch):
    # The config builds the internal model; the stages, the record reader
    # and the closed loop all read config.im.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_internal_model(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("ddreg") and hasattr(module, "build_internal_model"):
            monkeypatch.setattr(module, "build_internal_model", counted)
    config = RunConfig.from_dict(vtol_config_dict())
    assert len(calls) == 1
    report = run_pipeline(config, out_dir=tmp_path / "r")
    verify_gain(config, report["synthesis"]["gain"])
    path = write_config(tmp_path, vtol_config_dict())
    argv = ["synthesize", "--config", str(path), "--out", str(tmp_path / "s")]
    assert main([*argv, "--record", str(tmp_path / "r" / "record.csv")]) == 0
    assert len(calls) == 2  # the second config, read by synthesize


def test_configured_gain_identity_reaches_extract_gain(tmp_path, capsys, monkeypatch):
    # The identity is decided once, by its report row: a violated identity
    # is a written report whose gain_identity row fails, and exit code 1.
    # The threshold is fixed; a tighter one forces the violation.
    monkeypatch.setitem(cli.BATTERY, "gain_identity", 1e-30)
    d = vtol_config_dict()
    report = run_pipeline(RunConfig.from_dict(d), out_dir=tmp_path / "r")
    assert (tmp_path / "r" / "report.json").exists()
    rows = {c["name"]: c for c in report["checks"]}
    assert not rows["gain_identity"]["pass"] and not report["all_pass"]
    assert rows["gain_identity"]["threshold"] == 1e-30
    assert report["synthesis"]["status"] == "feasible"
    path = write_config(tmp_path, d)
    assert main(["run", "--config", str(path)]) == 1
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
    assert "[FAIL] gain_identity" in capsys.readouterr().out
    payload = json.loads((tmp_path / "s" / "synthesis.json").read_text())
    rows = {c["name"]: c["pass"] for c in payload["checks"]}
    assert rows == {"sdp_feasible": True, "window_residual": True, "gain_identity": False}
    assert payload["gain"] is not None


def test_sylvester_row_decided_by_its_configured_tolerance(tmp_path, monkeypatch):
    # A Sylvester solution off by 1e-3 relative: its residual is a failing
    # report row under the battery's threshold.
    solve = verify.solve_sylvester
    monkeypatch.setattr(verify, "solve_sylvester", lambda *a: solve(*a) * (1.0 + 1e-3))
    d = vtol_config_dict()
    report = run_pipeline(RunConfig.from_dict(d))
    row = {c["name"]: c for c in report["checks"]}["sylvester_residual"]
    assert 1e-7 < row["value"] < 1e-6 and not row["pass"]
    assert not report["all_pass"]
    assert main(["run", "--config", str(write_config(tmp_path, d))]) == 1


def test_every_row_carries_its_battery_threshold():
    # One fixed table decides every row but sdp_feasible (the run's
    # feas_tol), in run_pipeline and in verify_gain alike, and sets the
    # closed-loop run that the regulation rows judge.
    config = paper_example_config(0)
    report = run_pipeline(config)
    reports = [report, verify_gain(config, report["synthesis"]["gain"])]
    for rep in reports:
        for row in rep["checks"]:
            name, threshold = row["name"], row["threshold"]
            if name == "sdp_feasible":
                assert threshold == config.tolerances["feas_tol"]
            else:
                assert threshold == cli.BATTERY[name]
    names = {row["name"] for row in report["checks"]}
    assert names - {"sdp_feasible"} == set(cli.BATTERY) - {"steps"}
    assert cli.BATTERY["regulation_tail"] is verify.EPS_REG
    assert cli.BATTERY["steps"] == 300


def test_long_record_returns_a_report():
    # At T = 300 the data stack reaches a norm of about 3.7e8 and the gain's
    # interpolation identity misses its absolute tolerance: a failing row in
    # a written report, not an exception.
    config = dataclasses.replace(paper_example_config(5), T=300)
    report = run_pipeline(config)
    names = [c["name"] for c in report["checks"]]
    assert "gain_identity" in names and "zero_exo_decay" in names


def test_replace_builds_what_from_dict_builds():
    # A variant needs only the field it changes: replace rebuilds the
    # exosystem from the stored S and runs every check again, so it is the
    # config that the JSON form with that field changed gives.
    config = paper_example_config(5)
    variant = dataclasses.replace(config, T=300)
    d = config.effective_dict()
    d["T"] = 300
    built = RunConfig.from_dict(d)
    assert variant.T == 300 and config.T == 20
    assert variant.config_hash() == built.config_hash()
    assert json.dumps(run_pipeline(variant)) == json.dumps(run_pipeline(built))


def test_replace_checks_explicit_inputs_against_the_new_T():
    d = vtol_config_dict(seed=3)
    d["input_policy"] = {"values": [0.0] * 21}
    config = RunConfig.from_dict(d)
    with pytest.raises(PipelineError, match=r"needs 31 samples \(T \+ 1\), got 21") as exc:
        dataclasses.replace(config, T=30)
    assert exc.value.stage == "config"


def test_config_hash_stable_and_sensitive():
    c1 = RunConfig.from_dict(vtol_config_dict(seed=0))
    c2 = RunConfig.from_dict(vtol_config_dict(seed=0))
    c3 = RunConfig.from_dict(vtol_config_dict(seed=1))
    assert c1.config_hash() == c2.config_hash()
    assert c1.config_hash() != c3.config_hash()


# ---------------------------------------------------------------------------
# pipeline


def test_run_pipeline_vtol_passes(tmp_path):
    config = RunConfig.from_dict(vtol_config_dict(seed=0))
    report = run_pipeline(config, out_dir=tmp_path / "out")
    assert report["all_pass"]
    assert report["synthesis"]["status"] == "feasible"
    assert report["dims"] == {
        "n": 4, "m": 1, "p": 1, "n_w": 2, "ell": 4, "T": 20,
        "nu": 10, "N": 17, "nhat_w": 2,
    }
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "record.csv").exists()
    assert (tmp_path / "out" / "trajectories.csv").exists()


def test_report_determinism(tmp_path):
    config_path = write_config(tmp_path, vtol_config_dict(seed=3))
    r1 = run_pipeline(RunConfig.from_json(config_path), out_dir=tmp_path / "a")
    r2 = run_pipeline(RunConfig.from_json(config_path), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    assert r1["config_hash"] == r2["config_hash"]


def test_wide_output_config_infeasible_with_warning():
    config = RunConfig.from_dict(wide_output_config_dict())
    report = run_pipeline(config)
    assert report["synthesis"]["status"] == "infeasible"
    # The rank test on designer data settles it, with no solve; the
    # experiment is long enough, so the precheck has nothing to say.
    assert report["synthesis"]["rank"] < report["dims"]["nu"]
    assert report["synthesis"]["stop"] is None
    assert report["synthesis"]["gap_bound"] is None
    pre = report["precheck"]
    assert pre["columns"] == report["dims"]["N"] >= pre["columns_needed"]
    assert not report["all_pass"]


def test_reproduce_paper_example():
    assert run_pipeline(paper_example_config(2))["all_pass"]


def test_ramp_exosystem_on_the_paper_plant_is_infeasible(tmp_path, capsys):
    # A defective exosystem, the size-two Jordan block at 1, needs no
    # declared structure: the design runs and proves the margin too small.
    d = vtol_config_dict()
    d["exosystem"]["S"] = [[1.0, 1.0], [0.0, 1.0]]
    report = run_pipeline(RunConfig.from_dict(d))
    assert report["synthesis"]["status"] == "infeasible"
    assert 0 < report["synthesis"]["margin"] < FEAS_TOL
    assert main(["run", "--config", str(write_config(tmp_path, d))]) == 1
    assert "synthesis: infeasible" in capsys.readouterr().out


def test_ramp_in_a_badly_scaled_basis_gives_the_ramp_verdict():
    # The same ramp in the coordinates w -> diag(1e5, 1) w, with w0, P and Q
    # moved along: S = [[1, 1e5], [0, 1]] is invertible (det 1), and the
    # design sees the same exosignal, so the verdict and solve are the ramp's.
    d, e = vtol_config_dict(), vtol_config_dict()
    d["exosystem"]["S"] = [[1.0, 1.0], [0.0, 1.0]]
    e["exosystem"]["S"] = [[1.0, 1e5], [0.0, 1.0]]
    scale = np.array([1e5, 1.0])
    e["initial"]["w0"] = (scale * d["initial"]["w0"]).tolist()
    for key in ("P", "Q"):
        e["plant"][key] = (np.array(d["plant"][key]) / scale).tolist()
    ramp, scaled = (run_pipeline(RunConfig.from_dict(c))["synthesis"] for c in (d, e))
    assert scaled["status"] == ramp["status"] == "infeasible"
    assert scaled["stop"] == ramp["stop"]
    assert scaled["iterations"] == ramp["iterations"] == 10


ORACLE_ROWS = [
    "data_identity",
    "claim_windows",
    "factorization_residual",
    "correspondence",
]
CLOSED_LOOP_ROWS = [
    "stability_radius",
    "regulator_identity",
    "sylvester_residual",
    "regulation_tail",
    "zero_exo_decay",
]


def _names(report):
    return [c["name"] for c in report["checks"]]


def test_report_check_names_and_order(monkeypatch):
    # The benchmark's outside-in tracer wraps ddreg.cli.simulate_closed_loop
    # to time the simulation layer, so both entry points must reach it
    # through the ddreg.cli namespace.
    calls = []
    original = cli.simulate_closed_loop

    def counted(*args, **kwargs):
        calls.append(args[5])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_closed_loop", counted)

    designed = run_pipeline(paper_example_config(0))
    assert _names(designed) == ORACLE_ROWS + [
        "sdp_feasible",
        "window_residual",
        "gain_identity",
        "stability_radius",
        "representation_gap",
        *CLOSED_LOOP_ROWS[1:],
    ]
    assert len(calls) == 1

    reverified = verify_gain(paper_example_config(1), designed["synthesis"]["gain"])
    assert _names(reverified) == ORACLE_ROWS + CLOSED_LOOP_ROWS
    assert calls == [300] * 2

    infeasible = run_pipeline(RunConfig.from_dict(wide_output_config_dict()))
    assert _names(infeasible) == ORACLE_ROWS + ["sdp_feasible", "window_residual"]
    assert "regulation" not in infeasible
    assert len(calls) == 2


def test_explicit_inputs_reproduce_seeded_run():
    seeded = run_pipeline(RunConfig.from_dict(vtol_config_dict(seed=3)))
    d = vtol_config_dict(seed=3)
    values = RunConfig.from_dict(d).probing_input().tolist()
    hashes = []
    # The samples as a JSON list and as an array, one per row or flat.
    for given in (values, np.array(values), np.ravel(values)):
        d["input_policy"] = {"values": given}
        explicit = run_pipeline(RunConfig.from_dict(d))
        assert explicit["input_manifest"] == {"type": "explicit"}
        differ = {key for key in seeded if seeded[key] != explicit[key]}
        assert differ == {"input_manifest", "effective_config", "config_hash"}
        assert explicit["synthesis"]["gain"] == seeded["synthesis"]["gain"]
        hashes.append(explicit["config_hash"])
    # An array hashes as the JSON list of its floats, in its given shape.
    assert hashes[0] == hashes[1] != hashes[2]


def test_explicit_inputs_are_checked_against_a_later_T():
    # A config's T may be assigned after it is built (the benchmark's
    # long-record workload does); the samples are checked when drawn.
    d = vtol_config_dict(seed=3)
    d["input_policy"] = {"values": [0.0] * 21}
    config = RunConfig.from_dict(d)
    config.T = 30
    with pytest.raises(PipelineError, match=r"needs 31 samples \(T \+ 1\), got 21"):
        run_pipeline(config)


def test_paper_example_config_matches_benchmark():
    config = paper_example_config(0)
    assert config.ell == 4 and config.T == 20
    assert config.plant.n == 4


# ---------------------------------------------------------------------------
# command-line front end


def test_cli_run_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "all_pass: True" in out


def test_cli_run_at_t_equal_ell(tmp_path, capsys):
    # T = ell leaves one data column, fewer than the minimal polynomial's
    # degree: the design is infeasible and still reported.
    d = vtol_config_dict()
    d["T"] = 4
    assert main(["run", "--config", str(write_config(tmp_path, d))]) == 1
    assert "synthesis: infeasible" in capsys.readouterr().out


def test_cli_run_infeasible_exit_nonzero(tmp_path, capsys):
    path = write_config(tmp_path, wide_output_config_dict())
    code = main(["run", "--config", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "synthesis: infeasible (margin -inf; rank psi0 null_m = 9 < nu = 10" in out


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda d: d.update(T=1), "experiment too short", id="short"),
        pytest.param(
            lambda d: d["exosystem"].update(S=[[0.5, 0.0], [0.0, 0.5]]),
            "exosystem eigenvalue inside unit circle",
            id="stable-exosystem",
        ),
        pytest.param(lambda d: d.pop("ell"), "missing key 'ell'", id="no-ell"),
        pytest.param(
            lambda d: d["plant"].update(C=[[0.0] * 4]),
            "unobservable pair",
            id="unobservable-plant",
        ),
        # The retired regressor choice: one regressor, no clustering.
        pytest.param(
            lambda d: d.update(factorization={"method": "jordan"}),
            "unknown config option(s) factorization",
            id="factorization-section",
        ),
        pytest.param(
            lambda d: d.update(tolerances={"exo_cluster_tol": 1e-8}),
            "unknown tolerances option(s) exo_cluster_tol",
            id="exo-cluster-tol",
        ),
        pytest.param(
            lambda d: d.update(tolerance={"eps_reg": 1e-3}),
            "unknown config option(s) tolerance",
            id="unknown-top-level-key",
        ),
        pytest.param(
            lambda d: d["initial"].update(chi0=[0.0] * 3),
            "initial.chi0 must have length 8, got 3",
            id="chi0-length",
        ),
        pytest.param(
            lambda d: d["initial"].update(x0=[0.0] * 3),
            "initial.x0 must have length 4, got 3",
            id="x0-length",
        ),
        pytest.param(
            lambda d: d["initial"].update(eta0=[0.0] * 3),
            "initial.eta0 must have length 2, got 3",
            id="eta0-length",
        ),
        pytest.param(
            lambda d: d["initial"].update(w0=[float("nan"), 0.0]),
            "initial.w0 contains non-finite entries",
            id="w0-nan",
        ),
        pytest.param(
            lambda d: d["plant"].update(P=[[0.0] * 3] * 4, Q=[[1.0, 0.0, 0.0]]),
            "plant P has 3 columns, exosystem S is 2 x 2",
            id="plant-exosignal-dimension",
        ),
        pytest.param(
            lambda d: d.update(input_policy={"values": [0.0] * 20}),
            "input_policy.values needs 21 samples (T + 1), got 20",
            id="explicit-values-short",
        ),
        pytest.param(
            lambda d: d.update(input_policy={"values": [[0.0, 0.0]] * 21}),
            "input_policy.values must be samples of m = 1 entries, got shape (21, 2)",
            id="explicit-values-columns",
        ),
        # A plant-free config knows no m: its samples are counted only.
        pytest.param(
            lambda d: (
                d.pop("plant"),
                d.update(input_policy={"values": [[1.0, 2.0, 3.0]]}),
            ),
            "input_policy.values needs 21 samples (T + 1), got 1",
            id="plant-free-explicit-values-columns",
        ),
        # The record gives m and p, and the samples the policy: a config
        # that states them, with a plant or without, is an unknown-key error.
        pytest.param(
            lambda d: (d.pop("plant"), d.update(dims={"m": 1, "p": 1})),
            "unknown config option(s) dims",
            id="plant-free-dims",
        ),
        pytest.param(
            lambda d: d.update(dims={"m": 1, "p": 1}),
            "unknown config option(s) dims",
            id="dims-beside-plant",
        ),
        pytest.param(
            lambda d: d.update(input_policy={"type": "normal"}),
            "unknown input_policy option(s) type",
            id="unknown-mode",
        ),
        # The samples say the input's amplitude: no knob scales the draw.
        pytest.param(
            lambda d: d.update(input_policy={"scale": 1.0}),
            "unknown input_policy option(s) scale",
            id="input-scale",
        ),
        # A plant section is the whole plant: an empty one is not "no
        # plant".
        pytest.param(lambda d: d["plant"].pop("Q"), "missing key 'Q'", id="plant-without-Q"),
        pytest.param(lambda d: d.update(plant={}), "missing key 'A'", id="empty-plant"),
        pytest.param(
            lambda d: d.update(output_dir=5),
            "output_dir must be a string, got 5",
            id="output-dir-number",
        ),
        pytest.param(
            lambda d: d.update(output_dir=True),
            "output_dir must be a string, got True",
            id="output-dir-boolean",
        ),
        # The battery's thresholds and horizon are fixed: a config that
        # would loosen or shorten them is an unknown-key error.
        pytest.param(
            lambda d: d.update(verify={"steps": 300}),
            "unknown config option(s) verify",
            id="verify-section",
        ),
        pytest.param(
            lambda d: d.update(tolerances={"zero_exo_decay": 1, "eps_reg": 1}),
            "unknown tolerances option(s) eps_reg, zero_exo_decay",
            id="loosened-battery",
        ),
        pytest.param(
            lambda d: d.update(verify={"tail_frac": 5}),
            "unknown config option(s) verify",
            id="verify-tail-frac",
        ),
        pytest.param(
            lambda d: d.update(tolerances={"feas_tol": float("nan")}),
            "tolerances.feas_tol must be finite and >= 0, got nan",
            id="nan-tolerance",
        ),
        pytest.param(
            lambda d: d.update(seed=-1), "seed must be >= 0, got -1", id="negative-seed"
        ),
        pytest.param(
            lambda d: d.update(T=20.7),
            "T must be an integer, got 20.7",
            id="non-integral-T",
        ),
        # Strings and booleans are not numbers, though Python and numpy
        # would read them as such.
        pytest.param(lambda d: d.update(ell="4"), "ell: '4' is not a number", id="string-ell"),
        pytest.param(lambda d: d.update(T="20"), "T: '20' is not a number", id="string-T"),
        pytest.param(
            lambda d: d.update(seed=True), "seed: True is not a number", id="boolean-seed"
        ),
        pytest.param(
            lambda d: d.update(tolerances={"feas_tol": "1e-6"}),
            "tolerances.feas_tol: '1e-6' is not a number",
            id="string-tolerance",
        ),
        pytest.param(
            lambda d: d.update(tolerances={"snap_coeffs_tol": None, "reduce_tol": 0}),
            "unknown tolerances option(s) reduce_tol, snap_coeffs_tol",
            id="removed-tolerance-keys",
        ),
        pytest.param(
            lambda d: d["plant"]["A"][0].__setitem__(0, "0.0"),
            "A: '0.0' is not a number",
            id="string-matrix-entry",
        ),
        pytest.param(
            lambda d: d["exosystem"].update(S=[["0", 1], [-1, 0]]),
            "S: '0' is not a number",
            id="string-exosystem-entry",
        ),
        pytest.param(
            lambda d: d["initial"].update(x0=[True, False, True, False]),
            "initial.x0: True is not a number",
            id="boolean-vector-entry",
        ),
        pytest.param(
            lambda d: d["initial"].update(w0=[True, 1.5]),
            "initial.w0: True is not a number",
            id="boolean-mixed-vector",
        ),
        pytest.param(
            lambda d: d.update(input_policy={"values": ["0.0"] * 21}),
            "input_policy.values: '0.0' is not a number",
            id="string-explicit-values",
        ),
        pytest.param(
            lambda d: d.update(ell=2),
            "ell = 2 is below the plant's observability index 4",
            id="ell-below-observability-index",
        ),
        pytest.param(
            lambda d: d.update(input_policy={"values": "abc"}),
            "input_policy.values: 'abc' is not a number",
            id="values-of-normal-policy",
        ),
        pytest.param(
            lambda d: d.update(solver={"gap_tol": 1e-4}),
            "unknown config option(s) solver",
            id="solver-section",
        ),
        # A section that is not a JSON object is named, whichever it is.
        pytest.param(
            lambda d: d.update(exosystem=5),
            "exosystem must be a JSON object, got int",
            id="number-exosystem",
        ),
        pytest.param(
            lambda d: d.update(tolerances=5),
            "tolerances must be a JSON object, got int",
            id="number-tolerances",
        ),
        pytest.param(
            lambda d: d.update(initial=["w0"]),
            "initial must be a JSON object, got list",
            id="list-initial",
        ),
        pytest.param(
            lambda d: d.update(input_policy=["values"]),
            "input_policy must be a JSON object, got list",
            id="list-input-policy",
        ),
        pytest.param(
            lambda d: d.update(plant="ABPCQ"),
            "plant must be a JSON object, got str",
            id="string-plant",
        ),
        pytest.param(
            lambda d: d.update(initial=[]),
            "initial must be a JSON object, got list",
            id="empty-list-initial",
        ),
    ],
)
def test_cli_config_error_exit_two(tmp_path, capsys, edit, message):
    d = vtol_config_dict()
    edit(d)
    path = write_config(tmp_path, d)
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert f"[config] {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key",
    [
        *(
            ("tolerances", key)
            for key in (
                "data_identity",
                "claim_residual",
                "correspondence",
                "factorization_residual",
                "regulator_identity",
                "sylvester_residual",
                "representation_gap",
                "gain_identity",
                "eps_reg",
                "zero_exo_decay",
            )
        ),
        ("config", "verify"),
    ],
)
def test_removed_battery_key_is_a_config_error(tmp_path, capsys, section, key):
    # The battery's thresholds and horizon left the run config: setting one,
    # even to its old default, is a [config] error that names it.
    d = vtol_config_dict()
    if section == "config":
        d[key] = {"steps": 300, "tail_frac": 0.1}
    else:
        d[section] = {key: 1e-8}
    code = main(["run", "--config", str(write_config(tmp_path, d))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"[config] unknown {section} option(s) {key}" in err


def test_config_errors_stop_before_any_stage(tmp_path, capsys, monkeypatch):
    # The FOUND configs: each used to run the experiment (and, at ell = 2,
    # the whole design) before failing.
    def not_run(*args, **kwargs):
        raise AssertionError("a stage ran on a malformed config")

    monkeypatch.setattr(cli, "collect_experiment", not_run)
    monkeypatch.setattr(cli, "solve_feasibility_sdp", not_run)
    for edit in ({"T": 20.7}, {"factorization": {"method": "krylov"}}, {"ell": 2}):
        path = write_config(tmp_path, {**vtol_config_dict(), **edit})
        assert main(["run", "--config", str(path)]) == 2
        assert "[config] " in capsys.readouterr().err


def test_integral_floats_are_integers():
    config = RunConfig.from_dict({**vtol_config_dict(), "T": 20.0})
    assert config.T == 20 and type(config.T) is int
    config = RunConfig.from_dict({**vtol_config_dict(), "seed": np.int64(3)})
    assert config.seed == 3 and type(config.seed) is int


def test_cli_overrides_apply_before_validation(tmp_path, capsys):
    d = vtol_config_dict()
    d.pop("seed")
    path = write_config(tmp_path, d)
    assert main(["run", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "s")]) == 0
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["effective_config"]["seed"] == 3


@pytest.mark.parametrize(
    "command", ["collect", "synthesize", "verify", "run", "paper-example"]
)
def test_cli_factorization_flag_exit_two(tmp_path, capsys, command):
    # There is one regressor, so no command takes a choice of one.
    path = write_config(tmp_path, vtol_config_dict())
    config = [] if command == "paper-example" else ["--config", str(path)]
    argv = [command, *config, "--factorization", "krylov"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--gain", str(path)] if command == "verify" else argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --factorization krylov" in capsys.readouterr().err


def test_cli_collect_writes_record(tmp_path):
    path = write_config(tmp_path, vtol_config_dict(seed=4))
    code = main(["collect", "--config", str(path), "--out", str(tmp_path / "c")])
    assert code == 0
    lines = (tmp_path / "c" / "record.csv").read_text().splitlines()
    assert len(lines) == 22  # header + 21 samples
    assert "w_1" not in lines[0]
    assert (tmp_path / "c" / "effective_config.json").exists()


def test_cli_collect_unmask(tmp_path):
    path = write_config(tmp_path, vtol_config_dict(seed=4))
    code = main(
        ["collect", "--config", str(path), "--out", str(tmp_path / "c"), "--unmask"]
    )
    assert code == 0
    assert "w_1" in (tmp_path / "c" / "record.csv").read_text().splitlines()[0]


def test_cli_synthesize_from_record(tmp_path):
    path = write_config(tmp_path, vtol_config_dict(seed=5))
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    code = main(
        [
            "synthesize",
            "--config", str(path),
            "--record", str(tmp_path / "c" / "record.csv"),
            "--out", str(tmp_path / "s"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "s" / "synthesis.json").read_text())
    assert payload["status"] == "feasible"
    assert len(payload["gain"][0]) == 10
    assert [(c["name"], c["pass"]) for c in payload["checks"]] == [
        ("sdp_feasible", True),
        ("window_residual", True),
        ("gain_identity", True),
    ]


def test_cli_synthesize_plant_free(tmp_path):
    # Designer mode: the record CSV plus exosystem knowledge suffice.
    path = write_config(tmp_path, vtol_config_dict(seed=5))
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    d = vtol_config_dict(seed=5)
    d.pop("plant")
    d.pop("initial")
    blind = write_config(tmp_path, d, name="blind.json")
    code = main(
        [
            "synthesize",
            "--config", str(blind),
            "--record", str(tmp_path / "c" / "record.csv"),
            "--out", str(tmp_path / "s2"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "s2" / "synthesis.json").read_text())
    assert payload["status"] == "feasible"


def test_cli_synthesize_rejects_a_window_below_the_index(tmp_path, capsys):
    # A plant-free config checks ell against nothing but the data: at
    # ell = 3 (the paper plant's observability index is 4) the design is
    # feasible, yet psi1 leaves the row space of [psi0; u1; mhat], so the
    # window_residual row fails and synthesize exits 1.
    cfg = paper_example_config(0).effective_dict()
    path = write_config(tmp_path, cfg)
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    cfg.pop("plant")
    cfg.update(ell=3)
    blind = write_config(tmp_path, cfg, name="designer.json")
    argv = ["synthesize", "--config", str(blind), "--out", str(tmp_path / "s")]
    assert main(argv + ["--record", str(tmp_path / "c" / "record.csv")]) == 1
    assert "[FAIL] window_residual" in capsys.readouterr().out
    payload = json.loads((tmp_path / "s" / "synthesis.json").read_text())
    rows = {c["name"]: c["pass"] for c in payload["checks"]}
    assert rows == {"sdp_feasible": True, "window_residual": False, "gain_identity": True}
    assert not np.isnan(payload["window_residual"])


def test_design_stage_reads_no_ground_truth(tmp_path):
    # One wide-output record designed from a config with the plant and from
    # a plant-free one: the design sees the record, the
    # exosystem and the options alone, so the two synthesis.json files
    # differ only in the config hash.
    d = wide_output_config_dict()
    path = write_config(tmp_path, d)
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    d.pop("plant")
    d.pop("initial")
    blind = write_config(tmp_path, d, name="blind.json")
    texts = []
    for config, out in ((path, tmp_path / "s"), (blind, tmp_path / "s2")):
        argv = ["synthesize", "--config", str(config), "--out", str(out)]
        assert main(argv + ["--record", str(tmp_path / "c" / "record.csv")]) == 1
        lines = (out / "synthesis.json").read_text().splitlines()
        texts.append([line for line in lines if '"config_hash"' not in line])
    assert texts[0] == texts[1]
    assert '  "status": "infeasible",' in texts[0]


def _designed(tmp_path, config, record, name):
    """synthesize from ``record`` under ``config``: synthesis.json's lines
    but the config hash."""
    argv = ["synthesize", "--config", str(config), "--record", str(record)]
    assert main([*argv, "--out", str(tmp_path / name)]) == 0
    lines = (tmp_path / name / "synthesis.json").read_text().splitlines()
    return [line for line in lines if '"config_hash"' not in line]


def test_plant_free_design_reads_m_and_p_off_the_record(tmp_path):
    # A plant-free config states no m or p: the record's header gives them,
    # and the feasible paper design is the plant config's.
    d = vtol_config_dict(seed=5)
    path = write_config(tmp_path, d)
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    d.pop("plant")
    d.pop("initial")
    blind = write_config(tmp_path, d, name="blind.json")
    record = tmp_path / "c" / "record.csv"
    texts = [_designed(tmp_path, c, record, n) for c, n in ((path, "s"), (blind, "s2"))]
    assert texts[0] == texts[1]
    assert '  "status": "feasible",' in texts[0]


def test_unmasked_record_designs_as_the_masked_one(tmp_path):
    # The exosignal columns after eta are not read.
    d = vtol_config_dict(seed=5)
    path = write_config(tmp_path, d)
    for out, flags in (("c", []), ("cu", ["--unmask"])):
        argv = ["collect", "--config", str(path), "--out", str(tmp_path / out)]
        assert main(argv + flags) == 0
    assert "w_1" in (tmp_path / "cu" / "record.csv").read_text().splitlines()[0]
    d.pop("plant")
    blind = write_config(tmp_path, d, name="blind.json")
    for config in (path, blind):
        texts = [
            _designed(tmp_path, config, tmp_path / out / "record.csv", f"s-{out}")
            for out in ("c", "cu")
        ]
        assert texts[0] == texts[1]


def test_record_of_other_dimensions_exit_two(tmp_path, capsys):
    # A wide-output record (p = 2) against the paper plant (p = 1): rejected
    # where the record enters, naming both.
    path = write_config(tmp_path, wide_output_config_dict(), name="wide.json")
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    path = write_config(tmp_path, vtol_config_dict())
    record = tmp_path / "c" / "record.csv"
    assert main(["synthesize", "--config", str(path), "--record", str(record)]) == 2
    err = capsys.readouterr().err
    assert "[collect] the record has (m, p) = (1, 2), the plant has (1, 1)" in err


def test_plant_free_config_needs_no_seed(tmp_path):
    # A seed is read only for the input draw, and a designer draws nothing:
    # without one the design is the seeded config's, bit for bit.
    path = write_config(tmp_path, vtol_config_dict(seed=5))
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    d = vtol_config_dict(seed=5)
    d.pop("plant")
    configs = {"seeded": write_config(tmp_path, d, "seeded.json")}
    d.pop("seed")
    configs["unseeded"] = write_config(tmp_path, d, "unseeded.json")
    assert RunConfig.from_dict(d).seed is None
    payloads = []
    for name, config in configs.items():
        argv = ["synthesize", "--config", str(config), "--out", str(tmp_path / name)]
        assert main([*argv, "--record", str(tmp_path / "c" / "record.csv")]) == 0
        payloads.append(json.loads((tmp_path / name / "synthesis.json").read_text()))
    seeded, unseeded = payloads
    assert seeded.pop("config_hash") != unseeded.pop("config_hash")
    assert seeded == unseeded


def test_plant_free_config_probes_nothing(tmp_path, capsys):
    # Without a plant there is no internal model to build and no input to
    # draw: an experiment is a [collect] error, not an AttributeError.
    d = vtol_config_dict()
    d.pop("plant")
    config = RunConfig.from_dict(d)
    assert config.im is None
    with pytest.raises(PipelineError, match="no plant in config") as exc:
        config.probing_input()
    assert exc.value.stage == "collect"
    assert main(["run", "--config", str(write_config(tmp_path, d))]) == 2
    assert "[collect] no plant in config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "k,u_1\n0,0.5\n1,-0.2\n",
            "CSV header needs u_* and y_* columns, got k,u_1",
        ),
        (
            "k,u_1,y_1,eta_1,eta_2\n0,0.5,0.1,0.0,0.0\n1,-0.2,0.3\n",
            "CSV line 3 has 3 columns, needs 5",
        ),
        ("", "CSV needs a header row and at least one sample"),
        (
            "k,u_1,y_1,eta_1,eta_2\n0,0.5,0.1,nan,0.0\n",
            "CSV record contains non-finite entries",
        ),
        (
            "k,u_1,y_1,eta_1,eta_2\n0,0.5,abc,0.0,0.0\n",
            "CSV line 2, column y_1: 'abc' is not a number",
        ),
        (
            "k,y_1,u_1,eta_1,eta_2\n0,0.1,0.5,0.0,0.0\n",
            "CSV header must start k,u_1,y_1,eta_1,eta_2, got k,y_1,u_1,eta_1,eta_2",
        ),
        (
            "k,u_1,y_1,w_1,w_2\n0,0.5,0.1,0.0,0.0\n",
            "CSV header must start k,u_1,y_1,eta_1,eta_2, got k,u_1,y_1,w_1,w_2",
        ),
        (
            "k,u_1,y_1,eta_2,eta_1\n0,0.5,0.1,0.0,0.0\n",
            "CSV header must start k,u_1,y_1,eta_1,eta_2, got k,u_1,y_1,eta_2,eta_1",
        ),
    ],
    ids=[
        "two-columns",
        "short-row",
        "empty",
        "nan-eta",
        "non-numeric",
        "out-of-order",
        "no-eta",
        "eta-out-of-order",
    ],
)
def test_cli_synthesize_malformed_record_exit_two(tmp_path, capsys, text, message):
    path = write_config(tmp_path, vtol_config_dict(seed=5))
    record = tmp_path / "record.csv"
    record.write_text(text)
    code = main(["synthesize", "--config", str(path), "--record", str(record)])
    assert code == 2
    assert f"[collect] {message}" in capsys.readouterr().err


def test_cli_synthesize_record_of_other_length_exit_two(tmp_path, capsys):
    # A T = 30 record against the paper config (T = 20): rejected where the
    # record enters, naming both lengths, before any regressor is built.
    path = write_config(tmp_path, {**vtol_config_dict(), "T": 30}, name="long.json")
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    path = write_config(tmp_path, vtol_config_dict())
    record = tmp_path / "c" / "record.csv"
    code = main(["synthesize", "--config", str(path), "--record", str(record)])
    assert code == 2
    err = capsys.readouterr().err
    assert "[collect] the CSV holds T = 30, the config has T = 20" in err


def test_cli_paper_example(tmp_path, capsys):
    code = main(["paper-example", "--seed", "1", "--out", str(tmp_path / "p")])
    assert code == 0
    assert (tmp_path / "p" / "report.json").exists()


def test_cli_paper_example_unmask(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["paper-example", "--seed", "0", "--unmask", "--out", str(out)]) == 0
    for name in ("record.csv", "trajectories.csv"):
        header = (out / name).read_text().splitlines()[0].split(",")
        assert "w_1" in header, name
    assert "x_1" in (out / "trajectories.csv").read_text().splitlines()[0].split(",")


def test_cli_paper_example_takes_no_config(tmp_path, capsys):
    # The canned scenario is its own config: a --config would be ignored.
    path = write_config(tmp_path, vtol_config_dict())
    with pytest.raises(SystemExit) as exc:
        main(["paper-example", "--config", str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    p1 = write_config(tmp_path, vtol_config_dict(seed=0), "c1.json")
    p2 = write_config(tmp_path, vtol_config_dict(seed=1), "c2.json")
    code = main(["run", "--sweep", str(p1), str(p2), "--out", str(tmp_path / "sw")])
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep 0: all_pass=True" in out and "sweep 1: all_pass=True" in out
    # --seed overrides every config's seed, as it does a single --config.
    sweep = ["run", "--sweep", str(p1), str(p2), "--seed", "7"]
    assert main([*sweep, "--out", str(tmp_path / "s7")]) == 0
    for i in range(2):
        report = json.loads((tmp_path / "s7" / f"sweep_{i:03d}" / "report.json").read_text())
        assert report["effective_config"]["seed"] == 7
    # A --config beside --sweep would be ignored: it is a config error.
    capsys.readouterr()
    assert main([*sweep, "--config", str(p1)]) == 2
    assert "[config] --config and --sweep exclude each other" in capsys.readouterr().err


def test_cli_sweep_validates_every_config_first(tmp_path, capsys):
    # An eta0 of the wrong length is a config error: the sweep stops before
    # it runs the good config listed ahead of it.
    good = write_config(tmp_path, vtol_config_dict(seed=0), "good.json")
    d = vtol_config_dict(seed=0)
    d["initial"]["eta0"] = [0.0] * 3
    bad = write_config(tmp_path, d, "bad.json")
    code = main(["run", "--sweep", str(good), str(bad), "--out", str(tmp_path / "sw")])
    assert code == 2
    assert "[config] initial.eta0 must have length 2, got 3" in capsys.readouterr().err
    assert not (tmp_path / "sw" / "sweep_000").exists()
    with pytest.raises(PipelineError, match="initial.eta0 must have length 2") as exc:
        RunConfig.from_dict(d)
    assert exc.value.stage == "config"


def test_trajectory_csv_schema(tmp_path):
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    header = (tmp_path / "o" / "trajectories.csv").read_text().splitlines()[0]
    assert header.startswith("k,y_1,u_1,chi_1")
    assert "w_1" not in header and "x_1" not in header
    main(
        ["run", "--config", str(path), "--out", str(tmp_path / "o2"), "--unmask"]
    )
    header2 = (tmp_path / "o2" / "trajectories.csv").read_text().splitlines()[0]
    assert header2.startswith("k,w_1,w_2,x_1")


def test_csv_cells_read_back_to_their_entries(tmp_path, monkeypatch):
    # Every non-empty cell of trajectories.csv and regressor.csv parses to
    # exactly the array entry it was written from; the last step has no
    # input, so its u cells are empty.
    made = {}

    def keep(name, fn):
        def kept(*args, **kwargs):
            made[name] = fn(*args, **kwargs)
            return made[name]

        monkeypatch.setattr(cli, name, kept)

    keep("simulate_closed_loop", cli.simulate_closed_loop)
    keep("build_regressor", cli.build_regressor)
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out), "--unmask"]) == 0

    run = made["simulate_closed_loop"]
    rows = (out / "trajectories.csv").read_text().splitlines()
    names = ("w", "x", "y", "u", "chi", "eta")
    blocks = [getattr(run, name) for name in names]
    header = ["k"] + [
        f"{name}_{i + 1}" for name, b in zip(names, blocks) for i in range(b.shape[1])
    ]
    assert rows[0].split(",") == header
    assert header[:8] == ["k", "w_1", "w_2", "x_1", "x_2", "x_3", "x_4", "y_1"]
    assert len(rows) == run.steps + 2
    for k, line in enumerate(rows[1:]):
        cells = line.split(",")
        assert cells[0] == str(k) and len(cells) == len(header)
        at = 1
        for b in blocks:
            got = cells[at : at + b.shape[1]]
            at += b.shape[1]
            if b is run.u and k == run.steps:
                assert got == [""] * b.shape[1]
            else:
                assert np.array_equal(np.array(got, dtype=float), b[k])

    matrix = made["build_regressor"].matrix
    rows = (out / "regressor.csv").read_text().splitlines()
    assert rows[0] == "k,mhat_1,mhat_2" and len(rows) == 1 + matrix.shape[1]
    for k, line in enumerate(rows[1:]):
        cells = line.split(",")
        assert cells[0] == str(k)
        assert np.array_equal(np.array(cells[1:], dtype=float), matrix[:, k])


def test_cli_verify_stored_gain(tmp_path, capsys):
    path = write_config(tmp_path, vtol_config_dict(seed=6))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    code = main(
        [
            "verify",
            "--config", str(path),
            "--gain", str(tmp_path / "s" / "synthesis.json"),
            "--out", str(tmp_path / "v"),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["all_pass"]
    names = {c["name"] for c in report["checks"]}
    assert "regulator_identity" in names and "regulation_tail" in names


@pytest.mark.parametrize("gain_value", [0.0, 100.0])
def test_verify_destabilizing_gain_fails_rows(gain_value):
    # Zero gain: closed loop not Schur (no steady state), simulations stay
    # bounded.  Large gain: the simulations diverge as well.
    report = verify_gain(paper_example_config(0), [[gain_value] * 10])
    rows = {c["name"]: c for c in report["checks"]}
    assert not report["all_pass"]
    assert rows["stability_radius"]["value"] >= 1.0
    assert not rows["stability_radius"]["pass"]
    for name in ("regulator_identity", "sylvester_residual"):
        assert np.isnan(rows[name]["value"]) and not rows[name]["pass"]
    for name in ("regulation_tail", "zero_exo_decay"):
        assert not rows[name]["pass"]
        assert np.isnan(rows[name]["value"]) == (gain_value == 100.0)
    # The oracle rows do not depend on the gain.
    for name in ("data_identity", "claim_windows", "factorization_residual"):
        assert rows[name]["pass"]


def test_zero_initial_states_under_a_diverging_gain():
    # Every initial state zero: the run stays at zero under any gain, so its
    # tail passes, while the unit probe of zero_exo_decay diverges.
    d = vtol_config_dict(seed=0)
    d["initial"] = {}
    report = verify_gain(RunConfig.from_dict(d), [[100.0] * 10])
    rows = {c["name"]: c for c in report["checks"]}
    assert rows["regulation_tail"]["value"] == 0.0 and rows["regulation_tail"]["pass"]
    assert np.isnan(rows["zero_exo_decay"]["value"])
    assert not rows["zero_exo_decay"]["pass"]
    assert report["regulation"]["settle_step"] == 0


def test_zero_exo_decay_probes_a_zero_core_state():
    # With x0, chi0 and eta0 unset the core state is zero, and it would stay
    # zero under any gain: the row steps a unit probe instead, so the zero
    # gain (radius 1) fails it and the designed gain passes it.
    d = vtol_config_dict(seed=0)
    del d["initial"]["x0"], d["initial"]["eta0"]
    config = RunConfig.from_dict(d)
    zero = {c["name"]: c for c in verify_gain(config, [[0.0] * 10])["checks"]}
    assert zero["stability_radius"]["value"] >= 1.0
    assert zero["zero_exo_decay"]["value"] > 0.1
    assert not zero["zero_exo_decay"]["pass"]
    designed = run_pipeline(config)
    assert designed["synthesis"]["status"] == "feasible"
    for report in (designed, verify_gain(config, designed["synthesis"]["gain"])):
        row = next(c for c in report["checks"] if c["name"] == "zero_exo_decay")
        assert 0.0 < row["value"] and row["pass"]


@pytest.mark.parametrize(
    "gain, eta0, radius_is_nan",
    [
        pytest.param([[100.0] * 10], None, False, id="unstable"),
        # Finite, but B @ gain overflows: the loop map has no spectrum.
        pytest.param([[1e308] * 10], None, True, id="overflow"),
        # So does the input read off the run's first state.
        pytest.param([[1e308] * 10], [0.9, 0.9], True, id="overflow-input"),
    ],
)
def test_cli_verify_destabilizing_gain_writes_report(
    tmp_path, capsys, gain, eta0, radius_is_nan
):
    raw = vtol_config_dict(seed=0)
    if eta0 is not None:
        raw["initial"]["eta0"] = eta0
    path = write_config(tmp_path, raw)
    gain_path = tmp_path / "synthesis.json"
    gain_path.write_text(json.dumps({"gain": gain}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(
            [
                "verify",
                "--config", str(path),
                "--gain", str(gain_path),
                "--out", str(tmp_path / "v"),
            ]
        )
    assert code == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert not report["all_pass"]
    radius = next(c for c in report["checks"] if c["name"] == "stability_radius")
    assert np.isnan(radius["value"]) == radius_is_nan
    assert np.isnan(report["regulation"]["stability_radius"]) == radius_is_nan
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {
        "stability_radius",
        "regulator_identity",
        "sylvester_residual",
        "regulation_tail",
        "zero_exo_decay",
    }
    # The diverged run leaves no trajectory to write.
    assert not (tmp_path / "v" / "trajectories.csv").exists()
    assert "[FAIL] stability_radius" in capsys.readouterr().out


@pytest.mark.parametrize(
    "gain, message",
    [
        ([[1.0, 2.0]], "[verify] gain has shape (1, 2), expected (1, 10)"),
        ([[1.0, 2.0], [3.0]], "[verify] gain: [1.0, 2.0] is not a number"),
        ([[float("nan")] * 10], "[verify] gain contains non-finite entries"),
        ([[float("inf")] * 10], "[verify] gain contains non-finite entries"),
        ({"a": 1}, "[verify] gain: {'a': 1} is not a number"),
        ([["1.0"] * 10], "[verify] gain: '1.0' is not a number"),
        ([[True] * 10], "[verify] gain: True is not a number"),
    ],
)
def test_cli_verify_wrong_gain_shape_exit_two(tmp_path, capsys, gain, message):
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    gain_path = tmp_path / "synthesis.json"
    gain_path.write_text(json.dumps({"gain": gain}))
    code = main(["verify", "--config", str(path), "--gain", str(gain_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "m x (window_dim + im.dim)" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "No such file or directory"),
        ("{", "Expecting property name enclosed in double quotes"),
        ("[]", "no gain stored in"),
    ],
    ids=["missing", "malformed", "not-an-object"],
)
def test_cli_verify_unreadable_gain_file_exit_two(tmp_path, capsys, text, message):
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    gain_path = tmp_path / "synthesis.json"
    if text is not None:
        gain_path.write_text(text)
    code = main(["verify", "--config", str(path), "--gain", str(gain_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [verify] ")
    assert message in err


def test_cli_verify_requires_gain(tmp_path, capsys):
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(path)])
    assert exc.value.code == 2
    assert "--gain" in capsys.readouterr().err


def test_cli_run_writes_regressor_csv(tmp_path):
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    text = (tmp_path / "o" / "regressor.csv").read_text()
    assert text.startswith("k,mhat_1,mhat_2\n0,")


def test_config_output_dir_fallback(tmp_path):
    d = vtol_config_dict(seed=0)
    d["output_dir"] = str(tmp_path / "from_config")
    path = write_config(tmp_path, d)
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "from_config" / "report.json").exists()
