import inspect
import json

import numpy as np
import pytest
import scipy.linalg

from ddreg import cli
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
from ddreg.experiment import NormalInputPolicy
from ddreg.synthesis import solve_feasibility_sdp


def vtol_config_dict(seed=0, factorization=None):
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
        "factorization": factorization or {"method": "jordan", "mode": "auto"},
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
        "factorization": {"method": "jordan", "mode": "auto"},
    }


DECLARED = {"method": "jordan", "mode": "declared"}


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
    assert config.tolerances["eps_reg"] == 1e-4
    assert config.verify["steps"] == 300


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


def test_config_rejects_unknown_factorization():
    d = vtol_config_dict()
    d["factorization"] = {"method": "fourier"}
    with pytest.raises(PipelineError, match="jordan or krylov"):
        RunConfig.from_dict(d)


@pytest.mark.parametrize(
    "section, key",
    [
        ("tolerances", "rank_rtol"),
        ("verify", "stepz"),
        ("solver", "backend"),
        ("factorization", "w_start"),
        ("input_policy", "sigma"),
        ("dims", "n"),
    ],
)
def test_config_rejects_unknown_solver_option(section, key):
    # Every section holds exactly the keys of its defaults table.
    d = vtol_config_dict()
    d.setdefault(section, {})[key] = 1
    with pytest.raises(PipelineError, match=f"unknown {section} option.*{key}") as exc:
        RunConfig.from_dict(d)
    assert exc.value.stage == "config"


def test_solver_options_defaults_are_the_config_defaults():
    config = RunConfig.from_dict(vtol_config_dict())
    params = inspect.signature(solve_feasibility_sdp).parameters
    assert tuple(params[k].default for k in ("feas_tol", "gap_tol", "max_newton")) == (
        config.tolerances["feas_tol"],
        config.solver["gap_tol"],
        config.solver["max_newton"],
    )


def test_configured_gain_identity_reaches_extract_gain(tmp_path, capsys):
    # The identity is decided once, by its report row: a violated identity
    # is a written report whose gain_identity row fails, and exit code 1.
    d = vtol_config_dict()
    d["tolerances"] = {"gain_identity": 1e-30}
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
    assert rows == {"sdp_feasible": True, "gain_identity": False}
    assert payload["gain"] is not None


def test_sylvester_row_decided_by_its_configured_tolerance(tmp_path, monkeypatch):
    # A Sylvester solution off by 1e-3 relative: its residual is a failing
    # report row under the default tolerance and passes a looser one.
    solve = scipy.linalg.solve_sylvester
    monkeypatch.setattr(
        scipy.linalg, "solve_sylvester", lambda *a: solve(*a) * (1.0 + 1e-3)
    )
    d = vtol_config_dict()
    report = run_pipeline(RunConfig.from_dict(d))
    row = {c["name"]: c for c in report["checks"]}["sylvester_residual"]
    assert 1e-7 < row["value"] < 1e-6 and not row["pass"]
    assert not report["all_pass"]
    assert main(["run", "--config", str(write_config(tmp_path, d))]) == 1
    d["tolerances"] = {"sylvester_residual": 1e-6}
    report = run_pipeline(RunConfig.from_dict(d))
    assert {c["name"]: c["pass"] for c in report["checks"]}["sylvester_residual"]


def test_long_record_returns_a_report():
    # At T = 300 the data stack reaches a norm of about 3.7e8 and the gain's
    # interpolation identity misses its absolute tolerance: a failing row in
    # a written report, not an exception.
    config = paper_example_config(5, "jordan")
    config.T = 300
    report = run_pipeline(config)
    names = [c["name"] for c in report["checks"]]
    assert "gain_identity" in names and "zero_exo_decay" in names


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


def test_krylov_factorization_path():
    config = RunConfig.from_dict(
        vtol_config_dict(
            seed=1, factorization={"method": "krylov", "w_star": [1.0, 0.0]}
        )
    )
    report = run_pipeline(config)
    assert report["all_pass"]


def test_reproduce_paper_example_jordan_and_krylov():
    for fact in ("jordan", "krylov"):
        report = run_pipeline(paper_example_config(2, fact))
        assert report["all_pass"], fact


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
    assert _names(infeasible) == ORACLE_ROWS + ["sdp_feasible"]
    assert "regulation" not in infeasible
    assert len(calls) == 2


def test_explicit_inputs_reproduce_seeded_run():
    seeded = run_pipeline(RunConfig.from_dict(vtol_config_dict(seed=3)))
    d = vtol_config_dict(seed=3)
    values = NormalInputPolicy(seed=3).sample(21, 1).tolist()
    d["input_policy"] = {"type": "explicit", "values": values}
    explicit = run_pipeline(RunConfig.from_dict(d))
    assert explicit["input_manifest"] == {"type": "explicit"}
    differ = {key for key in seeded if seeded[key] != explicit[key]}
    assert differ == {"input_manifest", "effective_config", "config_hash"}
    assert explicit["synthesis"]["gain"] == seeded["synthesis"]["gain"]


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
    # T = ell leaves one data column: the Jordan design is infeasible and
    # still reported; the record is too short for a Krylov regressor.
    d = vtol_config_dict()
    d["T"] = 4
    assert main(["run", "--config", str(write_config(tmp_path, d))]) == 1
    assert "synthesis: infeasible" in capsys.readouterr().out
    d["factorization"] = {"method": "krylov", "w_star": [1.0, 0.0]}
    assert main(["run", "--config", str(write_config(tmp_path, d))]) == 2
    assert "[factorize] experiment too short for Krylov" in capsys.readouterr().err


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
        pytest.param(
            lambda d: d.update(factorization={"method": "krylov"}),
            "krylov factorization needs w_star",
            id="krylov-without-w_star",
        ),
        pytest.param(
            lambda d: d.update(factorization={"method": "jordan", "mode": "guess"}),
            "factorization.mode must be auto or declared, got 'guess'",
            id="unknown-mode",
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
            lambda d: d.update(input_policy={"type": "explicit", "values": [0.0] * 20}),
            "input_policy.values needs 21 samples (T + 1), got 20",
            id="explicit-values-short",
        ),
        pytest.param(
            lambda d: d.update(
                input_policy={"type": "explicit", "values": [[0.0, 0.0]] * 21}
            ),
            "input_policy.values must be samples of m = 1 entries, got shape (21, 2)",
            id="explicit-values-columns",
        ),
        pytest.param(
            lambda d: d.update(factorization={"method": "krylov", "w_star": [1, 0, 0]}),
            "factorization.w_star must have length 2, got 3",
            id="w_star-length",
        ),
        pytest.param(
            lambda d: (d.pop("plant"), d.update(dims={"m": 1, "p": 0})),
            "dims.m and dims.p must be >= 1, got 1 and 0",
            id="plant-free-dims",
        ),
        pytest.param(
            lambda d: d.update(verify={"steps": -1}),
            "verify.steps must be finite and >= 0, got -1",
            id="negative-steps",
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
        pytest.param(
            lambda d: d.update(verify={"steps": 2.9}),
            "verify.steps must be an integer, got 2.9",
            id="non-integral-steps",
        ),
        pytest.param(
            lambda d: d.update(factorization={**DECLARED, "real_blocks": [["a", 1]]}),
            "factorization: eigenvalue: 'a' is not a number",
            id="declared-malformed-block",
        ),
        # Strings and booleans are not numbers, though Python and numpy
        # would read them as such.
        pytest.param(lambda d: d.update(ell="4"), "ell: '4' is not a number", id="string-ell"),
        pytest.param(lambda d: d.update(T="20"), "T: '20' is not a number", id="string-T"),
        pytest.param(
            lambda d: d.update(seed=True), "seed: True is not a number", id="boolean-seed"
        ),
        pytest.param(
            lambda d: d.update(verify={"steps": True}),
            "verify.steps: True is not a number",
            id="boolean-steps",
        ),
        pytest.param(
            lambda d: d.update(tolerances={"feas_tol": "1e-6"}),
            "tolerances.feas_tol: '1e-6' is not a number",
            id="string-tolerance",
        ),
        pytest.param(
            lambda d: d.update(tolerances={"snap_coeffs_tol": "x"}),
            "tolerances.snap_coeffs_tol: 'x' is not a number",
            id="string-optional-tolerance",
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
            lambda d: d.update(
                input_policy={"type": "explicit", "values": ["0.0"] * 21}
            ),
            "input_policy.values: '0.0' is not a number",
            id="string-explicit-values",
        ),
        pytest.param(
            lambda d: d.update(factorization={**DECLARED, "complex_blocks": [[1.0, 1.5]]}),
            "factorization: not enough values to unpack",
            id="declared-short-block",
        ),
        pytest.param(
            lambda d: d.update(factorization={**DECLARED, "real_blocks": [[1.0, 1.5]]}),
            "factorization: block size must be an integer, got 1.5",
            id="declared-non-integral-size",
        ),
        pytest.param(
            lambda d: d.update(factorization=DECLARED),
            "declared Jordan structure has no blocks",
            id="declared-no-blocks",
        ),
        pytest.param(
            lambda d: d.update(ell=2),
            "ell = 2 is below the plant's observability index 4",
            id="ell-below-observability-index",
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


def test_config_errors_stop_before_any_stage(tmp_path, capsys, monkeypatch):
    # The FOUND configs: each used to run the experiment (and, at ell = 2,
    # the whole design) before failing.
    def not_run(*args, **kwargs):
        raise AssertionError("a stage ran on a malformed config")

    monkeypatch.setattr(cli, "collect_experiment", not_run)
    monkeypatch.setattr(cli, "solve_feasibility_sdp", not_run)
    declared = {**DECLARED, "real_blocks": [["a", 1]]}
    for edit in ({"T": 20.7}, {"factorization": declared}, {"ell": 2}):
        path = write_config(tmp_path, {**vtol_config_dict(), **edit})
        assert main(["run", "--config", str(path)]) == 2
        assert "[config] " in capsys.readouterr().err


def test_integral_floats_are_integers():
    d = {**vtol_config_dict(), "T": 20.0, "verify": {"steps": 300.0}}
    config = RunConfig.from_dict(d)
    assert (config.T, config.verify["steps"]) == (20, 300)
    assert type(config.T) is int and type(config.verify["steps"]) is int
    config = RunConfig.from_dict({**vtol_config_dict(), "seed": np.int64(3)})
    assert config.seed == 3 and type(config.seed) is int


def test_declared_jordan_structure_is_built_with_the_config():
    # The quarter-turn exosystem: one complex block at modulus 1, angle pi/2.
    fact = {**DECLARED, "complex_blocks": [[1.0, np.pi / 2, 1]]}
    config = RunConfig.from_dict(vtol_config_dict(factorization=fact))
    assert config.jordan.complex_blocks == [(1.0, np.pi / 2, 1)]
    assert config.jordan.real_blocks == []
    assert RunConfig.from_dict(vtol_config_dict()).jordan is None
    assert run_pipeline(config)["all_pass"]


def test_cli_overrides_apply_before_validation(tmp_path, capsys):
    d = vtol_config_dict()
    d.pop("seed")
    path = write_config(tmp_path, d)
    assert main(["run", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "s")]) == 0
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["effective_config"]["seed"] == 3

    fact = {"method": "jordan", "mode": "auto", "w_star": [1.0, 0.0]}
    path = write_config(tmp_path, vtol_config_dict(factorization=fact))
    argv = ["run", "--config", str(path), "--factorization", "krylov"]
    assert main([*argv, "--out", str(tmp_path / "k")]) == 0
    report = json.loads((tmp_path / "k" / "report.json").read_text())
    assert report["effective_config"]["factorization"]["method"] == "krylov"

    path = write_config(tmp_path, vtol_config_dict())
    capsys.readouterr()
    assert main(argv) == 2
    assert "[config] krylov factorization needs w_star" in capsys.readouterr().err


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
        ("gain_identity", True),
    ]


def test_cli_synthesize_plant_free(tmp_path):
    # Designer mode: the record CSV plus exosystem knowledge suffice.
    path = write_config(tmp_path, vtol_config_dict(seed=5))
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    d = vtol_config_dict(seed=5)
    d.pop("plant")
    d.pop("initial")
    d["dims"] = {"m": 1, "p": 1}
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


def test_design_stage_reads_no_ground_truth(tmp_path):
    # One wide-output record designed from a config with the plant and from
    # a plant-free one (dims only): the design sees the record, the
    # exosystem and the options alone, so the two synthesis.json files
    # differ only in the config hash.
    d = wide_output_config_dict()
    path = write_config(tmp_path, d)
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    d.pop("plant")
    d.pop("initial")
    d["dims"] = {"m": 1, "p": 2}
    blind = write_config(tmp_path, d, name="blind.json")
    texts = []
    for config, out in ((path, tmp_path / "s"), (blind, tmp_path / "s2")):
        argv = ["synthesize", "--config", str(config), "--out", str(out)]
        assert main(argv + ["--record", str(tmp_path / "c" / "record.csv")]) == 1
        lines = (out / "synthesis.json").read_text().splitlines()
        texts.append([line for line in lines if '"config_hash"' not in line])
    assert texts[0] == texts[1]
    assert '  "status": "infeasible",' in texts[0]


@pytest.mark.parametrize(
    "text, message",
    [
        ("k,u_1\n0,0.5\n1,-0.2\n", "CSV needs at least 5 columns, got 2"),
        ("", "CSV needs a header row and at least one sample"),
        (
            "k,u_1,y_1,eta_1,eta_2\n0,0.5,0.1,nan,0.0\n",
            "CSV record contains non-finite entries",
        ),
    ],
    ids=["two-columns", "empty", "nan-eta"],
)
def test_cli_synthesize_malformed_record_exit_two(tmp_path, capsys, text, message):
    path = write_config(tmp_path, vtol_config_dict(seed=5))
    record = tmp_path / "record.csv"
    record.write_text(text)
    code = main(["synthesize", "--config", str(path), "--record", str(record)])
    assert code == 2
    assert f"[collect] {message}" in capsys.readouterr().err


def test_cli_paper_example(tmp_path, capsys):
    code = main(["paper-example", "--seed", "1", "--out", str(tmp_path / "p")])
    assert code == 0
    assert (tmp_path / "p" / "report.json").exists()


def test_cli_sweep(tmp_path, capsys):
    p1 = write_config(tmp_path, vtol_config_dict(seed=0), "c1.json")
    p2 = write_config(tmp_path, vtol_config_dict(seed=1), "c2.json")
    code = main(["run", "--sweep", str(p1), str(p2), "--out", str(tmp_path / "sw")])
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep 0: all_pass=True" in out and "sweep 1: all_pass=True" in out


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


def test_cli_verify_destabilizing_gain_writes_report(tmp_path, capsys):
    path = write_config(tmp_path, vtol_config_dict(seed=0))
    gain_path = tmp_path / "synthesis.json"
    gain_path.write_text(json.dumps({"gain": [[100.0] * 10]}))
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
    assert text.startswith("method=jordan")


def test_config_output_dir_fallback(tmp_path):
    d = vtol_config_dict(seed=0)
    d["output_dir"] = str(tmp_path / "from_config")
    path = write_config(tmp_path, d)
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "from_config" / "report.json").exists()
