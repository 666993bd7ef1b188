"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The benchmark gain depends on the probing-noise seed, so end-to-end criteria
are property-based (feasibility, stability, regulation) over fixed seeds
rather than digit comparisons.
"""

import time

import numpy as np
import pytest

from ddreg.benchmarks import vtol, wide_output
from ddreg.cli import paper_example_config, run_pipeline
from ddreg.exosystem import (
    ExoMatrix,
    build_internal_model,
    companion_regressor,
    minimal_polynomial,
)
from ddreg.experiment import assemble_data_matrices, collect_experiment
from ddreg.plant import build_structural_matrices, observability_index
from ddreg.synthesis import assemble_sdp, solve_feasibility_sdp
from ddreg.verify import (
    build_auxiliary_matrices,
    check_claim1,
    check_data_identity,
    check_solution_correspondence,
)

from _scenarios import (
    closed_form_jordan,
    exo_trajectory_stack,
    lstsq_rel_residual,
    monic_horner,
    probe,
    random_plant,
    random_unit_circle_exo,
    real_jordan,
    rotation,
)

PAPER_SEEDS = (0, 1, 2, 3, 4)


def announce(number: int, label: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def check_value(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise KeyError(name)


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def paper_runs():
    """Benchmark pipeline runs for the five fixed seeds, plus timing."""
    runs = []
    for seed in PAPER_SEEDS:
        config = paper_example_config(seed)
        start = time.perf_counter()
        report = run_pipeline(config)
        elapsed = time.perf_counter() - start
        runs.append({"seed": seed, "report": report, "elapsed": elapsed})
    return runs


@pytest.fixture(scope="module")
def randomized_scenarios():
    """Twenty randomized observable plants (n <= 6) with unit-circle
    exosystems, each with a collected record and oracle-side matrices."""
    rng = np.random.default_rng(2024)
    scenarios = []
    for trial in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        n_w = int(rng.integers(1, 5))
        plant = random_plant(rng, n, m, p, n_w)
        exo = random_unit_circle_exo(rng, n_w, conjugate=bool(rng.random() < 0.4))
        im = build_internal_model(exo, p=p)
        ell = observability_index(plant.A, plant.C)
        T = ell + 14
        rec = collect_experiment(
            plant, exo, im,
            rng.standard_normal(n_w), rng.standard_normal(n), np.zeros(im.dim),
            probe(1000 + trial, T + 1, plant.m),
        )
        struct = build_structural_matrices(plant, ell)
        aux = build_auxiliary_matrices(plant, struct, exo, im)
        scenarios.append(
            {
                "plant": plant,
                "exo": exo,
                "im": im,
                "rec": rec,
                "struct": struct,
                "aux": aux,
                "data": assemble_data_matrices(rec, ell),
            }
        )
    return scenarios


def factorization_cases():
    """Exosystems for the factorization criterion: eigenvalue one at block
    sizes one and two, rotation pairs, and a mixed spectrum."""
    j2 = np.array([[1.0, 1.0], [0.0, 1.0]])
    mixed = np.zeros((5, 5))
    mixed[:2, :2] = j2
    mixed[2, 2] = -1.0
    mixed[3:, 3:] = rotation(0.9)
    return [
        ("unit real, size 1", np.eye(1)),
        ("unit real, size 2", j2),
        ("quarter-turn rotation", rotation(np.pi / 2)),
        ("generic rotation", rotation(0.7)),
        ("mixed spectrum", mixed),
    ]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_benchmark_end_to_end(paper_runs):
    ok = True
    for run in paper_runs:
        report = run["report"]
        feasible = report["synthesis"]["status"] == "feasible"
        rho = report["regulation"]["stability_radius"] if feasible else np.inf
        tail = check_value(report, "regulation_tail")
        decay = check_value(report, "zero_exo_decay")
        within_time = run["elapsed"] < 60.0
        case_ok = (
            feasible
            and rho < 1.0
            and tail["value"] < 1e-4
            and decay["value"] < 1e-6
            and within_time
        )
        if not case_ok:
            print(
                f"  seed {run['seed']}: feasible={feasible} rho={rho:.4f} "
                f"tail={tail['value']:.2e} decay={decay['value']:.2e} "
                f"elapsed={run['elapsed']:.1f}s"
            )
        ok = ok and case_ok
    announce(1, "benchmark end-to-end, 5 seeds", ok)


def test_criterion_2_data_identity(randomized_scenarios):
    worst = max(
        check_data_identity(s["data"], s["aux"]) for s in randomized_scenarios
    )
    announce(2, f"data identity on 20 scenarios, worst {worst:.2e}", worst < 1e-8)


def test_criterion_3_factorization_residuals():
    rng = np.random.default_rng(7)
    ell, T = 3, 18
    ok = True
    for label, S in factorization_cases():
        w0 = rng.standard_normal(S.shape[0])
        W0 = exo_trajectory_stack(S, w0, ell, T)
        reg = companion_regressor(ExoMatrix(S), ell=ell, T=T)
        res = float(lstsq_rel_residual(W0, reg.matrix))
        if not res < 1e-8:
            print(f"  {label}: {res:.2e}")
        ok = ok and res < 1e-8
    announce(3, "exosignal factorization", ok)


def test_criterion_4_jordan_power_oracle():
    # The closed-form sequences of each real Jordan block (binomial times
    # power, times cosine and sine for a complex one) lie in the row space
    # of the regressor, which has one row per degree of S's minimal
    # polynomial: k for a real block of size k, 2k for a complex one.
    ok = True
    T = 25
    blocks = [([(lam, k)], []) for lam in (1.0, -1.0, 1.05) for k in (1, 2, 3)]
    blocks += [
        ([], [(rho, theta, k)])
        for rho, theta in ((1.0, np.pi / 2), (1.0, 0.7), (1.02, 1.1))
        for k in (1, 2, 3)
    ]
    for real, cplx in blocks:
        reg = companion_regressor(ExoMatrix(real_jordan(real, cplx)), ell=1, T=T)
        ref = closed_form_jordan(real, cplx, ell=1, T=T)
        res = float(lstsq_rel_residual(ref, reg.matrix))
        ok = ok and res < 1e-10 and reg.matrix.shape == ref.shape
    announce(4, "closed-form block sequences in the regressor's row space, k <= 3", ok)


def test_criterion_5_claim_residuals(randomized_scenarios, paper_runs):
    worst = 0.0
    for s in randomized_scenarios:
        worst = max(worst, *check_claim1(s["rec"], s["plant"], s["struct"]))
    reports_ok = all(
        check_value(r["report"], "claim_windows")["pass"] for r in paper_runs
    )
    announce(
        5,
        f"window identities on every record, worst {worst:.2e}",
        worst < 1e-8 and reports_ok,
    )


def test_criterion_6_correspondence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        n_w = int(rng.integers(1, 4))
        radius = 1.3 if trial == 0 else 0.85  # one open-loop-unstable plant
        plant = random_plant(rng, n, m, p, n_w, radius=radius)
        exo = random_unit_circle_exo(rng, n_w)
        im = build_internal_model(exo, p=p)
        ell = observability_index(plant.A, plant.C)
        struct = build_structural_matrices(plant, ell)
        aux = build_auxiliary_matrices(plant, struct, exo, im)
        rec = collect_experiment(
            plant,
            exo,
            im,
            rng.standard_normal(n_w),
            rng.standard_normal(n),
            np.zeros(im.dim),
            rng.standard_normal((31, m)),
        )
        r_state, r_out = check_solution_correspondence(
            aux, rec.oracle.w, rec.oracle.x[0], rec.y, rec.u
        )
        worst = max(worst, r_state, r_out)
    announce(6, f"solution correspondence over 30 steps, worst {worst:.2e}", worst < 1e-8)


def test_criterion_7_regulator_equations(paper_runs):
    ok = True
    for run in paper_runs:
        identity = check_value(run["report"], "regulator_identity")
        syl = check_value(run["report"], "sylvester_residual")
        ok = ok and identity["value"] < 1e-6 and syl["value"] < 1e-8
    announce(7, "regulator equations on every feasible design", ok)


def test_criterion_8_provable_infeasibility():
    plant, exo = wide_output()
    im = build_internal_model(exo, p=plant.p)
    rng = np.random.default_rng(55)
    ok = True
    for seed in range(5):
        rec = collect_experiment(
            plant, exo, im, [0.2, -0.1], rng.standard_normal(3), np.zeros(im.dim),
            probe(seed, 21, plant.m),
        )
        data = assemble_data_matrices(rec, 2)
        reg = companion_regressor(exo, ell=2, T=20)
        prob = assemble_sdp(data, reg)
        res = solve_feasibility_sdp(prob)
        case_ok = res.status == "infeasible" and res.margin <= 1e-6
        if not case_ok:
            print(f"  seed {seed}: status={res.status} margin={res.margin:.2e}")
        ok = ok and case_ok
    announce(8, "over-instrumented plant provably infeasible, 5 seeds", ok)


def test_criterion_9_representation_equivalence(paper_runs):
    ok = all(
        check_value(r["report"], "representation_gap")["value"] < 1e-8
        for r in paper_runs
    )
    announce(9, "model/data closed-loop spectral radii agree", ok)


def test_criterion_10_internal_model():
    ok = True
    tested = [case[1] for case in factorization_cases()]
    tested.append(vtol()[1].S)
    for S in tested:
        exo = ExoMatrix(S)
        poly = minimal_polynomial(S)
        im = build_internal_model(exo, p=1)
        ann = np.linalg.norm(monic_horner(poly, S))
        roots_ok = all(
            abs(monic_horner(poly, lam)) < 1e-6
            for lam in np.linalg.eigvals(im.companion)
        )
        ok = ok and ann < 1e-8 and roots_ok
    announce(10, "internal model matches the minimal polynomial", ok)
