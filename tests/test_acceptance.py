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
from ddreg.exo_factorization import (
    JordanSpec,
    analyze_exosystem,
    build_M_jordan,
    build_M_krylov,
)
from ddreg.experiment import NormalInputPolicy, assemble_data_matrices, collect_experiment
from ddreg.internal_model import build_internal_model
from ddreg.numerics import minimal_polynomial
from ddreg.plant import ExoMatrix, build_structural_matrices, observability_index
from ddreg.synthesis import assemble_sdp, solve_feasibility_sdp
from ddreg.verify import (
    build_auxiliary_matrices,
    check_claim1,
    check_data_identity,
    check_solution_correspondence,
)

from _scenarios import monic_horner, random_plant, random_unit_circle_exo, rotation

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
            NormalInputPolicy(seed=1000 + trial), T=T, ell=ell,
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
                "data": assemble_data_matrices(rec),
            }
        )
    return scenarios


def exo_trajectory_stack(S, w0, ell, T):
    w = np.asarray(w0, dtype=float)
    cols = []
    for k in range(T + 1):
        if k >= ell:
            cols.append(w.copy())
        w = S @ w
    return np.column_stack(cols)


def lstsq_rel_residual(W0, M):
    L, *_ = np.linalg.lstsq(M.T, W0.T, rcond=None)
    return float(np.linalg.norm(W0 - L.T @ M) / max(np.linalg.norm(W0), 1e-300))


def factorization_cases():
    """Exosystems for the factorization criterion: eigenvalue one at block
    sizes one and two, rotation pairs, and a mixed spectrum."""
    j2 = np.array([[1.0, 1.0], [0.0, 1.0]])
    mixed = np.zeros((5, 5))
    mixed[:2, :2] = j2
    mixed[2, 2] = -1.0
    mixed[3:, 3:] = rotation(0.9)
    return [
        ("unit real, size 1", np.eye(1), JordanSpec(real_blocks=[(1.0, 1)]), [1.0]),
        ("unit real, size 2", j2, JordanSpec(real_blocks=[(1.0, 2)]), [0.0, 1.0]),
        (
            "quarter-turn rotation",
            rotation(np.pi / 2),
            JordanSpec(complex_blocks=[(1.0, np.pi / 2, 1)]),
            [1.0, 0.0],
        ),
        (
            "generic rotation",
            rotation(0.7),
            JordanSpec(complex_blocks=[(1.0, 0.7, 1)]),
            [0.3, 1.0],
        ),
        (
            "mixed spectrum",
            mixed,
            JordanSpec(
                real_blocks=[(1.0, 2), (-1.0, 1)],
                complex_blocks=[(1.0, 0.9, 1)],
            ),
            [0.2, 1.0, -0.4, 0.8, 0.5],
        ),
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
    for label, S, spec, w_star in factorization_cases():
        w0 = rng.standard_normal(S.shape[0])
        W0 = exo_trajectory_stack(S, w0, ell, T)
        reg = build_M_jordan(spec, ell=ell, T=T)
        res_j = lstsq_rel_residual(W0, reg.matrix)
        case_ok = res_j < 1e-8
        # Krylov applies when a cyclic vector exists for S.
        kry = build_M_krylov(ExoMatrix(S), w_star, ell=ell, T=T)
        res_k = lstsq_rel_residual(W0, kry.matrix)
        case_ok = case_ok and res_k < 1e-8
        if not case_ok:
            print(f"  {label}: jordan {res_j:.2e} krylov {res_k:.2e}")
        ok = ok and case_ok
    announce(3, "exosignal factorization, jordan and krylov", ok)


def test_criterion_4_jordan_power_oracle():
    ok = True
    T = 25
    for lam in (1.0, -1.0, 1.05):
        for k in (1, 2, 3):
            spec = JordanSpec(real_blocks=[(lam, k)])
            reg = build_M_jordan(spec, ell=1, T=T)
            J = lam * np.eye(k) + np.diag(np.ones(k - 1), 1)
            Jt = J.copy()
            for i, t in enumerate(range(1, T + 1)):
                diff = np.abs(reg.matrix[:, i] - Jt[:, -1]).max()
                ok = ok and diff < 1e-10
                Jt = Jt @ J
    for rho_c, theta in ((1.0, np.pi / 2), (1.0, 0.7), (1.02, 1.1)):
        mu = rho_c * np.exp(1j * theta)
        for k in (1, 2, 3):
            spec = JordanSpec(complex_blocks=[(rho_c, theta, k)])
            reg = build_M_jordan(spec, ell=1, T=T)
            J = mu * np.eye(k, dtype=complex) + np.diag(np.ones(k - 1), 1)
            Jt = J.copy()
            for i, t in enumerate(range(1, T + 1)):
                col = Jt[:, -1]
                pairs = np.empty(2 * k)
                pairs[0::2] = col.real
                pairs[1::2] = col.imag
                diff = np.abs(reg.matrix[:, i] - pairs).max()
                ok = ok and diff < 1e-10
                Jt = Jt @ J
    announce(4, "block-power oracle, k <= 3, t <= 25", ok)


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
            T=30,
            ell=ell,
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
            NormalInputPolicy(seed=seed), T=20, ell=2,
        )
        data = assemble_data_matrices(rec)
        reg = build_M_jordan(analyze_exosystem(exo), ell=2, T=20).reduced()
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
