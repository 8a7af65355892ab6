"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.  Criteria 1-3 compare
against the exact solution of the two bundled benchmarks, computed in
support.py from the band-formula oracle and the transcribed inverses
without importing ugp (``exact_table``, ``exact_betas``).  The tables and
betas published with the paper's example are kept verbatim in support.py
as ``PUBLISHED_*``; test_published_tables.py shows where they are wrong.
"""

import time

import numpy as np

from ugp.chance import sweep
from ugp.cli import bundled_problem_path, load_problem
from ugp.distributions import (
    LinearDistribution,
    TrapezoidalDistribution,
    TriangularDistribution,
    check_regularity,
    critical_value,
    expected_value,
)
from ugp.gp import solve_gp
from ugp.twofold import ReductionCriterion, TwoFoldVariable, reduce_twofold

from support import (
    REFERENCE_INVERSES_TRAPEZOIDAL,
    REFERENCE_INVERSES_TRIANGULAR,
    TRAPEZOIDAL_COEFFICIENTS,
    TRIANGULAR_COEFFICIENTS,
    exact_betas,
    exact_table,
    grid_search_minimum,
)

GAMMA_GRID = [round(0.1 * i, 12) for i in range(1, 10)]

X_TOL = 5e-3
DELTA_TOL = 1e-3
OBJECTIVE_TOL = 1e-2
BETA_TOL = 1e-3
INTERNAL_AGREEMENT_TOL = 1e-8
IDENTITY_TOL = 1e-12
INVERSE_TOL = 1e-9


def _report(num: int, description: str, failures: list[str], runtime: float | None = None):
    status = "PASS" if not failures else "FAIL"
    extra = f"  [{runtime:.3f} s]" if runtime is not None else ""
    print(f"\nACCEPTANCE {num} {status}: {description}{extra}")
    for item in failures[:10]:
        print(f"    - {item}")
    if len(failures) > 10:
        print(f"    ... and {len(failures) - 10} more")
    assert not failures, f"criterion {num}: {len(failures)} check(s) failed"


def _load(name: str):
    _, problem = load_problem(bundled_problem_path(name))
    return problem


def _table_failures(problem, reference) -> tuple[list[str], float]:
    start = time.perf_counter()
    rows = sweep(problem, GAMMA_GRID)
    runtime = time.perf_counter() - start
    failures = []
    for gamma, row in zip(GAMMA_GRID, rows):
        ref = reference[round(gamma, 1)]
        for j, (got, want) in enumerate(zip(row.x_star, ref[:3]), start=1):
            if abs(got - want) > X_TOL:
                failures.append(
                    f"gamma={gamma:.1f}: x{j} = {got:.4f}, exact {want:.4f} "
                    f"(|diff| = {abs(got - want):.2e} > {X_TOL})"
                )
        for j, (got, want) in enumerate(zip(row.delta_star, ref[3:7]), start=1):
            if abs(got - want) > DELTA_TOL:
                failures.append(
                    f"gamma={gamma:.1f}: delta{j} = {got:.4f}, exact {want:.4f}"
                )
        if abs(row.expected_objective - ref[7]) > OBJECTIVE_TOL:
            failures.append(
                f"gamma={gamma:.1f}: objective = {row.expected_objective:.4f}, "
                f"exact {ref[7]:.4f} "
                f"(|diff| = {abs(row.expected_objective - ref[7]):.2e} > {OBJECTIVE_TOL})"
            )
    if runtime >= 1.0:
        failures.append(f"sweep runtime {runtime:.3f} s >= 1 s")
    return failures, runtime


def test_criterion_1_triangular_table_reproduction():
    failures, runtime = _table_failures(
        _load("triangular_case.json"), exact_table("triangular")
    )
    _report(
        1,
        "triangular benchmark sweep matches the exact table "
        f"(x {X_TOL}, delta {DELTA_TOL}, objective {OBJECTIVE_TOL})",
        failures,
        runtime,
    )


def test_criterion_2_trapezoidal_table_reproduction():
    failures, runtime = _table_failures(
        _load("trapezoidal_case.json"), exact_table("trapezoidal")
    )
    _report(
        2,
        "trapezoidal benchmark sweep matches the exact table "
        f"(x {X_TOL}, delta {DELTA_TOL}, objective {OBJECTIVE_TOL})",
        failures,
        runtime,
    )


def test_criterion_3_expected_coefficient_reproduction():
    failures = []
    for label, coefficients in (
        ("triangular", TRIANGULAR_COEFFICIENTS),
        ("trapezoidal", TRAPEZOIDAL_COEFFICIENTS),
    ):
        for (key, (params, tl, tr)), want in zip(
            list(coefficients.items())[:3], exact_betas(label)
        ):
            tf = TwoFoldVariable(label, params, tl, tr)
            reduced = reduce_twofold(tf, ReductionCriterion.expected())
            analytic = expected_value(reduced, "analytic")
            simpson = expected_value(reduced, "simpson")
            if abs(analytic - simpson) > INTERNAL_AGREEMENT_TOL:
                failures.append(
                    f"{label} {key}: analytic {analytic:.12f} vs simpson "
                    f"{simpson:.12f} disagree beyond {INTERNAL_AGREEMENT_TOL}"
                )
            if abs(analytic - want) > BETA_TOL:
                failures.append(
                    f"{label} {key}: expected coefficient {analytic:.6f}, "
                    f"exact {want:.6f} (|diff| = {abs(analytic - want):.2e} > {BETA_TOL})"
                )
    _report(
        3,
        "expected coefficients of both benchmarks match the exact "
        f"values within {BETA_TOL}, analytic and Simpson paths within "
        f"{INTERNAL_AGREEMENT_TOL}",
        failures,
    )


def test_criterion_4_closed_form_equivalence_suite():
    rng = np.random.default_rng(404)
    failures = []
    families = {
        "linear": (2, LinearDistribution),
        "triangular": (3, TriangularDistribution),
        "trapezoidal": (4, TrapezoidalDistribution),
    }
    for name, (n_params, cls) in families.items():
        for i in range(100):
            while True:
                pts = np.sort(rng.uniform(-10.0, 10.0, size=n_params))
                if np.min(np.diff(pts)) > 1e-2:
                    break
            ud = cls(*pts)
            pw = ud.to_piecewise()
            alpha = float(rng.uniform(0.01, 0.99))
            checks = [
                ("optimistic", critical_value(ud, ReductionCriterion.optimistic(alpha)),
                 pw.inverse(1 - alpha)),
                ("pessimistic", critical_value(ud, ReductionCriterion.pessimistic(alpha)),
                 pw.inverse(alpha)),
                ("expected", critical_value(ud, ReductionCriterion.expected()),
                 pw.expected_by_quadrature()),
            ]
            for kind, closed, generic in checks:
                if abs(closed - generic) > 1e-8:
                    failures.append(
                        f"{name} draw {i} {kind}: closed {closed:.12f} vs "
                        f"generic {generic:.12f}"
                    )
            if name == "triangular":
                mean = critical_value(ud, ReductionCriterion.expected())
                if abs(mean - float(np.sum(pts) / 3)) > 1e-10:
                    failures.append(f"triangular draw {i}: mean {mean} vs (a+b+c)/3")
    _report(
        4,
        "closed-form critical values agree with the generic inverse/"
        "quadrature paths (100 draws per family, 1e-8; triangular mean 1e-10)",
        failures,
    )


def test_criterion_5_reduction_identity_suite():
    rng = np.random.default_rng(505)
    failures = []
    for i in range(200):
        family = ("triangular", "trapezoidal")[i % 2]
        n_params = 3 if family == "triangular" else 4
        while True:
            pts = np.sort(rng.uniform(-10.0, 10.0, size=n_params))
            if np.min(np.diff(pts)) > 1e-2:
                break
        tl, tr = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        alpha = float(rng.uniform(0.01, 0.99))
        tf = TwoFoldVariable(family, tuple(pts), tl, tr)
        grid = np.linspace(pts[0] - 0.5, pts[-1] + 0.5, 2000)

        pess = reduce_twofold(tf, ReductionCriterion.pessimistic(alpha))
        opt = reduce_twofold(tf, ReductionCriterion.optimistic(1.0 - alpha))
        exp = reduce_twofold(tf, ReductionCriterion.expected())
        half = reduce_twofold(tf, ReductionCriterion.optimistic(0.5))

        worst_mirror = np.max(np.abs(pess.cdf(grid) - opt.cdf(grid)))
        if worst_mirror > IDENTITY_TOL:
            failures.append(f"draw {i}: pessimistic/optimistic mirror off by {worst_mirror:.2e}")
        worst_half = np.max(np.abs(exp.cdf(grid) - half.cdf(grid)))
        if worst_half > IDENTITY_TOL:
            failures.append(f"draw {i}: expected/half-optimistic off by {worst_half:.2e}")

        plain = TwoFoldVariable(family, tuple(pts), 0.0, 0.0)
        base = plain.base_distribution()
        degenerate = reduce_twofold(plain, ReductionCriterion.optimistic(alpha))
        native = np.array([base.cdf(x) for x in grid])
        worst_base = np.max(np.abs(degenerate.cdf(grid) - native))
        if worst_base > IDENTITY_TOL:
            failures.append(f"draw {i}: zero-theta reduction off base by {worst_base:.2e}")

        report = check_regularity(pess)
        if not report.passed:
            failures.append(f"draw {i}: reduced UD fails monotonicity check")
    _report(
        5,
        "reduction identities hold pointwise to 1e-12 on 2000-point grids "
        "and every reduced UD passes the monotonicity check (200 draws)",
        failures,
    )


def test_criterion_6_reference_inverse_cross_check():
    failures = []
    gammas = np.linspace(0.01, 0.99, 50)
    for family, coefficients, references in (
        ("triangular", TRIANGULAR_COEFFICIENTS, REFERENCE_INVERSES_TRIANGULAR),
        ("trapezoidal", TRAPEZOIDAL_COEFFICIENTS, REFERENCE_INVERSES_TRAPEZOIDAL),
    ):
        for key, (params, tl, tr) in coefficients.items():
            tf = TwoFoldVariable(family, params, tl, tr)
            reduced = reduce_twofold(tf, ReductionCriterion.expected())
            oracle = references[key]
            for gamma in gammas:
                got = reduced.inverse(float(gamma))
                want = oracle(float(gamma))
                if abs(got - want) > INVERSE_TOL:
                    failures.append(
                        f"{family} {key} gamma={gamma:.4f}: inverse {got:.10f} "
                        f"vs reference branch {want:.10f}"
                    )
    _report(
        6,
        "reduced inverses match the reference piecewise branch formulas at "
        f"50 levels per coefficient within {INVERSE_TOL}",
        failures,
    )


def test_criterion_7_gp_solver_oracle():
    from test_gp import AMGM_GP, random_dod0_gp

    failures = []
    amgm = solve_gp(AMGM_GP)
    if abs(amgm.dual_value - 2.0) > 1e-10:
        failures.append(f"min(x + 1/x) = {amgm.dual_value}, want 2 within 1e-10")

    rng = np.random.default_rng(707)
    for i in range(25):
        gp, sol = random_dod0_gp(rng)
        if sol.diagnostics.duality_gap_rel > 1e-6:
            failures.append(
                f"instance {i}: duality gap {sol.diagnostics.duality_gap_rel:.2e}"
            )
        oracle = grid_search_minimum(gp, np.log(np.asarray(sol.primal_x)))
        rel = abs(sol.diagnostics.primal_objective - oracle) / oracle
        if rel > 5e-3:
            failures.append(
                f"instance {i}: dual optimum {sol.diagnostics.primal_objective:.6f} "
                f"vs grid search {oracle:.6f} (rel {rel:.2e})"
            )
    _report(
        7,
        "dual-method optima match exhaustive log-space grid search within "
        "5e-3 relative on 25 random instances; gaps below 1e-6",
        failures,
    )


def test_criterion_8_monotone_objective_in_confidence():
    failures = []
    for name in ("triangular_case.json", "trapezoidal_case.json"):
        rows = sweep(_load(name), GAMMA_GRID)
        values = [r.expected_objective for r in rows]
        for a, b, gamma in zip(values, values[1:], GAMMA_GRID[1:]):
            if b < a - 1e-12:
                failures.append(
                    f"{name}: objective decreases at gamma={gamma:.1f} ({a} -> {b})"
                )
    _report(
        8,
        "expected objective is non-decreasing in the confidence level on "
        "both benchmark sweeps",
        failures,
    )
