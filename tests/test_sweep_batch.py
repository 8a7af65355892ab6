"""A sweep solves its grid as one batch: it must agree with per-gamma solves.

The dual conditions depend only on the exponents, so a sweep builds the
dual structure once and solves every confidence level against it.  These
tests pin that the batch gives the same rows, the same failures in the
same places and does the gamma-free work once.
"""

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ugp.gp
from ugp.chance import (
    FailedRow,
    SweepRow,
    UncertainGPProblem,
    UncertainTerm,
    deterministic_form,
    reduce_problem,
    solve_chance,
    sweep,
)
from ugp.cli import (
    EXIT_DOD,
    EXIT_DOMAIN,
    EXIT_NONCONVERGENCE,
    bundled_problem_path,
    load_problem,
    main,
)
from ugp.errors import NonConvergence, NumericalRangeError
from ugp.gp import DualStructure, build_dual, solve_gp
from ugp.twofold import ReductionCriterion, TwoFoldVariable

from support import grid_search_minimum


def crisp(value: float) -> TwoFoldVariable:
    """A narrow triangular coefficient around value, no second-fold spread."""
    return TwoFoldVariable.triangular(0.9 * value, value, 1.1 * value, 0.0, 0.0)


def uncertain(value: float) -> TwoFoldVariable:
    return TwoFoldVariable.triangular(0.8 * value, value, 1.3 * value, 0.4, 0.7)


def problem(objective, constraints=()) -> UncertainGPProblem:
    return UncertainGPProblem(
        objective=tuple(UncertainTerm(c, e) for c, e in objective),
        constraints=tuple(
            tuple(UncertainTerm(c, e) for c, e in block) for block in constraints
        ),
    )


# Problems on which every valid confidence level fails for the same reason.
STRUCTURAL_FAILURES = {
    # degree of difficulty 0, the conditions force delta = (2, -1)
    "infeasible_dual": problem([(crisp(1.0), (1.0,)), (crisp(1.0), (2.0,))]),
    # min x s.t. c/x + c*y <= 1: delta = (1, 1, 0) leaves y undetermined
    "rank_deficient": problem(
        [(crisp(1.0), (1.0, 0.0))],
        [[(uncertain(0.5), (-1.0, 0.0)), (uncertain(0.5), (0.0, 1.0))]],
    ),
    # one term, two variables: N < n + 1
    "too_few_terms": problem([(crisp(2.0), (1.0, 1.0))]),
    # the constraint coefficient's support reaches below zero
    "nonpositive_support": problem(
        [(crisp(1.0), (1.0,)), (crisp(1.0), (-1.0,))],
        [[(TwoFoldVariable.triangular(-1.0, 0.5, 2.0, 0.2, 0.2), (1.0,))]],
    ),
    # degree of difficulty 1 with a slack constraint: Newton stalls per row
    "slack_constraint": problem(
        [(crisp(1.0), (1.0,)), (crisp(1.0), (-1.0,))],
        [[(crisp(0.01), (1.0,))]],
    ),
    # min 1e308 (x + 1/x + 1), degree of difficulty 1: Newton must stay in
    # range although the optimum 3e308 does not
    "overflow_dod1": problem(
        [(crisp(1e308), (1.0,)), (crisp(1e308), (-1.0,)), (crisp(1e308), (0.0,))]
    ),
}

# error class and `ugp sweep` exit code of each structural failure
EXPECTED = {
    "infeasible_dual": ("InfeasibleDual", EXIT_DOMAIN),
    "rank_deficient": ("RankDeficient", EXIT_DOMAIN),
    "too_few_terms": ("DegreeOfDifficultyNegative", EXIT_DOD),
    "nonpositive_support": ("ValueError", EXIT_DOMAIN),
    "slack_constraint": ("NonConvergence", EXIT_NONCONVERGENCE),
    "overflow_dod1": ("NumericalRangeError", EXIT_DOMAIN),
}

MIXED_GRID = [0.3, 0.0, 0.5, 1.0, 1.5, math.nan, 0.7]


def per_gamma(uncertain_problem, gamma, criterion):
    """What solve_chance reports at gamma: a SweepRow or (class, message)."""
    try:
        return solve_chance(uncertain_problem, gamma, criterion)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def json_doc(uncertain_problem) -> dict:
    """The problem as a `ugp` problem file (triangular coefficients only)."""

    def term(t):
        c = t.coefficient
        return {
            "family": "tri",
            "params": list(c.params),
            "theta_l": c.theta_l,
            "theta_r": c.theta_r,
            "exponents": {f"x{j + 1}": e for j, e in enumerate(t.exponents)},
        }

    return {
        "variables": [f"x{j + 1}" for j in range(uncertain_problem.n_variables)],
        "objective": [term(t) for t in uncertain_problem.objective],
        "constraints": [
            [term(t) for t in block] for block in uncertain_problem.constraints
        ],
    }


class TestFailuresKeepTheirPlace:
    @pytest.mark.parametrize("name", sorted(STRUCTURAL_FAILURES))
    @pytest.mark.parametrize(
        "criterion",
        [ReductionCriterion.expected(), ReductionCriterion.pessimistic(0.7)],
        ids=["expected", "pessimistic"],
    )
    def test_failed_rows_match_solve_chance(self, name, criterion):
        uncertain_problem = STRUCTURAL_FAILURES[name]
        rows = sweep(uncertain_problem, MIXED_GRID, criterion)
        assert len(rows) == len(MIXED_GRID)
        for gamma, row in zip(MIXED_GRID, rows):
            assert isinstance(row, FailedRow)
            assert row.gamma is gamma
            assert (row.error, row.message) == per_gamma(
                uncertain_problem, gamma, criterion
            )
            assert (type(row.exception).__name__, str(row.exception)) == (
                row.error,
                row.message,
            )
        valid = [r for g, r in zip(MIXED_GRID, rows) if 0.0 < g < 1.0]
        assert {r.error for r in valid} == {EXPECTED[name][0]}

    def test_invalid_gammas_between_solved_rows(self):
        _, bundled = load_problem(bundled_problem_path("triangular_case.json"))
        criterion = ReductionCriterion.optimistic(0.3)
        rows = sweep(bundled, MIXED_GRID, criterion)
        for gamma, row in zip(MIXED_GRID, rows):
            expected = per_gamma(bundled, gamma, criterion)
            if isinstance(expected, SweepRow):
                assert isinstance(row, SweepRow)
                assert row.delta_star == expected.delta_star
            else:
                assert isinstance(row, FailedRow)
                assert (row.error, row.message) == expected

    def test_nonpositive_objective_support_aborts_sweep(self):
        bad = problem(
            [(TwoFoldVariable.triangular(-1.0, 0.5, 2.0, 0.2, 0.2), (1.0,)),
             (crisp(1.0), (-1.0,))]
        )
        with pytest.raises(ValueError) as from_sweep:
            sweep(bad, [0.5])
        with pytest.raises(ValueError) as from_solve:
            solve_chance(bad, 0.5)
        assert str(from_sweep.value) == str(from_solve.value)

    @pytest.mark.parametrize("name", sorted(STRUCTURAL_FAILURES))
    def test_failing_sweeps_compare_equal(self, name):
        first = sweep(STRUCTURAL_FAILURES[name], MIXED_GRID)
        second = sweep(STRUCTURAL_FAILURES[name], MIXED_GRID)
        assert all(isinstance(row, FailedRow) for row in first)
        assert first == second
        assert repr(first) == repr(second)

    @pytest.mark.parametrize("name", sorted(STRUCTURAL_FAILURES))
    def test_sweep_exit_codes(self, tmp_path, name, capsys):
        """`ugp solve` and `ugp sweep` exit alike, with one `error:` line."""
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(json_doc(STRUCTURAL_FAILURES[name])))
        out = str(tmp_path / "out.csv")
        assert main(["solve", str(path), "--gamma", "0.5"]) == EXPECTED[name][1]
        error_line = capsys.readouterr().err
        assert error_line.startswith("error: ") and error_line.count("\n") == 1
        mixed = ",".join(repr(g) for g in MIXED_GRID)
        for grid in ("0.5", "0.3,0.5", mixed):
            code = main(["sweep", str(path), "--gammas", grid, "-o", out])
            assert code == EXPECTED[name][1]
            assert capsys.readouterr().err == error_line
        comments = [
            line
            for line in Path(out).read_text(encoding="utf-8").splitlines()
            if line.startswith("#")
        ]
        assert len(comments) == len(MIXED_GRID)


class TestFailedRowCarriesItsException:
    @pytest.mark.parametrize(
        "error", [NonConvergence("pinned"), RuntimeError("pinned")]
    )
    def test_sweep_raises_the_instance_the_solve_raised(
        self, tmp_path, monkeypatch, capsys, error
    ):
        monkeypatch.setattr(
            DualStructure, "solve", lambda self, rows: [error] * len(rows)
        )
        rows = sweep(STRUCTURAL_FAILURES["slack_constraint"], [0.3, 0.5])
        assert all(row.exception is error for row in rows)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(json_doc(STRUCTURAL_FAILURES["slack_constraint"])))
        argv = ["sweep", str(path), "--gammas", "0.3,0.5", "-o", str(tmp_path / "o")]
        if isinstance(error, NonConvergence):
            assert main(argv) == EXIT_NONCONVERGENCE
            assert capsys.readouterr().err == "error: pinned\n"
        else:  # not a ugp error: a bug, which main must not turn into an exit code
            with pytest.raises(RuntimeError) as raised:
                main(argv)
            assert raised.value is error


class TestOverflow:
    OVERFLOWING = problem(
        [
            (TwoFoldVariable.triangular(1e308, 1.2e308, 1.4e308, 0.5, 0.5), (1.0,)),
            (TwoFoldVariable.triangular(1e308, 1.2e308, 1.4e308, 0.5, 0.5), (-1.0,)),
        ]
    )

    def test_solve_chance_raises(self):
        with pytest.raises(NumericalRangeError, match="overflow"):
            solve_chance(self.OVERFLOWING, 0.5)

    def test_sweep_rows_fail(self):
        rows = sweep(self.OVERFLOWING, [0.3, 0.5])
        assert [type(r) for r in rows] == [FailedRow, FailedRow]
        assert {r.error for r in rows} == {"NumericalRangeError"}
        assert all("overflow" in r.message for r in rows)


# A degree-of-difficulty-one problem: min 1/(x1 x2) s.t.
# c1 x1 + c2 x2 + c3 x1 x2 <= 1, with uncertain constraint coefficients.
DOD1_PROBLEM = problem(
    [(crisp(1.0), (-1.0, -1.0))],
    [[(uncertain(0.25), (1.0, 0.0)), (uncertain(0.25), (0.0, 1.0)),
      (uncertain(0.25), (1.0, 1.0))]],
)


class TestWorkOncePerSweep:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name):
            original = getattr(ugp.gp, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(ugp.gp, name, wrapper)

        counting("linprog")
        counting("null_space")
        return counts

    def test_newton_start_computed_once(self, calls):
        rows = sweep(DOD1_PROBLEM, [0.2, 0.4, 0.6, 0.8])
        assert all(isinstance(r, SweepRow) for r in rows)
        assert calls == {"linprog": 1, "null_space": 1}

    def test_degree_zero_sweep_needs_neither(self, calls):
        _, bundled = load_problem(bundled_problem_path("trapezoidal_case.json"))
        rows = sweep(bundled, [round(0.1 * i, 12) for i in range(1, 10)])
        assert all(isinstance(r, SweepRow) for r in rows)
        assert calls == {}

    def test_invalid_gammas_only_need_neither(self, calls):
        rows = sweep(DOD1_PROBLEM, [0.0, 1.0])
        assert all(isinstance(r, FailedRow) for r in rows)
        assert calls == {}


def newton_problem(seed: int, dod: int, slack: bool) -> UncertainGPProblem:
    """A seeded problem of degree of difficulty ``dod`` on the Newton path.

    Every variable has a positive objective exponent and a ``c_j / x_j``
    term in the binding block, so x* is bounded; with ``slack`` a block
    ``c x_j <= 1`` with c near 1e-4 is added, which stays far below one
    at x*.
    """
    rng = np.random.default_rng([seed, dod])
    n = int(rng.integers(2, 7))
    n_obj = dod + 1 - int(slack)
    objective = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], (n_obj, n))
    for j in np.flatnonzero(~(objective > 0).any(axis=0)):
        objective[j % n_obj, j] = 1.0

    def terms(rows, low, high):
        out = []
        for row in rows:
            value = float(np.exp(rng.uniform(np.log(low), np.log(high))))
            theta_l, theta_r = (float(t) for t in rng.uniform(0.1, 0.9, 2))
            coefficient = TwoFoldVariable.triangular(
                0.8 * value, value, 1.3 * value, theta_l, theta_r
            )
            out.append(UncertainTerm(coefficient, tuple(float(e) for e in row)))
        return tuple(out)

    blocks = [terms(-np.eye(n), 0.5, 5.0)]
    if slack:
        blocks.append(terms(np.eye(n)[[int(rng.integers(n))]], 1e-4, 2e-4))
    return UncertainGPProblem(
        objective=terms(objective, 1.0, 20.0), constraints=tuple(blocks)
    )


# The slack, higher-difficulty and infeasible probes of the dual Newton
# path, as crisp problems: min x + 1/x s.t. 0.01 x <= 1; min x + y s.t.
# 1/(xy) <= 1, 0.001 x <= 1; the same with a term xy in the objective
# (degree of difficulty 2); min x + 1/x s.t. 2 <= 1; min x + 1/x s.t.
# x + 1/x <= 1.
NEWTON_PROBES = [
    problem([(crisp(1.0), (1.0,)), (crisp(1.0), (-1.0,))], [[(crisp(0.01), (1.0,))]]),
    problem(
        [(crisp(1.0), (1.0, 0.0)), (crisp(1.0), (0.0, 1.0))],
        [[(crisp(1.0), (-1.0, -1.0))], [(crisp(0.001), (1.0, 0.0))]],
    ),
    problem(
        [(crisp(1.0), (1.0, 0.0)), (crisp(1.0), (0.0, 1.0)), (crisp(1.0), (1.0, 1.0))],
        [[(crisp(1.0), (-1.0, -1.0))], [(crisp(0.001), (1.0, 0.0))]],
    ),
    problem([(crisp(1.0), (1.0,)), (crisp(1.0), (-1.0,))], [[(crisp(2.0), (0.0,))]]),
    problem(
        [(crisp(1.0), (1.0,)), (crisp(1.0), (-1.0,))],
        [[(crisp(1.0), (1.0,)), (crisp(1.0), (-1.0,))]],
    ),
]
NEWTON_SWEEPS = (
    [(newton_problem(7, dod, False), [0.25, 0.75]) for dod in range(1, 41, 3)]
    + [(newton_problem(7, dod, True), [0.25, 0.75]) for dod in (1, 13, 40)]
    + [(probe, [0.5]) for probe in NEWTON_PROBES]
)


class TestNewtonPathIsPinned:
    """Every output, failure and log V evaluation of the Newton path, pinned
    so that a change to the line search cannot move the iterates."""

    # sha256 of the reprs of every row (SweepRow fields with diagnostics,
    # FailedRow class and message) of NEWTON_SWEEPS, in order
    DIGEST = "f16150564e423e8bb79539211ad0409d0d42e32cfd7d07ed9f59ecd6efc02c1c"
    # DualProblem.log_value calls of each Newton solve, in solve order
    LOG_VALUE_CALLS = [
        42, 5, 6, 6, 8, 8, 312, 12, 9, 10, 11, 11, 10, 10,  # binding, DoD 1-40
        10, 11, 9, 10, 13, 14, 14, 13, 18, 18, 14, 14, 13, 12,
        104, 99, 88, 94, 104, 97,  # slack, DoD 1, 13, 40
        112, 100, 94, 501, 501,  # the probes
    ]

    def test_outputs_and_log_value_calls(self, monkeypatch):
        solves: list[list] = []  # [problem, call count] per Newton solve
        weights_in_domain: list[bool] = []
        original = ugp.gp.DualProblem.log_value

        def counting(self, delta):
            if not solves or solves[-1][0] is not self:
                solves.append([self, 0])
            solves[-1][1] += 1
            weights_in_domain.append(bool(np.all(delta > 1e-300)))
            return original(self, delta)

        monkeypatch.setattr(ugp.gp.DualProblem, "log_value", counting)
        text = "\n".join(
            repr(row)
            for uncertain_problem, gammas in NEWTON_SWEEPS
            for row in sweep(uncertain_problem, gammas)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
        assert [count for _, count in solves] == self.LOG_VALUE_CALLS
        assert weights_in_domain and all(weights_in_domain)

    def test_reported_lambda_and_dual_value_are_those_of_delta(self):
        # the block totals and V the Newton maximized, not another sum of
        # the same weights
        solved = 0
        for uncertain_problem, gammas in NEWTON_SWEEPS:
            reduced = reduce_problem(uncertain_problem, ReductionCriterion.expected())
            for gamma in gammas:
                gp = deterministic_form(reduced, gamma)
                try:
                    sol = solve_gp(gp)
                except (ValueError, RuntimeError):
                    continue
                solved += 1
                dual = build_dual(gp)
                delta = np.array(sol.delta)
                lam = dual.block_totals(delta)[1:]
                assert np.array(sol.lam[1:]).tobytes() == lam.tobytes()
                value = math.exp(dual.log_value(delta))
                assert abs(sol.dual_value - value) <= 2 * math.ulp(value)
        assert solved == 28


CRITERIA = {
    "expected": ReductionCriterion.expected(),
    "optimistic": ReductionCriterion.optimistic(0.3),
    "pessimistic": ReductionCriterion.pessimistic(0.7),
}
GRID_99 = [round(0.01 * i, 12) for i in range(1, 100)]


def assert_rows_agree(row, reference):
    assert isinstance(row, SweepRow)
    assert row.gamma == reference.gamma
    assert row.delta_star == reference.delta_star
    assert row.diagnostics.primal_objective == row.expected_objective
    assert not row.diagnostics.gap_exceeds
    np.testing.assert_allclose(row.x_star, reference.x_star, rtol=1e-12, atol=0)
    assert row.expected_objective == pytest.approx(
        reference.expected_objective, rel=1e-12, abs=0
    )


class TestBatchAgreesWithPerGammaSolves:
    @pytest.mark.parametrize("criterion", sorted(CRITERIA))
    @pytest.mark.parametrize(
        "name", ["triangular_case.json", "trapezoidal_case.json"]
    )
    def test_bundled_99_point_grid(self, name, criterion):
        _, bundled = load_problem(bundled_problem_path(name))
        rows = sweep(bundled, GRID_99, CRITERIA[criterion])
        for gamma, row in zip(GRID_99, rows):
            reference = solve_chance(bundled, gamma, CRITERIA[criterion])
            assert_rows_agree(row, reference)

    def test_newton_rows(self):
        gammas = [0.15, 0.5, 0.85]
        rows = sweep(DOD1_PROBLEM, gammas)
        for gamma, row in zip(gammas, rows):
            assert_rows_agree(row, solve_chance(DOD1_PROBLEM, gamma))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_degree_zero_problems(self, data):
        uncertain_problem = data.draw(dod0_problems())
        gammas = data.draw(
            st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4, unique=True)
        )
        criterion = ReductionCriterion.expected()
        reduced = reduce_problem(uncertain_problem, criterion)
        rows = sweep(uncertain_problem, gammas, criterion)
        for gamma, row in zip(gammas, rows):
            gp = deterministic_form(reduced, gamma)
            solution = solve_gp(gp)
            reference = SweepRow(
                gamma,
                solution.primal_x,
                solution.delta,
                solution.diagnostics.primal_objective,
                solution.diagnostics,
            )
            assert_rows_agree(row, reference)
            # x* sits on the grid, so the grid minimum can only match or beat it
            oracle = grid_search_minimum(gp, np.log(row.x_star))
            assert oracle == pytest.approx(row.expected_objective, rel=1e-9)


@st.composite
def dod0_problems(draw):
    """Random feasible degree-of-difficulty-zero problems in 1-3 variables.

    The dual weights are drawn first (all positive) and the exponent
    columns are projected onto their orthogonal complement, so the dual
    conditions hold exactly at those weights; the coefficients, drawn
    across 1e-6 .. 1e6, then do not change the weights.  Ill-conditioned
    draws are discarded.
    """
    n = draw(st.integers(1, 3))
    n_terms = n + 1
    n_blocks = draw(st.integers(1, min(3, n)))
    cuts = draw(
        st.lists(
            st.integers(1, n_terms - 1),
            min_size=n_blocks,
            max_size=n_blocks,
            unique=True,
        )
    )
    sizes = np.diff([0, *sorted(cuts), n_terms])
    floats = st.floats(-2.0, 2.0)
    exponents = np.array(
        draw(
            st.lists(
                st.lists(floats, min_size=n, max_size=n),
                min_size=n_terms,
                max_size=n_terms,
            )
        )
    )
    weights = np.array(
        draw(st.lists(st.floats(0.2, 1.0), min_size=n_terms, max_size=n_terms))
    )
    exponents -= np.outer(weights, weights @ exponents) / (weights @ weights)
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    conditions = np.vstack([(blocks == 0).astype(float), exponents.T])
    assume(np.linalg.cond(conditions) < 1e4)
    # keeps |log x*| within a few dozen, so x* and the grid stay in range
    assume(np.linalg.svd(exponents, compute_uv=False).min() > 0.5)
    log10 = draw(
        st.lists(st.floats(-6.0, 6.0), min_size=n_terms, max_size=n_terms)
    )
    theta = st.floats(0.0, 1.0)
    terms = [
        UncertainTerm(
            TwoFoldVariable.triangular(
                0.9 * 10.0**e, 10.0**e, 1.2 * 10.0**e, draw(theta), draw(theta)
            ),
            tuple(float(v) for v in row),
        )
        for e, row in zip(log10, exponents)
    ]
    starts = np.cumsum([0, *sizes])
    return UncertainGPProblem(
        objective=tuple(terms[: sizes[0]]),
        constraints=tuple(
            tuple(terms[a:b]) for a, b in zip(starts[1:-1], starts[2:])
        ),
    )
