"""Laws of the chance-constrained GP that need no oracle.

* gamma-monotonicity: every constraint coefficient is a reduced inverse,
  nondecreasing in gamma, so the feasible set shrinks as gamma grows and
  the optimal expected objective is nondecreasing in gamma;
* objective scaling: multiplying the parameters of every objective
  coefficient by c > 0 multiplies the expected objective by c and leaves
  x* and the dual weights unchanged;
* variable rescaling: substituting x -> s*x multiplies each term's
  parameters by s**(sum of its exponents), divides x* by s and leaves the
  objective and the dual weights unchanged;
* criterion identities: expected is optimistic(1/2), and pessimistic(a)
  is optimistic(1 - a).

They hold for every feasible problem, so they also guard a change of the
dual solver.  Rows that the dual Newton cannot solve after a rescaling
(finding F3 of ROADMAP item 2) are strict expected failures.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ugp.chance import SweepRow, UncertainGPProblem, UncertainTerm, sweep
from ugp.cli import bundled_problem_path, load_problem
from ugp.twofold import ReductionCriterion, TwoFoldVariable

BENCH = Path(__file__).resolve().parents[1] / "bench"
BUNDLED = ["triangular_case.json", "trapezoidal_case.json"]
CRITERIA = {
    "expected": ReductionCriterion.expected(),
    "optimistic": ReductionCriterion.optimistic(0.3),
    "pessimistic": ReductionCriterion.pessimistic(0.7),
}
GRID_199 = [round(0.005 * i, 12) for i in range(1, 200)]
GRID_9 = [round(0.1 * i, 12) for i in range(1, 10)]


def solved(problem, gammas, criterion) -> list[SweepRow]:
    rows = sweep(problem, gammas, criterion)
    assert all(isinstance(row, SweepRow) for row in rows), rows
    return rows


def assert_nondecreasing(rows: list[SweepRow]) -> None:
    objectives = np.array([row.expected_objective for row in rows])
    steps = np.diff(objectives)
    assert np.all(steps >= 0.0), (steps.min(), int(steps.argmin()))


class TestGammaMonotonicity:
    @pytest.mark.parametrize("criterion", sorted(CRITERIA))
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_problems(self, name, criterion):
        _, problem = load_problem(bundled_problem_path(name))
        assert_nondecreasing(solved(problem, GRID_199, CRITERIA[criterion]))

    def test_binding_problems_of_positive_degree_of_difficulty(self, tmp_path):
        # dod-sweep seed 1, round 0: the binding ops (every op but each fifth)
        sys.path.insert(0, str(BENCH))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(BENCH))
        wl = workloads.DodSweep(1, tmp_path)
        binding = [i for i in range(wl.round) if not workloads.dod_shape(i)[2]]
        assert len(binding) == 20
        for i in binding:
            _, problem, criterion = wl.input(wl.key(i))
            assert_nondecreasing(solved(problem, GRID_9, criterion))


def scale_objective(problem: UncertainGPProblem, c: float) -> UncertainGPProblem:
    def scaled(term: UncertainTerm) -> UncertainTerm:
        tf = term.coefficient
        coefficient = TwoFoldVariable(
            tf.family, tuple(c * p for p in tf.params), tf.theta_l, tf.theta_r
        )
        return UncertainTerm(coefficient, term.exponents)

    return UncertainGPProblem(
        objective=tuple(map(scaled, problem.objective)),
        constraints=problem.constraints,
    )


class TestObjectiveScaling:
    @pytest.mark.parametrize("c", [1e-3, 1e3])
    @pytest.mark.parametrize("criterion", sorted(CRITERIA))
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_problems(self, name, criterion, c):
        _, problem = load_problem(bundled_problem_path(name))
        base = solved(problem, GRID_9, CRITERIA[criterion])
        rows = solved(scale_objective(problem, c), GRID_9, CRITERIA[criterion])
        for row, ref in zip(rows, base):
            assert row.delta_star == ref.delta_star
            np.testing.assert_allclose(row.x_star, ref.x_star, rtol=1e-12, atol=0)
            assert row.expected_objective == pytest.approx(
                c * ref.expected_objective, rel=1e-12, abs=0
            )


# The bundled files and the 20 binding ops of dod-sweep seed 1, round 0,
# all under the expected criterion.  Agreement bounds per input kind:
# the direct DoD-0 solve of the bundled files, the Newton at DoD > 0.
TOL = {"bundled": 1e-12, "dod": 1e-9}
ITEM_2 = "ROADMAP item 2 (F3): the dual Newton stops at 500 steps"
# (law, factor) -> (op, gamma) rows that fail with NonConvergence; the
# factors of 1e+-3 are run on these rows only, to keep the suite fast
F3_ROWS = {
    ("rescale", 1e-3): [(5, 0.5), (13, 0.1), (18, 0.5)],
    ("rescale", 1e3): [(1, 0.4), (1, 0.6), (20, 0.1)],
    ("objective", 1e-3): [(18, 0.8)],
}


@pytest.fixture(scope="module")
def problems(tmp_path_factory) -> dict:
    """Input kind -> {name: problem}."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    wl = workloads.DodSweep(1, tmp_path_factory.mktemp("dod"))
    binding = [i for i in range(wl.round) if not workloads.dod_shape(i)[2]]
    return {
        "bundled": {n: load_problem(bundled_problem_path(n))[1] for n in BUNDLED},
        "dod": {i: wl.input(wl.key(i))[1] for i in binding},
    }


@pytest.fixture(scope="module")
def base(problems) -> dict:
    """Input kind -> {name: solved rows over GRID_9, expected criterion}."""
    return {
        kind: {name: solved(p, GRID_9, CRITERIA["expected"]) for name, p in group.items()}
        for kind, group in problems.items()
    }


def rescale_variables(problem: UncertainGPProblem, s: float) -> UncertainGPProblem:
    def scaled(term: UncertainTerm) -> UncertainTerm:
        tf = term.coefficient
        factor = s ** sum(term.exponents)
        coefficient = TwoFoldVariable(
            tf.family, tuple(factor * p for p in tf.params), tf.theta_l, tf.theta_r
        )
        return UncertainTerm(coefficient, term.exponents)

    return UncertainGPProblem(
        objective=tuple(map(scaled, problem.objective)),
        constraints=tuple(tuple(map(scaled, block)) for block in problem.constraints),
    )


def assert_agree(row, ref, tol, x_factor=1.0, objective_factor=1.0) -> None:
    assert isinstance(row, SweepRow), row
    np.testing.assert_allclose(
        np.multiply(row.x_star, x_factor), ref.x_star, rtol=tol, atol=0
    )
    np.testing.assert_allclose(row.delta_star, ref.delta_star, rtol=0, atol=tol)
    assert row.expected_objective == pytest.approx(
        objective_factor * ref.expected_objective, rel=tol, abs=0
    )


class TestCriterionIdentities:
    @pytest.mark.parametrize("kind", sorted(TOL))
    def test_expected_is_optimistic_one_half(self, problems, base, kind):
        for name, problem in problems[kind].items():
            rows = sweep(problem, GRID_9, ReductionCriterion.optimistic(0.5))
            assert rows == base[kind][name], name

    # At 0.7 and 0.9, 1 - (1 - alpha) == alpha in binary, so both criteria
    # reduce to the same distributions and a DoD > 0 pass would only repeat
    # one solve; the DoD inputs run the level where the multipliers differ.
    @pytest.mark.parametrize(
        "kind, alpha",
        [("bundled", 0.3), ("bundled", 0.7), ("bundled", 0.9), ("dod", 0.3)],
    )
    def test_pessimistic_mirrors_optimistic(self, problems, kind, alpha):
        for name, problem in problems[kind].items():
            optimistic = sweep(problem, GRID_9, ReductionCriterion.optimistic(alpha))
            pessimistic = solved(
                problem, GRID_9, ReductionCriterion.pessimistic(1.0 - alpha)
            )
            for row, ref in zip(optimistic, pessimistic):
                assert_agree(row, ref, TOL[kind])


@pytest.mark.parametrize(
    "kind, s", [("bundled", 2.0), ("bundled", 1e-3), ("bundled", 1e3), ("dod", 2.0)]
)
def test_variable_rescaling(problems, base, kind, s):
    for name, problem in problems[kind].items():
        rows = sweep(rescale_variables(problem, s), GRID_9)
        for row, ref in zip(rows, base[kind][name]):
            assert_agree(row, ref, TOL[kind], x_factor=s)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2)
@pytest.mark.parametrize(
    "law, factor, op, gamma",
    [(*key, *row) for key, rows in F3_ROWS.items() for row in rows],
)
def test_badly_scaled_row_solves(problems, base, law, factor, op, gamma):
    ref = base["dod"][op][GRID_9.index(gamma)]
    if law == "rescale":
        (row,) = sweep(rescale_variables(problems["dod"][op], factor), [gamma])
        assert_agree(row, ref, TOL["dod"], x_factor=factor)
    else:
        (row,) = sweep(scale_objective(problems["dod"][op], factor), [gamma])
        assert_agree(row, ref, TOL["dod"], objective_factor=factor)
