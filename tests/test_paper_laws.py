"""Laws of the chance-constrained GP that need no oracle.

* gamma-monotonicity: every constraint coefficient is a reduced inverse,
  nondecreasing in gamma, so the feasible set shrinks as gamma grows and
  the optimal expected objective is nondecreasing in gamma;
* objective scaling: multiplying the parameters of every objective
  coefficient by c > 0 multiplies the expected objective by c and leaves
  x* and the dual weights unchanged.

They hold for every feasible problem, so they also guard a change of the
dual solver.
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
