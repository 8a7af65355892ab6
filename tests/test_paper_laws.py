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
  is optimistic(1 - a);
* translation (the beta3 - beta1 law): adding t to every parameter of a
  two-fold coefficient, thetas fixed, adds t to its reduced inverse at
  every gamma and to its expected value, under every criterion;
* sensitivity: d log f* / d log beta_i = delta*_i (GP duality), checked
  along gamma, which moves every constraint coefficient, and by scaling
  one objective coefficient.  Unlike the laws above it checks the value
  of delta*, to first order in its error;
* relaxation: if the optimum of the problem without a constraint block
  satisfies that block, it is the optimum of the full problem, with
  delta = 0 on the block.

They hold for every feasible problem, so they also guard a change of the
dual solver.  Rows that the dual Newton cannot solve after a rescaling
(finding F3 of ROADMAP item 2), and the full problems of the relaxation
law, whose slack block the Newton cannot reach (F4), are strict expected
failures.
"""

import dataclasses
import math

import numpy as np
import pytest

from ugp.chance import SweepRow, UncertainGPProblem, UncertainTerm, sweep
from ugp.cli import bundled_problem_path, load_problem
from ugp.twofold import ReductionCriterion, TwoFoldVariable, reduce_twofold

from support import bench_module

BUNDLED = ["triangular_case.json", "trapezoidal_case.json"]
CRITERIA = {
    "expected": ReductionCriterion.expected(),
    "optimistic": ReductionCriterion.optimistic(0.3),
    "pessimistic": ReductionCriterion.pessimistic(0.7),
}
GRID_199 = [round(0.005 * i, 12) for i in range(1, 200)]
GRID_9 = [round(0.1 * i, 12) for i in range(1, 10)]
GRID_19 = [round(0.05 * i, 12) for i in range(1, 20)]


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
        workloads = bench_module("workloads")
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
    workloads = bench_module("workloads")
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


@pytest.mark.parametrize("t", [5.0, 0.25, 100.0])
@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_translation_shifts_inverse_and_expected_value(criterion, t):
    for name in BUNDLED:
        _, problem = load_problem(bundled_problem_path(name))
        for block in (problem.objective, *problem.constraints):
            for term in block:
                tf = term.coefficient
                shifted = TwoFoldVariable(
                    tf.family, tuple(p + t for p in tf.params), tf.theta_l, tf.theta_r
                )
                base = reduce_twofold(tf, CRITERIA[criterion])
                moved = reduce_twofold(shifted, CRITERIA[criterion])
                tol = 1e-12 * shifted.params[-1]
                for gamma in GRID_19:
                    deviation = moved.inverse(gamma) - (base.inverse(gamma) + t)
                    assert abs(deviation) <= tol, (name, tf, gamma)
                deviation = moved.expected_value() - (base.expected_value() + t)
                assert abs(deviation) <= tol, (name, tf)


# ---------------------------------------------------------------------------
# Sensitivity: d log f* / d log beta_i = delta*_i
# ---------------------------------------------------------------------------

H = 1e-4  # step of the central differences, in gamma and in log beta
# worst measured: along gamma 4.4e-11 (bundled) and 4.9e-7 (DoD > 0),
# relative; per objective term 7.6e-12 and 8.7e-7, absolute
SENSITIVITY_TOL = {"bundled": 1e-9, "dod": 1e-5}


def kink_free(problem: UncertainGPProblem, grid, criterion) -> list[float]:
    """The gammas of grid whose [gamma - H, gamma + H] holds no piece
    boundary of a constraint coefficient's reduced inverse."""
    kinks = []
    for block in problem.constraints:
        for term in block:
            dist = reduce_twofold(term.coefficient, criterion)
            kinks.extend(dist.cdf(np.array(dist.breakpoints)))
    return [g for g in grid if not any(abs(k - g) <= H for k in kinks)]


def assert_gamma_sensitivity(problem, rows, criterion, tol) -> None:
    """Central differences of log f* along gamma against the delta*-weighted
    change of the log constraint coefficients; rows are solved at the
    kink-free gammas."""
    gammas = [row.gamma for row in rows]
    shifted = solved(problem, [g - H for g in gammas] + [g + H for g in gammas], criterion)
    inverses = [
        reduce_twofold(term.coefficient, criterion).inverse
        for block in problem.constraints
        for term in block
    ]
    n_objective = len(problem.objective)
    for row, below, above in zip(rows, shifted, shifted[len(rows):]):
        g = row.gamma
        moved = math.log(above.expected_objective / below.expected_objective) / (2 * H)
        slopes = [math.log(inv(g + H) / inv(g - H)) / (2 * H) for inv in inverses]
        predicted = float(np.dot(row.delta_star[n_objective:], slopes))
        assert abs(moved - predicted) <= tol * abs(predicted), (g, moved, predicted)


def scale_term(problem: UncertainGPProblem, j: int, c: float) -> UncertainGPProblem:
    """The problem with objective term j's parameters multiplied by c, which
    multiplies its expected value by c."""
    objective = list(problem.objective)
    tf = objective[j].coefficient
    coefficient = TwoFoldVariable(
        tf.family, tuple(c * p for p in tf.params), tf.theta_l, tf.theta_r
    )
    objective[j] = UncertainTerm(coefficient, objective[j].exponents)
    return UncertainGPProblem(tuple(objective), problem.constraints)


def assert_term_sensitivity(problem, rows, criterion, terms, tol) -> None:
    gammas = [row.gamma for row in rows]
    step = math.log1p(H) - math.log1p(-H)
    for j in terms:
        up = solved(scale_term(problem, j, 1.0 + H), gammas, criterion)
        down = solved(scale_term(problem, j, 1.0 - H), gammas, criterion)
        for row, above, below in zip(rows, up, down):
            moved = math.log(above.expected_objective / below.expected_objective) / step
            assert abs(moved - row.delta_star[j]) <= tol, (j, row.gamma)


class TestSensitivity:
    @pytest.mark.parametrize("criterion", sorted(CRITERIA))
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_problems(self, problems, name, criterion):
        problem, criterion = problems["bundled"][name], CRITERIA[criterion]
        tol = SENSITIVITY_TOL["bundled"]
        rows = solved(problem, kink_free(problem, GRID_19, criterion), criterion)
        assert len(rows) >= 17  # of 19
        assert_gamma_sensitivity(problem, rows, criterion, tol)
        rows = solved(problem, GRID_9, criterion)
        assert_term_sensitivity(problem, rows, criterion, range(len(problem.objective)), tol)

    def test_binding_problems_along_gamma(self, problems, base):
        criterion, tol = CRITERIA["expected"], SENSITIVITY_TOL["dod"]
        checked = 0
        for op, problem in problems["dod"].items():
            gammas = kink_free(problem, GRID_9, criterion)
            rows = [row for row in base["dod"][op] if row.gamma in gammas]
            assert_gamma_sensitivity(problem, rows, criterion, tol)
            checked += len(rows)
        assert checked >= 170  # of 180 rows; 179 are kink-free

    def test_binding_problems_per_objective_term(self, problems, base):
        # each term costs two sweeps, so two sampled terms per op at gamma
        # 0.2, 0.5 and 0.8
        criterion, tol = CRITERIA["expected"], SENSITIVITY_TOL["dod"]
        for op, problem in problems["dod"].items():
            rng = np.random.default_rng(op)
            terms = rng.choice(len(problem.objective), size=2, replace=False)
            rows = base["dod"][op][1::3]
            assert_term_sensitivity(problem, rows, criterion, terms, tol)


# ---------------------------------------------------------------------------
# Relaxation: a constraint block that the relaxed optimum satisfies is slack
# ---------------------------------------------------------------------------

SLACK_NEWTON = "ROADMAP item 2 (F4): the dual Newton cannot reach delta = 0 on a slack block"


@pytest.fixture(scope="module")
def slack_corpus(tmp_path_factory) -> dict:
    """Op -> (problem, criterion, rows of the problem without its slack
    block), for the slack-corpus ops of dod-sweep round 0."""
    workloads = bench_module("workloads")
    wl = workloads.DodSweep(1, tmp_path_factory.mktemp("slack"))
    corpus = {}
    for op in range(wl.round):
        if workloads.dod_shape(op)[2]:
            _, problem, criterion = wl.input(wl.key(op))
            relaxed = UncertainGPProblem(problem.objective, problem.constraints[:-1])
            corpus[op] = problem, criterion, solved(relaxed, wl.GAMMAS, criterion)
    assert len(corpus) == workloads.SLACK_CORPUS
    return corpus


def test_relaxed_optimum_satisfies_the_slack_block(slack_corpus):
    # the law's premise; the slack block comes last
    for op, (problem, criterion, rows) in slack_corpus.items():
        slack = problem.constraints[-1]
        for row in rows:
            value = sum(
                reduce_twofold(term.coefficient, criterion).inverse(row.gamma)
                * math.prod(x**e for x, e in zip(row.x_star, term.exponents))
                for term in slack
            )
            assert value < 1.0, (op, row.gamma, value)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=SLACK_NEWTON)
@pytest.mark.parametrize("op", range(4, 25, 5))  # every fifth op has a slack block
def test_relaxation_law(slack_corpus, op):
    problem, criterion, relaxed = slack_corpus[op]
    zeros = (0.0,) * len(problem.constraints[-1])
    full = sweep(problem, [row.gamma for row in relaxed], criterion)
    for row, ref in zip(full, relaxed):
        ref = dataclasses.replace(ref, delta_star=ref.delta_star + zeros)
        assert_agree(row, ref, TOL["dod"])
