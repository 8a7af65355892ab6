"""Chance-constrained pipeline: reduction, deterministic form, solves, sweeps."""

import numpy as np
import pytest

from ugp.chance import (
    ChanceConfig,
    FailedRow,
    SweepRow,
    UncertainGPProblem,
    UncertainTerm,
    deterministic_form,
    reduce_problem,
    solve_chance,
    sweep,
)
from ugp.errors import AlphaOutOfRange
from ugp.twofold import ReductionCriterion, TwoFoldVariable

from support import (
    PUBLISHED_BETAS_TRIANGULAR,
    TRAPEZOIDAL_COEFFICIENTS,
    TRIANGULAR_COEFFICIENTS,
    reduced_cdf_oracle,
    reduced_expected_oracle,
)


def benchmark_problem(coefficients, family: str) -> UncertainGPProblem:
    make = {
        "triangular": TwoFoldVariable.triangular,
        "trapezoidal": TwoFoldVariable.trapezoidal,
    }[family]
    rows = {
        "obj1": (1.0, 1.0, 0.0),
        "obj2": (0.0, 1.0, 1.0),
        "obj3": (1.0, 0.0, 1.0),
        "c1t1": (-1.0, -1.0, -1.0),
    }
    terms = {
        label: UncertainTerm(make(*params, tl, tr), rows[label])
        for label, (params, tl, tr) in coefficients.items()
    }
    return UncertainGPProblem(
        objective=(terms["obj1"], terms["obj2"], terms["obj3"]),
        constraints=((terms["c1t1"],),),
    )


TRI_PROBLEM = benchmark_problem(TRIANGULAR_COEFFICIENTS, "triangular")
TRA_PROBLEM = benchmark_problem(TRAPEZOIDAL_COEFFICIENTS, "trapezoidal")


class TestProblemValidation:
    def test_empty_objective_rejected(self):
        with pytest.raises(ValueError):
            UncertainGPProblem(objective=())

    def test_ragged_exponents_rejected(self):
        coeff = TwoFoldVariable.triangular(2, 4, 5, 0.1, 0.1)
        with pytest.raises(ValueError):
            UncertainGPProblem(
                objective=(
                    UncertainTerm(coeff, (1.0,)),
                    UncertainTerm(coeff, (1.0, 2.0)),
                )
            )

    @pytest.mark.parametrize("where", ["objective", "constraint"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponents_rejected(self, where, bad):
        # degree of difficulty 1: a term that got through would reach the
        # dual's phase-I linear program and fail the whole sweep there
        coeff = TwoFoldVariable.triangular(2, 4, 5, 0.1, 0.1)
        objective = [(1.0, 0.0), (-1.0, 0.0), (1.0, 1.0)]
        constraint = [(0.0, -1.0)]
        (objective if where == "objective" else constraint)[0] = (bad, 0.0)
        with pytest.raises(ValueError, match="posynomial exponents must be finite"):
            UncertainGPProblem(
                objective=tuple(UncertainTerm(coeff, e) for e in objective),
                constraints=(tuple(UncertainTerm(coeff, e) for e in constraint),),
            )

    def test_gamma_validation(self):
        with pytest.raises(AlphaOutOfRange):
            ChanceConfig(gamma=0.0)
        with pytest.raises(AlphaOutOfRange):
            ChanceConfig(gamma=1.0)


class TestReduceProblem:
    def test_zero_theta_reproduces_base(self):
        coeff = TwoFoldVariable.triangular(2, 4, 5, 0.0, 0.0)
        problem = UncertainGPProblem(objective=(UncertainTerm(coeff, (1.0,)),))
        reduced = reduce_problem(problem, ReductionCriterion.expected())
        base = coeff.base_distribution()
        ud, exps = reduced.objective[0]
        assert exps == (1.0,)
        xs = np.linspace(1.5, 5.5, 200)
        native = [base.cdf(x) for x in xs]
        assert ud.cdf(xs) == pytest.approx(native, abs=1e-14)

    def test_mixed_families_reduce_by_their_own_rule(self):
        tri = TwoFoldVariable.triangular(2, 4, 5, 0.3, 0.8)
        tra = TwoFoldVariable.trapezoidal(2, 4, 6, 8, 0.6, 0.2)
        problem = UncertainGPProblem(
            objective=(UncertainTerm(tri, (1.0,)), UncertainTerm(tra, (-1.0,)))
        )
        criterion = ReductionCriterion.pessimistic(0.7)
        reduced = reduce_problem(problem, criterion)
        for (ud, _), coeff in zip(reduced.objective, (tri, tra)):
            xs = np.linspace(coeff.support[0], coeff.support[1], 500)
            oracle = reduced_cdf_oracle(
                coeff.family, coeff.params, coeff.theta_l, coeff.theta_r,
                "pessimistic", 0.7, xs,
            )
            np.testing.assert_allclose(ud.cdf(xs), oracle, atol=1e-12)


class TestDeterministicForm:
    def test_triangular_expected_coefficients(self):
        reduced = reduce_problem(TRI_PROBLEM, ReductionCriterion.expected())
        gp = deterministic_form(reduced, 0.5)
        for got, reference in zip(
            gp.objective.coefficients, PUBLISHED_BETAS_TRIANGULAR
        ):
            assert got == pytest.approx(reference, abs=1e-3)

    def test_objective_coefficients_match_grid_oracle(self):
        for problem, coefficients, family in (
            (TRI_PROBLEM, TRIANGULAR_COEFFICIENTS, "triangular"),
            (TRA_PROBLEM, TRAPEZOIDAL_COEFFICIENTS, "trapezoidal"),
        ):
            reduced = reduce_problem(problem, ReductionCriterion.expected())
            gp = deterministic_form(reduced, 0.5)
            for got, label in zip(gp.objective.coefficients, ("obj1", "obj2", "obj3")):
                params, tl, tr = coefficients[label]
                oracle = reduced_expected_oracle(family, params, tl, tr)
                assert got == pytest.approx(oracle, abs=2e-9)

    def test_translation_invariance_of_expected_coefficients(self):
        # obj3 of the trapezoidal benchmark is obj1 shifted by +5 with the
        # same uncertainty degrees' spread, so the expected values differ
        # by exactly 5
        reduced = reduce_problem(TRA_PROBLEM, ReductionCriterion.expected())
        gp = deterministic_form(reduced, 0.5)
        coeffs = gp.objective.coefficients
        assert coeffs[2] - coeffs[0] == pytest.approx(5.0, abs=1e-12)

    def test_constraint_coefficient_is_reduced_inverse(self):
        reduced = reduce_problem(TRI_PROBLEM, ReductionCriterion.expected())
        for gamma in (0.1, 0.5, 0.9):
            gp = deterministic_form(reduced, gamma)
            ud, _ = reduced.constraints[0][0]
            assert gp.constraints[0].coefficients[0] == ud.inverse(gamma)

    def test_symmetric_trapezoid_with_equal_thetas(self):
        coeff = TwoFoldVariable.trapezoidal(2, 4, 6, 8, 0.35, 0.35)
        problem = UncertainGPProblem(objective=(UncertainTerm(coeff, (1.0,)),))
        reduced = reduce_problem(problem, ReductionCriterion.expected())
        gp = deterministic_form(reduced, 0.5)
        assert gp.objective.coefficients[0] == pytest.approx(5.0, abs=1e-12)

    def test_nonpositive_support_rejected(self):
        coeff = TwoFoldVariable.triangular(-1.0, 0.5, 2.0, 0.2, 0.2)
        problem = UncertainGPProblem(objective=(UncertainTerm(coeff, (1.0,)),))
        reduced = reduce_problem(problem, ReductionCriterion.expected())
        with pytest.raises(ValueError):
            deterministic_form(reduced, 0.5)

    def test_gamma_out_of_range(self):
        reduced = reduce_problem(TRI_PROBLEM, ReductionCriterion.expected())
        with pytest.raises(AlphaOutOfRange):
            deterministic_form(reduced, 1.0)


def dual_value_oracle(betas, constraint_coeff) -> float:
    """Closed form for the benchmark structure: the dual weights are
    (1/3, 1/3, 1/3, 2/3), so V = 3 (b1 b2 b3)^(1/3) * c^(2/3)."""
    return 3.0 * (betas[0] * betas[1] * betas[2]) ** (1 / 3) * constraint_coeff ** (
        2 / 3
    )


class TestSolveChance:
    def test_triangular_benchmark_row(self):
        row = solve_chance(TRI_PROBLEM, ChanceConfig(gamma=0.5))
        assert row.x_star == pytest.approx((3.063, 1.789, 1.405), abs=5e-3)
        assert row.delta_star == pytest.approx((1 / 3, 1 / 3, 1 / 3, 2 / 3), abs=1e-9)

        reduced = reduce_problem(TRI_PROBLEM, ReductionCriterion.expected())
        gp = deterministic_form(reduced, 0.5)
        oracle = dual_value_oracle(
            gp.objective.coefficients, gp.constraints[0].coefficients[0]
        )
        assert row.expected_objective == pytest.approx(oracle, rel=1e-9)

    def test_constraint_active_at_solution(self):
        reduced = reduce_problem(TRI_PROBLEM, ReductionCriterion.expected())
        for gamma in (0.1, 0.5, 0.9):
            row = solve_chance(TRI_PROBLEM, ChanceConfig(gamma=gamma))
            ud, _ = reduced.constraints[0][0]
            assert np.prod(row.x_star) == pytest.approx(ud.inverse(gamma), abs=1e-8)

    def test_unconstrained_amgm_through_pipeline(self):
        # coefficients collapse to exactly 1, so the program is x + 1/x
        coeff = TwoFoldVariable.triangular(0.5, 1.0, 1.5, 0.0, 0.0)
        problem = UncertainGPProblem(
            objective=(
                UncertainTerm(coeff, (1.0,)),
                UncertainTerm(coeff, (-1.0,)),
            )
        )
        row = solve_chance(problem, ChanceConfig(gamma=0.5))
        assert row.x_star[0] == pytest.approx(1.0, abs=1e-10)
        assert row.expected_objective == pytest.approx(2.0, abs=1e-10)


class TestSweep:
    def test_nine_rows_in_order(self):
        gammas = [round(0.1 * i, 12) for i in range(1, 10)]
        rows = sweep(TRI_PROBLEM, gammas)
        assert len(rows) == 9
        assert all(isinstance(r, SweepRow) for r in rows)
        assert [r.gamma for r in rows] == gammas

    def test_empty_grid(self):
        assert sweep(TRI_PROBLEM, []) == []

    def test_expected_objective_monotone_in_gamma(self):
        for problem in (TRI_PROBLEM, TRA_PROBLEM):
            rows = sweep(problem, [round(0.1 * i, 12) for i in range(1, 10)])
            values = [r.expected_objective for r in rows]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_objective_coefficients_identical_across_rows(self):
        reduced = reduce_problem(TRI_PROBLEM, ReductionCriterion.expected())
        first = deterministic_form(reduced, 0.2).objective.coefficients
        second = deterministic_form(reduced, 0.8).objective.coefficients
        assert first == second

    def test_failed_rows_do_not_abort(self):
        rows = sweep(TRI_PROBLEM, [0.5, 1.5, 0.7])
        assert isinstance(rows[0], SweepRow)
        assert isinstance(rows[1], FailedRow)
        assert rows[1].error == "AlphaOutOfRange"
        assert isinstance(rows[2], SweepRow)

    def test_determinism(self):
        gammas = [0.25, 0.5, 0.75]
        first = sweep(TRI_PROBLEM, gammas)
        second = sweep(TRI_PROBLEM, gammas)
        assert first == second

    def test_criterion_propagates(self):
        rows_opt = sweep(TRI_PROBLEM, [0.5], ReductionCriterion.optimistic(0.5))
        rows_exp = sweep(TRI_PROBLEM, [0.5], ReductionCriterion.expected())
        assert rows_opt[0].expected_objective == pytest.approx(
            rows_exp[0].expected_objective, rel=1e-12
        )
