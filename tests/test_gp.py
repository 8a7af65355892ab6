"""Posynomial GP dual method: construction, solving, recovery, verification."""

from dataclasses import replace

import numpy as np
import pytest

from ugp.errors import (
    DegreeOfDifficultyNegative,
    InfeasibleDual,
    RankDeficient,
)
from ugp.gp import (
    DeterministicGP,
    DualStructure,
    Posynomial,
    build_dual,
    degree_of_difficulty,
    solve_gp,
    verify_solution,
)

from support import grid_search_minimum

# Structure of the bundled benchmark: three 2-variable products in the
# objective, one reciprocal-product constraint.
BENCH_EXPONENTS = ((1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0))
BENCH_CONSTRAINT = ((-1.0, -1.0, -1.0),)


def bench_gp(betas=(18.252, 39.804, 23.252), constraint_coeff=7.6997):
    return DeterministicGP(
        objective=Posynomial(tuple(betas), BENCH_EXPONENTS),
        constraints=(Posynomial((constraint_coeff,), BENCH_CONSTRAINT),),
    )


AMGM_GP = DeterministicGP(Posynomial((1.0, 1.0), ((1.0,), (-1.0,))))


class TestPosynomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            Posynomial((), ())
        with pytest.raises(ValueError):
            Posynomial((1.0, -1.0), ((1.0,), (2.0,)))
        with pytest.raises(ValueError):
            Posynomial((1.0, 1.0), ((1.0,), (1.0, 2.0)))
        with pytest.raises(ValueError):
            Posynomial((1.0,), ((1.0,), (2.0,)))

    def test_value(self):
        posy = Posynomial((2.0, 3.0), ((1.0, 0.0), (0.0, 2.0)))
        assert posy.value((2.0, 3.0)) == pytest.approx(2 * 2 + 3 * 9)

    def test_gp_variable_count_consistency(self):
        with pytest.raises(ValueError):
            DeterministicGP(
                objective=Posynomial((1.0,), ((1.0, 2.0),)),
                constraints=(Posynomial((1.0,), ((1.0,),)),),
            )


class TestDegreeOfDifficulty:
    def test_benchmark_is_zero(self):
        assert degree_of_difficulty(bench_gp()) == 0

    def test_single_term_no_variables(self):
        gp = DeterministicGP(Posynomial((3.0,), ((),)))
        assert degree_of_difficulty(gp) == 0

    def test_six_terms_three_variables(self):
        exps = tuple((float(i), float(i % 2), 1.0) for i in range(6))
        gp = DeterministicGP(Posynomial((1.0,) * 6, exps))
        assert degree_of_difficulty(gp) == 2


class TestBuildDual:
    def test_benchmark_conditions(self):
        dual = build_dual(bench_gp())
        structure = DualStructure.of(dual)
        A, rhs = structure.A, structure.rhs
        np.testing.assert_allclose(
            A,
            [
                [1.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 1.0, -1.0],
                [1.0, 1.0, 0.0, -1.0],
                [0.0, 1.0, 1.0, -1.0],
            ],
        )
        np.testing.assert_allclose(rhs, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(dual.term_blocks, [0, 0, 0, 1])

    def test_single_term_objective(self):
        structure = DualStructure.of(
            build_dual(DeterministicGP(Posynomial((4.2,), ((),))))
        )
        A, rhs = structure.A, structure.rhs
        np.testing.assert_allclose(A, [[1.0]])
        np.testing.assert_allclose(rhs, [1.0])

    def test_two_term_one_variable(self):
        A = DualStructure.of(build_dual(AMGM_GP)).A
        np.testing.assert_allclose(A, [[1.0, 1.0], [1.0, -1.0]])


class TestSolveDual:
    def test_benchmark_weights(self):
        sol = solve_gp(bench_gp())
        np.testing.assert_allclose(sol.delta, [1 / 3, 1 / 3, 1 / 3, 2 / 3], atol=1e-10)
        assert sol.lam[0] == 1.0
        assert sol.lam[1] == pytest.approx(2 / 3, abs=1e-10)

    def test_single_term(self):
        sol = solve_gp(DeterministicGP(Posynomial((4.2,), ((),))))
        assert sol.delta == (1.0,)
        assert sol.dual_value == pytest.approx(4.2, abs=1e-12)

    def test_amgm(self):
        sol = solve_gp(AMGM_GP)
        np.testing.assert_allclose(sol.delta, [0.5, 0.5], atol=1e-12)
        assert sol.dual_value == pytest.approx(2.0, abs=1e-12)

    def test_negative_exact_solution_is_infeasible(self):
        # conditions force delta = (2, -1)
        gp = DeterministicGP(Posynomial((1.0, 1.0), ((1.0,), (2.0,))))
        with pytest.raises(InfeasibleDual):
            solve_gp(gp)

    def test_too_few_terms_rejected(self):
        gp = DeterministicGP(Posynomial((1.0,), ((1.0,),)))
        with pytest.raises(DegreeOfDifficultyNegative):
            solve_gp(gp)

    def test_contradictory_conditions_infeasible(self):
        # x + 2x: orthogonality needs delta1 + delta2 = 0, normality = 1
        gp = DeterministicGP(Posynomial((1.0, 2.0), ((1.0,), (1.0,))))
        with pytest.raises(InfeasibleDual):
            solve_gp(gp)

    def test_newton_path_degree_one(self):
        # min x + 1/x + 2: optimum 4 at x = 1, weights (1/4, 1/4, 1/2)
        gp = DeterministicGP(Posynomial((1.0, 1.0, 2.0), ((1.0,), (-1.0,), (0.0,))))
        sol = solve_gp(gp)
        np.testing.assert_allclose(sol.delta, [0.25, 0.25, 0.5], atol=1e-8)
        assert sol.dual_value == pytest.approx(4.0, abs=1e-8)

    def test_newton_path_constrained(self):
        # min 1/(x1 x2) s.t. 0.25 x1 + 0.25 x2 + 0.25 x1 x2 <= 1
        # degree of difficulty 0 for the conditions? N=4, n=2 -> dod 1
        gp = DeterministicGP(
            objective=Posynomial((1.0,), ((-1.0, -1.0),)),
            constraints=(
                Posynomial(
                    (0.25, 0.25, 0.25),
                    ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
                ),
            ),
        )
        sol = solve_gp(gp)
        diag = sol.diagnostics
        assert diag.duality_gap_rel <= 1e-6
        assert diag.constraint_values[0] <= 1.0 + 1e-8
        # independent grid confirmation of the optimum value
        oracle = grid_search_minimum(gp, np.log(np.asarray(sol.primal_x)))
        assert sol.dual_value == pytest.approx(oracle, rel=5e-3)

    def test_conditions_residual_small(self):
        for gp in (bench_gp(), AMGM_GP):
            sol = solve_gp(gp)
            assert sol.diagnostics.condition_residual <= 1e-10


class TestRecoverPrimal:
    def test_benchmark_point(self):
        # recovered point must make the single constraint active and
        # reproduce the dual value through the objective
        gp = bench_gp()
        sol = solve_gp(gp)
        x = np.asarray(sol.primal_x)
        assert np.prod(x) == pytest.approx(7.6997, abs=1e-9)
        assert gp.objective.value(x) == pytest.approx(sol.dual_value, rel=1e-12)

    def test_amgm_recovers_unit(self):
        sol = solve_gp(AMGM_GP)
        assert sol.primal_x[0] == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_recovery(self):
        # every term depends only on x1 * x2, so ln x cannot be pinned down
        gp = DeterministicGP(
            Posynomial((1.0, 1.0, 1.0), ((1.0, 1.0), (2.0, 2.0), (-1.0, -1.0)))
        )
        with pytest.raises(RankDeficient):
            solve_gp(gp)


class TestVerify:
    def test_amgm_gap_zero(self):
        sol = solve_gp(AMGM_GP)
        assert sol.diagnostics.duality_gap_rel <= 1e-12
        assert not sol.diagnostics.gap_exceeds

    def test_scaling_covariance(self):
        base = bench_gp()
        scale = 7.5
        scaled = DeterministicGP(
            objective=Posynomial(
                tuple(scale * c for c in base.objective.coefficients),
                base.objective.exponents,
            ),
            constraints=base.constraints,
        )
        sol_base = solve_gp(base)
        sol_scaled = solve_gp(scaled)
        np.testing.assert_allclose(sol_scaled.delta, sol_base.delta, atol=1e-12)
        assert sol_scaled.dual_value == pytest.approx(
            scale * sol_base.dual_value, rel=1e-12
        )

    def test_weak_duality_on_feasible_pairs(self):
        gp = bench_gp()
        sol = solve_gp(gp)
        dual_value = sol.dual_value
        x_star = np.asarray(sol.primal_x)
        for factor in (1.0, 1.05, 1.5, 3.0):
            x = x_star * factor  # scaling up keeps the constraint feasible
            assert gp.constraints[0].value(x) <= 1.0 + 1e-9
            assert dual_value <= gp.objective.value(x) + 1e-8 * dual_value

    def test_constraint_violation_flagged(self):
        gp = bench_gp()
        sol = solve_gp(gp)
        bad = replace(sol, primal_x=tuple(0.5 * v for v in sol.primal_x))
        diag = verify_solution(gp, bad)
        assert diag.violated_constraints == (1,)
        assert diag.gap_exceeds

    def test_rescoring_a_solution_reproduces_its_diagnostics(self):
        dod1 = DeterministicGP(Posynomial((1.0, 1.0, 2.0), ((1.0,), (-1.0,), (0.0,))))
        rng = np.random.default_rng(2024)
        cases = [(gp, solve_gp(gp)) for gp in (bench_gp(), AMGM_GP, dod1)]
        cases += [random_dod0_gp(rng) for _ in range(25)]
        for gp, sol in cases:
            diag = verify_solution(gp, sol)
            # log V is rebuilt from exp(log V), so only the stationarity
            # residual may move, by rounding
            assert replace(diag, linear_residual=0.0) == replace(
                sol.diagnostics, linear_residual=0.0
            )
            assert abs(diag.linear_residual - sol.diagnostics.linear_residual) <= 1e-12


def random_dod0_gp(rng):
    """Random feasible degree-of-difficulty-zero instance in 2-3 variables."""
    while True:
        n = int(rng.integers(2, 4))
        constrained = bool(rng.random() < 0.5)
        if constrained:
            objective = Posynomial(
                tuple(rng.uniform(0.5, 5.0, size=n)),
                tuple(tuple(rng.uniform(-2.0, 2.0, size=n)) for _ in range(n)),
            )
            constraint = Posynomial(
                (float(rng.uniform(0.2, 0.9)),),
                (tuple(rng.uniform(-2.0, 2.0, size=n)),),
            )
            gp = DeterministicGP(objective, (constraint,))
        else:
            objective = Posynomial(
                tuple(rng.uniform(0.5, 5.0, size=n + 1)),
                tuple(tuple(rng.uniform(-2.0, 2.0, size=n)) for _ in range(n + 1)),
            )
            gp = DeterministicGP(objective)
        try:
            sol = solve_gp(gp)
        except (InfeasibleDual, RankDeficient, np.linalg.LinAlgError):
            continue
        if min(sol.delta) > 1e-3 and max(map(abs, np.log(sol.primal_x))) < 4.0:
            return gp, sol


class TestGridSearchOracle:
    def test_random_instances_match_grid_search(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            gp, sol = random_dod0_gp(rng)
            assert sol.diagnostics.duality_gap_rel <= 1e-6
            oracle = grid_search_minimum(gp, np.log(np.asarray(sol.primal_x)))
            assert sol.diagnostics.primal_objective == pytest.approx(
                oracle, rel=5e-3
            )
