"""Posynomial GP dual method: construction, solving, recovery, verification."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugp.errors import (
    DegreeOfDifficultyNegative,
    InfeasibleDual,
    RankDeficient,
)
from ugp.gp import (
    DeterministicGP,
    _first_halving,
    DualProblem,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="posynomial coefficients must be finite"):
            Posynomial((1.0, bad), ((1.0,), (-1.0,)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_exponent_rejected(self, bad):
        # x**inf + 1/x used to solve to a wrong x* = 1 with gap 1
        with pytest.raises(ValueError, match="posynomial exponents must be finite"):
            Posynomial((1.0, 1.0), ((bad,), (-1.0,)))

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
        structure = build_dual(bench_gp()).structure
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
        np.testing.assert_array_equal(structure.term_blocks, [0, 0, 0, 1])

    def test_single_term_objective(self):
        structure = build_dual(DeterministicGP(Posynomial((4.2,), ((),)))).structure
        A, rhs = structure.A, structure.rhs
        np.testing.assert_allclose(A, [[1.0]])
        np.testing.assert_allclose(rhs, [1.0])

    def test_two_term_one_variable(self):
        A = build_dual(AMGM_GP).structure.A
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

    def test_zero_forced_weights_are_infeasible(self):
        # min 1/x + x + y + xy: y-orthogonality forces the weights of y and
        # xy to 0, so no dual point is strictly positive (DoD 1)
        gp = DeterministicGP(
            Posynomial((1.0,) * 4, ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
        )
        with pytest.raises(InfeasibleDual, match="admit no strictly positive solution"):
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


FLOOR = 1e-300  # the line search keeps every weight above this


def halving_search(delta, direction, k0=0):
    """Backtracking as the Newton line search runs it, from tau = 2**-k0:
    the first (k, tau) with k < 200 whose step keeps every weight above the
    floor, or None for a stalled search."""
    tau = math.ldexp(1.0, -k0)
    with np.errstate(all="ignore"):
        for k in range(k0, 200):
            if np.all(delta + tau * direction > FLOOR):
                return k, tau
            tau *= 0.5
    return None


def ulp_neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def adversarial_cases():
    one = np.array([1.0])
    # all weights rise or stay
    yield np.array([0.5, 2.0, 1e-3]), np.array([0.0, 1.0, 3.0])
    yield np.array([0.5, 2.0]), np.array([np.inf, 0.0])
    # ratios exactly 2**-j and their neighbouring doubles, through delta
    # and through the direction; -nextafter(2**j, 0) puts the first
    # feasible step exactly at tau = r
    for j in range(0, 64):
        for d in ulp_neighbours(2.0**j):
            yield one, np.array([-d])
            yield np.array([0.7, 1.0]), np.array([3.0, -d])
        for x in ulp_neighbours(2.0**-j + FLOOR):
            yield np.array([x]), np.array([-1.0])
        for x in ulp_neighbours(0.75 * 2.0**-j):
            yield np.array([x, 1.0]), np.array([-0.75, -2.0**j])
    for j in (0, 1, 10, 199):  # see test_ratio_rounded_onto_a_power_of_two
        for x in ulp_neighbours(2.0**-944):
            yield np.array([x, 1.0]), np.array([-math.ldexp(1.0, j - 944), -0.5])
    # a weight one ulp above the floor, falling, rising or held
    tight = np.nextafter(FLOOR, 1.0)
    for d in (-1.0, -1e-300, -1e-316, 0.0, 1.0, -np.inf):
        yield np.array([tight, 1.0]), np.array([d, -1.0])
        yield np.array([tight, FLOOR * 2.0]), np.array([d, -FLOOR])
    # signed zeros, infinities and NaN in the direction
    for d in (
        [-0.0, -0.0],
        [-0.0, -1.0],
        [np.inf, -1.0],
        [-np.inf, 1.0],
        [np.nan, -1.0],
        [np.nan, np.nan],
        [np.nan, -np.inf],
    ):
        yield np.array([1.0, 0.25]), np.array(d)
    # magnitudes of 1e+-300 in both
    big = (1e300, -1e300, 1e-300, -1e-300)
    for a in (1e300, 1e-299, 1.0):
        for d in big:
            yield np.array([a, 0.5]), np.array([d, -1.0])
            yield np.array([a]), np.array([d])
    # weights at or below the floor, as an out-of-domain start could have
    yield np.array([0.0, 1.0]), np.array([1.0, -1.0])
    yield np.array([FLOOR, 1.0]), np.array([-1.0, -1.0])
    yield np.array([-1e-9, 1.0]), np.array([1e-3, -0.5])
    # the first feasible step lies at k >= 200: the search stalls
    for j in (199, 200, 201, 250, 1000):
        yield one, np.array([-math.ldexp(1.0, j)])
    yield np.array([2.0 * FLOOR]), np.array([-1e300])


def random_cases(rng, count):
    for _ in range(count):
        size = int(rng.integers(1, 9))
        delta = np.exp(rng.uniform(math.log(1e-299), math.log(1e3), size))
        direction = rng.normal(size=size) * 10.0 ** rng.uniform(-5.0, 5.0, size)
        yield delta, direction


class TestFirstHalving:
    """The closed-form start of the Newton line search against plain halving."""

    @staticmethod
    def check(delta, direction):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k0 = _first_halving(delta, direction)
        assert isinstance(k0, int) and k0 >= 0
        brute = halving_search(delta, direction)
        if brute is not None:
            assert k0 <= brute[0]
        assert halving_search(delta, direction, k0) == brute
        return k0, brute

    def test_adversarial_cases(self):
        for delta, direction in adversarial_cases():
            self.check(delta, direction)

    def test_ratio_rounded_onto_a_power_of_two(self):
        # delta - floor = 2**-944 + 0.49e-300 rounds down to 2**-944, so r
        # is exactly 2**-j although the step tau = 2**-j already leaves
        # 2**-996 = 1.49e-300 > floor: the first feasible k is
        # floor(-log2 r), one less than exact arithmetic on r gives
        for j in range(200):
            delta = np.array([np.nextafter(2.0**-944, 1.0)])
            k0, brute = self.check(delta, np.array([-math.ldexp(1.0, j - 944)]))
            assert k0 == brute[0] == j

    def test_random_cases_start_at_most_two_steps_early(self):
        rng = np.random.default_rng(12)
        for delta, direction in random_cases(rng, 600):
            k0, brute = self.check(delta, direction)
            if brute is not None:
                assert brute[0] - k0 <= 2


# weights across the whole double range: subnormals, 1e+-300, signed
# zeros, infinities and NaN
WEIGHTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300, 0.0, -0.0, math.nan]
    ),
)


@st.composite
def blocks_and_weights(draw):
    """Unsorted block labels 0..K (some blocks empty) and 1-3 rows of one
    weight each."""
    n_terms = draw(st.integers(1, 60))
    k = draw(st.integers(0, 8))
    blocks = draw(st.lists(st.integers(0, k), min_size=n_terms, max_size=n_terms))
    row = st.lists(WEIGHTS, min_size=n_terms, max_size=n_terms)
    return blocks, draw(st.lists(row, min_size=1, max_size=3))


class TestExactness:
    """The Newton step's array idioms against the arithmetic they replace,
    compared bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=blocks_and_weights())
    def test_block_totals_add_each_block_in_term_order(self, data):
        blocks, rows = data
        structure = DualStructure(np.zeros((len(blocks), 0)), np.array(blocks))
        dual = DualProblem(np.ones(len(blocks)), structure)
        expected = []
        for weights in rows:
            totals = [0.0] * (max(blocks) + 1)
            for block, weight in zip(blocks, weights):
                totals[block] += weight
            expected.append(totals)
        with np.errstate(all="ignore"):
            one_row = [dual.block_totals(np.array(weights)) for weights in rows]
            batched = structure._block_sums(np.array(rows))
        assert np.array(one_row).tobytes() == np.array(expected).tobytes()
        assert batched.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_block_mask_over_lambda_matches_membership_matmul(self, data):
        blocks = np.array(data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=60)))
        k = int(blocks.max())
        totals = np.array(
            data.draw(st.lists(st.floats(1e-300, 1e300), min_size=k + 1, max_size=k + 1))
        )
        members = (blocks[:, None] == np.arange(1, k + 1)).astype(float)
        expected = (members / totals[1:]) @ members.T
        # the block part DualStructure._newton gives its Hessian
        same_block = ((blocks[:, None] == blocks) & (blocks > 0)).astype(float)
        assert (same_block / totals[blocks]).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_in_place_diagonal_matches_subtracting_diag(self, data):
        n = data.draw(st.integers(1, 8))
        entries = data.draw(st.lists(WEIGHTS, min_size=n * n, max_size=n * n))
        delta = np.array(data.draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
        hessian = np.array(entries).reshape(n, n)
        with np.errstate(all="ignore"):
            expected = hessian - np.diag(1.0 / delta)
            # the update DualStructure._newton applies to its Hessian
            hessian.reshape(-1)[:: n + 1] -= 1.0 / delta
        assert hessian.tobytes() == expected.tobytes()
