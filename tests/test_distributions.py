"""Single-fold distribution machinery: evaluation, inversion, critical
values, expectation and regularity checking."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from ugp.distributions import (
    LinearDistribution,
    PiecewiseDistribution,
    ReductionCriterion,
    TrapezoidalDistribution,
    TriangularDistribution,
    check_regularity,
    critical_value,
    expected_value,
    inverse_cdf,
)
from ugp.errors import AlphaOutOfRange, QuadratureNonConvergence
from ugp.numeric import adaptive_simpson, bisect_increasing
from ugp.twofold import TwoFoldVariable, reduce_twofold

from support import expected_by_grid


BAD_LEVELS = [0.0, 1.0, -0.2, 1.0001]
NATIVE_EXAMPLES = [
    LinearDistribution(2, 5),
    TriangularDistribution(2, 4, 5),
    TrapezoidalDistribution(2, 3, 4, 5),
]


def flat(level: float) -> tuple[float, float, float, float]:
    return (level, 0.0, 0.0, 0.0)


def ramp(intercept: float, slope: float) -> tuple[float, float, float, float]:
    return (intercept, slope, 0.0, 0.0)


def random_family(rng, family: str):
    """Draw a native distribution with well-separated parameters."""
    n_params = {"linear": 2, "triangular": 3, "trapezoidal": 4}[family]
    while True:
        pts = np.sort(rng.uniform(-10.0, 10.0, size=n_params))
        if np.min(np.diff(pts)) > 1e-2:
            break
    cls = {
        "linear": LinearDistribution,
        "triangular": TriangularDistribution,
        "trapezoidal": TrapezoidalDistribution,
    }[family]
    return cls(*pts)


class TestConstruction:
    def test_strict_parameter_ordering_enforced(self):
        with pytest.raises(ValueError):
            LinearDistribution(1.0, 1.0)
        with pytest.raises(ValueError):
            TriangularDistribution(2.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            TriangularDistribution(2.0, 5.0, 4.0)
        with pytest.raises(ValueError):
            TrapezoidalDistribution(2.0, 4.0, 4.0, 8.0)

    def test_piecewise_structure_validated(self):
        with pytest.raises(ValueError):
            PiecewiseDistribution((0.0,), ())
        with pytest.raises(ValueError):
            PiecewiseDistribution((0.0, 1.0), (flat(0.5), flat(0.6)))
        with pytest.raises(ValueError):
            PiecewiseDistribution((1.0, 0.0), (flat(0.5),))

    def test_piece_is_affine_or_quadratic_not_both(self):
        with pytest.raises(ValueError):
            PiecewiseDistribution((0.0, 1.0), ((0.0, 0.5, 0.5, 0.0),))


class TestEvaluation:
    def test_triangular_at_mode(self):
        assert TriangularDistribution(2, 4, 5).cdf(4) == pytest.approx(2 / 3, abs=1e-15)

    def test_below_and_above_support(self):
        tri = TriangularDistribution(2, 4, 5)
        assert tri.cdf(1) == 0.0
        assert tri.cdf(7) == 1.0

    def test_symmetric_trapezoid_midpoint(self):
        assert TrapezoidalDistribution(2, 4, 6, 8).cdf(5) == pytest.approx(0.5, abs=1e-15)

    def test_linear_ramp(self):
        lin = LinearDistribution(0, 4)
        assert lin.cdf(1) == pytest.approx(0.25)

    def test_piecewise_matches_native(self):
        rng = np.random.default_rng(7)
        for family in ("linear", "triangular", "trapezoidal"):
            for _ in range(20):
                ud = random_family(rng, family)
                pw = ud.to_piecewise()
                lo, hi = ud.support
                xs = np.linspace(lo - 1, hi + 1, 200)
                native = [ud.cdf(x) for x in xs]
                assert pw.cdf(xs) == pytest.approx(native, abs=1e-14)

    def test_values_stay_in_unit_interval_and_monotone(self):
        rng = np.random.default_rng(11)
        for family in ("linear", "triangular", "trapezoidal"):
            ud = random_family(rng, family)
            lo, hi = ud.support
            values = [ud.cdf(x) for x in np.linspace(lo - 1, hi + 1, 10_000)]
            assert min(values) >= 0.0 and max(values) <= 1.0
            assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


def reference_cdf(pw: PiecewiseDistribution, x: float) -> float:
    """Pure-Python cdf: 0 below the support, 1 above it, and inside it the
    formula of the piece that ``bisect`` finds (a breakpoint takes the piece
    on its right, the last breakpoint the last piece)."""
    if math.isnan(x):
        return math.nan
    bps = pw.breakpoints
    if x < bps[0]:
        return 0.0
    if x > bps[-1]:
        return 1.0
    c0, c1, c2, m = pw.pieces[min(bisect_right(bps, x), len(pw.pieces)) - 1]
    d = x - m
    return (c0 + c1 * d) + c2 * d * d


def _cdf_cases() -> dict[str, PiecewiseDistribution]:
    cases = {}
    for family, tf in (
        ("tri", TwoFoldVariable.triangular(2, 4, 5, 0.5, 0.6)),
        ("tra", TwoFoldVariable.trapezoidal(2, 4, 6, 8, 0.5, 0.6)),
    ):
        for criterion in (
            ReductionCriterion.expected(),
            ReductionCriterion.optimistic(0.3),
            ReductionCriterion.pessimistic(0.7),
        ):
            cases[f"{family}-{criterion.kind}"] = reduce_twofold(tf, criterion)
    cases["linear"] = LinearDistribution(-3.0, 5.0).to_piecewise()
    cases["triangular"] = TriangularDistribution(2, 4, 5).to_piecewise()
    cases["trapezoidal"] = TrapezoidalDistribution(2, 4, 6, 8).to_piecewise()
    # negative controls: not monotone, or not continuous
    cases["wavy"] = PiecewiseDistribution(
        (0.0, 1.0, 2.0, 3.0),
        (ramp(0.0, 0.5), (0.9, 0.0, -0.3, 1.0), ramp(-0.2, 0.4)),
    )
    cases["decreasing"] = PiecewiseDistribution(
        (0.0, 1.0, 2.0), (ramp(0.0, 0.8), ramp(1.6, -0.4))
    )
    cases["flat-piece"] = PiecewiseDistribution(
        (0.0, 1.0, 2.0, 3.0), (ramp(0.0, 0.4), flat(0.4), ramp(-0.8, 0.6))
    )
    cases["jump-gap"] = PiecewiseDistribution(
        (0.0, 1.0, 2.0), (ramp(0.0, 0.3), ramp(0.4, 0.3))
    )
    return cases


CDF_CASES = _cdf_cases()


class TestCdfOracle:
    """The array ``cdf`` equals a scalar Python loop over the pieces, bit
    for bit, on every input shape it accepts."""

    @pytest.mark.parametrize("name", sorted(CDF_CASES))
    def test_array_cdf_equals_reference(self, name):
        pw = CDF_CASES[name]
        lo, hi = pw.support
        width = hi - lo
        points = [
            *pw.breakpoints,
            -math.inf, math.inf,
            lo - 1.0, hi + 1.0, lo - 1e-300, -1e300, 1e300,
            *(math.nextafter(b, d) for b in pw.breakpoints for d in (-math.inf, math.inf)),
            *np.linspace(lo - 0.1 * width, hi + 0.1 * width, 1000).tolist(),
        ]
        values = pw.cdf(np.array(points))
        assert isinstance(values, np.ndarray) and values.shape == (len(points),)
        assert values.tolist() == [reference_cdf(pw, x) for x in points]
        assert pw.cdf(points).tolist() == values.tolist()  # a list goes in as an array

    @pytest.mark.parametrize("name", sorted(CDF_CASES))
    def test_scalar_shapes_and_nan(self, name):
        pw = CDF_CASES[name]
        for x in (*pw.breakpoints, pw.support[0] - 1.0, sum(pw.support) / 2.0):
            for arg in (x, np.float64(x), np.array(x)):
                value = pw.cdf(arg)
                assert type(value) is float and value == reference_cdf(pw, x)
        empty = pw.cdf(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert math.isnan(pw.cdf(math.nan))
        assert np.isnan(pw.cdf(np.array([math.nan, math.nan]))).all()

    def test_2d_input_keeps_its_shape(self):
        pw = CDF_CASES["tra-optimistic"]
        grid = np.linspace(1.0, 9.0, 12).reshape(3, 4)
        values = pw.cdf(grid)
        assert values.shape == (3, 4)
        assert values.ravel().tolist() == [reference_cdf(pw, x) for x in grid.ravel()]


class TestInversion:
    def test_linear_closed_form(self):
        lin = LinearDistribution(-3.0, 5.0)
        for alpha in np.linspace(0.01, 0.99, 25):
            assert inverse_cdf(lin, alpha) == pytest.approx(
                (1 - alpha) * -3.0 + alpha * 5.0, abs=1e-12
            )

    def test_triangular_knot(self):
        assert inverse_cdf(TriangularDistribution(2, 4, 5), 2 / 3) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_triangular_first_branch(self):
        # cdf(3) = (3-2)^2 / 6 = 1/6, so the inverse at 1/6 must return 3
        tri = TriangularDistribution(2, 4, 5)
        assert tri.cdf(3.0) == pytest.approx(1 / 6, abs=1e-15)
        assert inverse_cdf(tri, 1 / 6) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "ud, invert, bad",
        [
            pytest.param(TriangularDistribution(2, 4, 5), inverse_cdf, bad, id=str(bad))
            for bad in BAD_LEVELS
        ]
        + [
            pytest.param(ud, type(ud).inverse, bad, id=f"{type(ud).__name__}.inverse-{bad}")
            for ud in NATIVE_EXAMPLES
            for bad in BAD_LEVELS
        ],
    )
    def test_alpha_out_of_range(self, ud, invert, bad):
        # the generic inverse and every native closed form reject the level
        with pytest.raises(AlphaOutOfRange):
            invert(ud, bad)

    def test_flat_segment_inverts_to_left_endpoint(self):
        pw = PiecewiseDistribution(
            (0.0, 1.0, 2.0, 3.0),
            (ramp(0.0, 0.4), flat(0.4), ramp(-0.8, 0.6)),
        )
        assert pw.inverse(0.4) == pytest.approx(1.0, abs=1e-12)

    def test_jump_gap_inverts_to_jump_abscissa(self):
        # cdf jumps from 0.3 to 0.7 at x = 1; any gamma inside the gap
        # must invert to the jump abscissa
        pw = PiecewiseDistribution(
            (0.0, 1.0, 2.0),
            (ramp(0.0, 0.3), ramp(0.4, 0.3)),
        )
        for gamma in (0.31, 0.5, 0.69):
            assert pw.inverse(gamma) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "breakpoints, pieces, gamma",
        [
            # cdf jumps from 0.3 to a flat 0.6 at x = 1: gamma lands on the flat
            ((0.0, 1.0, 2.0, 3.0), (ramp(0.0, 0.3), flat(0.6), ramp(-0.2, 0.4)), 0.5),
            # the only piece tops out at 0.5, below gamma
            ((0.0, 1.0), (ramp(0.0, 0.5),), 0.9),
        ],
        ids=["flat-after-jump", "no-piece-reaches"],
    )
    def test_inverse_lands_on_a_breakpoint(self, breakpoints, pieces, gamma):
        pw = PiecewiseDistribution(breakpoints, pieces)
        assert pw.inverse(gamma) == 1.0
        lo, hi = pw.support
        bisected = bisect_increasing(pw.cdf, lo, hi, gamma)
        assert bisected == pytest.approx(pw.inverse(gamma), abs=1e-12)

    def test_roundtrip_on_strictly_increasing_families(self):
        rng = np.random.default_rng(21)
        for family in ("linear", "triangular", "trapezoidal"):
            for _ in range(10):
                ud = random_family(rng, family)
                for alpha in np.linspace(0.01, 0.99, 50):
                    assert ud.cdf(inverse_cdf(ud, alpha)) == pytest.approx(
                        alpha, abs=1e-9
                    )

    def test_quadratic_bisection_fallback_agrees(self):
        pw = PiecewiseDistribution((2.0, 4.0), ((0.0, 0.0, 1.0 / 6.0, 2.0),))
        for gamma in np.linspace(0.05, 0.6, 9):
            closed = pw.inverse(gamma)
            bisected = bisect_increasing(pw.cdf, 2.0, 4.0, gamma)
            assert bisected == pytest.approx(closed, abs=1e-10)


class TestCriticalValues:
    def test_triangular_expected(self):
        q = ReductionCriterion.expected()
        assert critical_value(TriangularDistribution(2, 4, 5), q) == pytest.approx(
            11 / 3, abs=1e-12
        )

    def test_symmetric_trapezoid_expected(self):
        q = ReductionCriterion.expected()
        assert critical_value(TrapezoidalDistribution(2, 4, 6, 8), q) == pytest.approx(
            5.0, abs=1e-12
        )

    def test_triangular_optimistic(self):
        tri = TriangularDistribution(2, 4, 5)
        value = critical_value(tri, ReductionCriterion.optimistic(2 / 3))
        assert value == pytest.approx(2 + math.sqrt(2), abs=1e-12)
        assert 1 - tri.cdf(value) == pytest.approx(2 / 3, abs=1e-12)

    def test_linear_closed_forms(self):
        lin = LinearDistribution(1.0, 9.0)
        alpha = 0.3
        assert critical_value(lin, ReductionCriterion.optimistic(alpha)) == pytest.approx(
            alpha * 1.0 + (1 - alpha) * 9.0, abs=1e-12
        )
        assert critical_value(lin, ReductionCriterion.pessimistic(alpha)) == pytest.approx(
            (1 - alpha) * 1.0 + alpha * 9.0, abs=1e-12
        )
        assert critical_value(lin, ReductionCriterion.expected()) == pytest.approx(5.0)

    @pytest.mark.parametrize("family", ["triangular", "trapezoidal"])
    @pytest.mark.parametrize(
        "reduction",
        [
            ReductionCriterion.expected(),
            ReductionCriterion.optimistic(0.3),
            ReductionCriterion.pessimistic(0.7),
        ],
        ids=["expected", "optimistic", "pessimistic"],
    )
    def test_piecewise_critical_values_are_the_generic_route(self, family, reduction):
        params = {"triangular": (10, 20, 25), "trapezoidal": (6, 7, 8, 9)}[family]
        pw = reduce_twofold(TwoFoldVariable(family, params, 0.5, 0.7), reduction)
        assert isinstance(pw, PiecewiseDistribution)
        for alpha in (0.05, 0.3, 0.5, 0.8, 0.95):
            opt = critical_value(pw, ReductionCriterion.optimistic(alpha))
            assert opt == pw.inverse(1.0 - alpha)
            pess = critical_value(pw, ReductionCriterion.pessimistic(alpha))
            assert pess == pw.inverse(alpha)
        assert critical_value(pw, ReductionCriterion.expected()) == pw.expected_value()

    def test_closed_forms_agree_with_generic_inverse(self):
        rng = np.random.default_rng(33)
        for family in ("linear", "triangular", "trapezoidal"):
            for _ in range(30):
                ud = random_family(rng, family)
                pw = ud.to_piecewise()
                alpha = rng.uniform(0.02, 0.98)
                opt = ReductionCriterion.optimistic(alpha)
                pess = ReductionCriterion.pessimistic(alpha)
                assert critical_value(ud, opt) == pytest.approx(
                    pw.inverse(1 - alpha), abs=1e-10
                )
                assert critical_value(ud, pess) == pytest.approx(
                    pw.inverse(alpha), abs=1e-10
                )

    def test_query_validation(self):
        with pytest.raises(AlphaOutOfRange):
            ReductionCriterion.optimistic(0.0)
        with pytest.raises(AlphaOutOfRange):
            ReductionCriterion.pessimistic(1.0)
        with pytest.raises(ValueError):
            ReductionCriterion("expected", 0.5)
        with pytest.raises(ValueError):
            ReductionCriterion("median", 0.5)


class TestExpectedValue:
    def test_uniform_ramp(self):
        assert expected_value(LinearDistribution(0, 1)) == pytest.approx(0.5, abs=1e-14)

    def test_triangular_closed_form(self):
        # closed-form oracle (a + b + c) / 3 = 55/3
        assert expected_value(TriangularDistribution(10, 20, 25)) == pytest.approx(
            55 / 3, abs=1e-10
        )

    def test_trapezoid_cubic_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            ud = random_family(rng, "trapezoidal")
            a, b, c, d = ud.a, ud.b, ud.c, ud.d
            s = d + c - a - b
            oracle = ((d**3 - c**3) / (d - c) - (b**3 - a**3) / (b - a)) / (3 * s)
            assert expected_value(ud, "simpson") == pytest.approx(oracle, abs=1e-8)

    def test_analytic_matches_simpson_on_random_draws(self):
        rng = np.random.default_rng(43)
        for family in ("linear", "triangular", "trapezoidal"):
            for _ in range(100):
                ud = random_family(rng, family)
                analytic = expected_value(ud, "analytic")
                simpson = expected_value(ud, "simpson")
                assert simpson == pytest.approx(analytic, abs=1e-8)

    def test_closed_forms_match_quadrature(self):
        rng = np.random.default_rng(47)
        for family in ("linear", "triangular", "trapezoidal"):
            for _ in range(100):
                ud = random_family(rng, family)
                closed = critical_value(ud, ReductionCriterion.expected())
                assert expected_value(ud, "analytic") == pytest.approx(closed, abs=1e-10)
                assert expected_value(ud, "simpson") == pytest.approx(closed, abs=1e-8)

    def test_grid_integration_oracle(self):
        tri = TriangularDistribution(2, 4, 5)
        oracle = expected_by_grid(np.vectorize(tri.cdf), 2.0, 5.0, n=400_001)
        assert expected_value(tri) == pytest.approx(oracle, abs=1e-9)

    def test_jump_distribution_expected(self):
        # point mass of 0.4 at x = 1 between two uniform ramps; the
        # inverse is x = gamma/0.3 on (0, 0.3], 1 across the gap, and
        # (gamma - 0.4)/0.3 on [0.7, 1): E = 0.15 + 0.4 + 0.45 = 1
        pw = PiecewiseDistribution(
            (0.0, 1.0, 2.0),
            (ramp(0.0, 0.3), ramp(0.4, 0.3)),
        )
        assert pw.expected_value() == pytest.approx(1.0, abs=1e-12)
        assert pw.expected_by_quadrature() == pytest.approx(1.0, abs=1e-7)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
            expected_value(TriangularDistribution(2, 4, 5), "bogus")


class TestNumericUtilities:
    def test_bisection_locates_target(self):
        f = lambda x: x**3
        assert bisect_increasing(f, 0.0, 2.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_bisection_flat_target_left_endpoint(self):
        f = lambda x: 0.5
        assert bisect_increasing(f, 1.0, 3.0, 0.5) == 1.0

    def test_bisection_unreachable_target_right_endpoint(self):
        assert bisect_increasing(lambda x: x, 0.0, 2.0, 5.0) == 2.0

    def test_simpson_empty_and_reversed_intervals(self):
        f = lambda x: x**3
        assert adaptive_simpson(f, 1.5, 1.5) == 0.0
        assert adaptive_simpson(f, 2.0, 0.0) == -adaptive_simpson(f, 0.0, 2.0)

    def test_simpson_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_simpson_depth_cap_raises(self):
        # sqrt has unbounded derivatives at 0, so a shallow depth cap
        # cannot reach a 1e-14 tolerance
        with pytest.raises(QuadratureNonConvergence):
            adaptive_simpson(math.sqrt, 0.0, 1.0, tol=1e-14, max_depth=5)


class TestRegularity:
    def test_triangular_passes(self):
        report = check_regularity(TriangularDistribution(2, 4, 5))
        assert report.passed
        assert report.max_decrease <= 1e-12
        assert report.value_at_lower == pytest.approx(0.0, abs=1e-12)
        assert report.value_at_upper == pytest.approx(1.0, abs=1e-12)

    def test_fabricated_decreasing_segment_flagged(self):
        broken = PiecewiseDistribution(
            (0.0, 1.0, 2.0),
            (ramp(0.0, 0.8), ramp(1.6, -0.4)),
        )
        report = check_regularity(broken)
        assert not report.passed
        assert report.violations
        # per-grid-step decrease: slope 0.4 over a step of 4/9999
        assert report.max_decrease > 1e-5

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_grid_needs_two_points(self, bad):
        with pytest.raises(ValueError, match="grid_points"):
            check_regularity(TriangularDistribution(2, 4, 5), grid_points=bad)

    def test_two_point_grid_samples_the_widened_support(self):
        report = check_regularity(TriangularDistribution(2, 4, 5), grid_points=2)
        assert report.passed and report.grid_points == 2
        assert report.max_decrease == 0.0 and report.violations == ()

    def test_matches_pointwise_loop(self):
        # the report from the array sampling equals a scalar loop's, exactly
        wavy = PiecewiseDistribution(
            (0.0, 1.0, 2.0, 3.0),
            (ramp(0.0, 0.5), (0.9, 0.0, -0.3, 1.0), ramp(-0.2, 0.4)),
        )
        for ud in (wavy, TrapezoidalDistribution(2, 4, 6, 8)):
            pw = ud.to_piecewise()
            lo, hi = pw.support
            n = 500
            step = (hi + 1.0 - (lo - 1.0)) / (n - 1)
            xs = [lo - 1.0 + i * step for i in range(n)]
            drops = [pw.cdf(x0) - pw.cdf(x1) for x0, x1 in zip(xs, xs[1:])]
            report = check_regularity(ud, grid_points=n, max_reported=4)
            expected = [(x0, x1, d) for x0, x1, d in zip(xs, xs[1:], drops) if d > 1e-12]
            assert report.violations == tuple(expected[:4])
            assert report.passed == (not expected)
            assert report.max_decrease == max([0.0] + drops)
            assert report.value_at_lower == pw.cdf(lo)
            assert report.value_at_upper == pw.cdf(hi)

    def test_report_fields_are_python_floats(self):
        broken = PiecewiseDistribution(
            (0.0, 1.0, 2.0),
            (ramp(0.0, 0.8), ramp(1.6, -0.4)),
        )
        report = check_regularity(broken, grid_points=50, max_reported=3)
        assert len(report.violations) == 3
        values = [report.max_decrease, report.value_at_lower, report.value_at_upper]
        values += [v for violation in report.violations for v in violation]
        assert all(type(v) is float for v in values)
