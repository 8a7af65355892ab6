"""Two-fold variables: surface evaluation, reduction and reduced inverses."""

import math

import numpy as np
import pytest

from ugp.distributions import check_regularity
from ugp.errors import AlphaOutOfRange, YOutOfRange
from ugp.twofold import (
    ReductionCriterion,
    TwoFoldVariable,
    curve_samples,
    reduce_twofold,
    surface_at,
    twofold_cdf,
)

from support import reduced_cdf_oracle

TRI_EXAMPLE = TwoFoldVariable.triangular(2, 4, 5, 0.5, 0.6)
TRA_EXAMPLE = TwoFoldVariable.trapezoidal(2, 4, 6, 8, 0.5, 0.6)


def random_twofold(rng, family: str | None = None) -> TwoFoldVariable:
    family = family or rng.choice(["triangular", "trapezoidal"])
    n_params = 3 if family == "triangular" else 4
    while True:
        pts = np.sort(rng.uniform(-10.0, 10.0, size=n_params))
        if np.min(np.diff(pts)) > 1e-2:
            break
    return TwoFoldVariable(family, tuple(pts), rng.uniform(0, 1), rng.uniform(0, 1))


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TwoFoldVariable.triangular(2, 2, 5, 0.5, 0.5)
        with pytest.raises(ValueError):
            TwoFoldVariable.trapezoidal(2, 4, 3, 8, 0.5, 0.5)
        with pytest.raises(ValueError):
            TwoFoldVariable.triangular(2, 4, 5, -0.1, 0.5)
        with pytest.raises(ValueError):
            TwoFoldVariable.triangular(2, 4, 5, 0.5, 1.2)
        with pytest.raises(ValueError):
            TwoFoldVariable("gaussian", (0.0, 1.0), 0.5, 0.5)

    def test_parameter_count_follows_the_family(self):
        with pytest.raises(
            ValueError, match="^triangular family takes 3 parameters, got 4$"
        ):
            TwoFoldVariable("triangular", (1.0, 2.0, 3.0, 4.0), 0.5, 0.5)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("triangular", (1.0, 2.0, math.inf)),
            ("triangular", (-math.inf, 2.0, 3.0)),
            ("triangular", (1.0, math.nan, 3.0)),
            ("trapezoidal", (1.0, 2.0, 3.0, math.inf)),
            ("trapezoidal", (-math.inf, 2.0, 3.0, 4.0)),
        ],
    )
    def test_nonfinite_params_rejected(self, family, params):
        with pytest.raises(ValueError, match="family parameters must be finite"):
            TwoFoldVariable(family, params, 0.5, 0.5)

    def test_criterion_validation(self):
        with pytest.raises(AlphaOutOfRange):
            ReductionCriterion.optimistic(0.0)
        with pytest.raises(AlphaOutOfRange):
            ReductionCriterion.pessimistic(1.0)
        with pytest.raises(ValueError):
            ReductionCriterion("expected", 0.3)


class TestSurface:
    def test_constant_regions(self):
        assert surface_at(TRI_EXAMPLE, 0.0).value == 0.0
        assert surface_at(TRI_EXAMPLE, 6.0).value == 1.0
        assert surface_at(TRI_EXAMPLE, 4.0).value == pytest.approx(2 / 3, abs=1e-15)

    def test_trapezoid_plateaus(self):
        assert surface_at(TRA_EXAMPLE, 4.0).value == pytest.approx(1 / 4, abs=1e-15)
        assert surface_at(TRA_EXAMPLE, 6.0).value == pytest.approx(3 / 4, abs=1e-15)

    def test_band_bounds_at_interior_point(self):
        # base cdf at x=3 is 1/6; band half-term min(1/6, 2/3 - 1/6) = 1/6
        point = surface_at(TRI_EXAMPLE, 3.0)
        assert point.kind == "band"
        assert point.lower == pytest.approx(1 / 12, abs=1e-15)
        assert point.upper == pytest.approx(1 / 6 + 0.6 / 6, abs=1e-15)

    def test_band_contains_base_cdf(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tf = random_twofold(rng)
            base = tf.base_distribution()
            lo, hi = tf.support
            for x in rng.uniform(lo, hi, size=40):
                point = surface_at(tf, x)
                value = base.cdf(x)
                assert point.lower <= value + 1e-12
                assert point.upper >= value - 1e-12
                assert -1e-15 <= point.lower <= point.upper <= 1 + 1e-15

    def test_band_width_vanishes_at_plateaus(self):
        for tf, spots in (
            (TRI_EXAMPLE, (2.0, 4.0, 5.0)),
            (TRA_EXAMPLE, (2.0, 4.0, 6.0, 8.0)),
        ):
            for x in spots:
                eps = 1e-9
                for probe in (x - eps, x + eps):
                    point = surface_at(tf, probe)
                    if point.kind == "band":
                        assert point.upper - point.lower < 1e-6


    def test_envelope_valid_next_to_breakpoints(self):
        # rounding near a vanishing band or at theta = 1 must not push an
        # edge past 0, 1 or the other edge
        cases = [
            TwoFoldVariable.trapezoidal(
                -7.556490986205394, -0.3227924606303656, 10.128762985830399,
                59.95668699741434, 0.6701954542603246, 0.8873309914848851,
            ),
            TwoFoldVariable.triangular(-5.570143213675207, 24.23631203758128,
                                       43.43100335384193, 1.0, 0.0),
            TwoFoldVariable.trapezoidal(2, 4, 6, 8, 1.0, 1.0),
        ]
        for tf in cases:
            reduced = reduce_twofold(tf, ReductionCriterion.expected())
            for bp in reduced.breakpoints:
                x = bp
                for _ in range(6):
                    x = math.nextafter(x, -math.inf)
                    point = surface_at(tf, x)
                    assert 0.0 <= point.lower <= point.upper <= 1.0
                x = bp
                for _ in range(6):
                    x = math.nextafter(x, math.inf)
                    point = surface_at(tf, x)
                    assert 0.0 <= point.lower <= point.upper <= 1.0


class TestTwoFoldCdf:
    def test_above_band_is_one(self):
        point = surface_at(TRI_EXAMPLE, 3.0)
        assert twofold_cdf(TRI_EXAMPLE, 3.0, point.upper + 0.01) == 1.0

    def test_band_midpoint_is_half(self):
        point = surface_at(TRI_EXAMPLE, 3.0)
        mid = (point.lower + point.upper) / 2
        assert twofold_cdf(TRI_EXAMPLE, 3.0, mid) == pytest.approx(0.5, abs=1e-12)

    def test_at_band_lower_bound_is_zero(self):
        assert twofold_cdf(TRI_EXAMPLE, 3.0, 1 / 12) == pytest.approx(0.0, abs=1e-12)

    def test_plateau_constant_for_all_y(self):
        for y in (0.0, 0.3, 1.0):
            assert twofold_cdf(TRI_EXAMPLE, 4.0, y) == pytest.approx(2 / 3, abs=1e-15)

    def test_degenerate_band_is_step(self):
        crisp = TwoFoldVariable.triangular(2, 4, 5, 0.0, 0.0)
        base = crisp.base_distribution()
        assert twofold_cdf(crisp, 3.0, base.cdf(3.0) - 0.01) == 0.0
        assert twofold_cdf(crisp, 3.0, base.cdf(3.0) + 0.01) == 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_y_out_of_range(self, bad):
        with pytest.raises(YOutOfRange):
            twofold_cdf(TRI_EXAMPLE, 3.0, bad)


class TestReduce:
    def test_zero_thetas_reproduce_base_family(self):
        rng = np.random.default_rng(9)
        for family in ("triangular", "trapezoidal"):
            tf = random_twofold(rng, family)
            tf = TwoFoldVariable(tf.family, tf.params, 0.0, 0.0)
            base = tf.base_distribution()
            lo, hi = tf.support
            for criterion in (
                ReductionCriterion.expected(),
                ReductionCriterion.optimistic(0.37),
                ReductionCriterion.pessimistic(0.81),
            ):
                reduced = reduce_twofold(tf, criterion)
                xs = np.linspace(lo - 1, hi + 1, 500)
                native = [base.cdf(x) for x in xs]
                assert reduced.cdf(xs) == pytest.approx(native, abs=1e-12)

    def test_expected_reduction_spot_values(self):
        reduced = reduce_twofold(TRI_EXAMPLE, ReductionCriterion.expected())
        # first quadratic ramp at x=3: (1/6) + (1/20)(1/6)
        assert reduced.cdf(3.0) == pytest.approx(7 / 40, abs=1e-15)
        assert reduced.cdf(4.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_trapezoidal_expected_reduction_spot_value(self):
        reduced = reduce_twofold(TRA_EXAMPLE, ReductionCriterion.expected())
        # affine ramp at x=5: 1/2 + (1/20)(1/2 - 1/4)
        assert reduced.cdf(5.0) == pytest.approx(0.5125, abs=1e-15)

    def test_matches_band_formula_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            tf = random_twofold(rng)
            kind = rng.choice(["optimistic", "pessimistic", "expected"])
            alpha = float(rng.uniform(0.02, 0.98)) if kind != "expected" else None
            criterion = ReductionCriterion(kind, alpha)
            reduced = reduce_twofold(tf, criterion)
            lo, hi = tf.support
            xs = np.linspace(lo - 0.5, hi + 0.5, 800)
            oracle = reduced_cdf_oracle(
                tf.family, tf.params, tf.theta_l, tf.theta_r, kind, alpha, xs
            )
            np.testing.assert_allclose(reduced.cdf(xs), oracle, atol=1e-12)

    def test_pessimistic_equals_optimistic_mirrored(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            tf = random_twofold(rng)
            alpha = float(rng.uniform(0.02, 0.98))
            pess = reduce_twofold(tf, ReductionCriterion.pessimistic(alpha))
            opt = reduce_twofold(tf, ReductionCriterion.optimistic(1.0 - alpha))
            lo, hi = tf.support
            xs = np.linspace(lo, hi, 400)
            assert pess.cdf(xs) == pytest.approx(opt.cdf(xs), abs=1e-12)

    def test_expected_equals_optimistic_at_half(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            tf = random_twofold(rng)
            expected = reduce_twofold(tf, ReductionCriterion.expected())
            half = reduce_twofold(tf, ReductionCriterion.optimistic(0.5))
            lo, hi = tf.support
            xs = np.linspace(lo, hi, 400)
            assert expected.cdf(xs) == pytest.approx(half.cdf(xs), abs=1e-12)

    def test_vanishing_multiplier_reproduces_base(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            tf = random_twofold(rng)
            if tf.theta_l + tf.theta_r < 1e-6:
                continue
            alpha = tf.theta_r / (tf.theta_l + tf.theta_r)
            if not 0.0 < alpha < 1.0:
                continue
            criterion = ReductionCriterion.optimistic(alpha)
            assert criterion.multiplier(tf.theta_l, tf.theta_r) == pytest.approx(
                0.0, abs=1e-15
            )
            reduced = reduce_twofold(tf, criterion)
            base = tf.base_distribution()
            lo, hi = tf.support
            xs = np.linspace(lo, hi, 300)
            native = [base.cdf(x) for x in xs]
            assert reduced.cdf(xs) == pytest.approx(native, abs=1e-12)

    def test_worked_example_reduction_is_regular(self):
        reduced = reduce_twofold(TRI_EXAMPLE, ReductionCriterion.optimistic(0.9))
        assert check_regularity(reduced).passed

    def test_reductions_are_regular(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            tf = random_twofold(rng)
            alpha = float(rng.uniform(0.02, 0.98))
            for criterion in (
                ReductionCriterion.expected(),
                ReductionCriterion.optimistic(alpha),
                ReductionCriterion.pessimistic(alpha),
            ):
                report = check_regularity(reduce_twofold(tf, criterion), grid_points=2000)
                assert report.passed, (tf, criterion, report.violations[:2])

    def test_continuity_at_plateau_abscissas(self):
        # band width vanishes at the slope-change points, so the reduced
        # cdf is continuous there for every multiplier
        for tf in (TRI_EXAMPLE, TRA_EXAMPLE):
            reduced = reduce_twofold(tf, ReductionCriterion.optimistic(0.9))
            for x in tf.params[1:-1]:
                left = reduced.cdf(x - 1e-12)
                right = reduced.cdf(x + 1e-12)
                assert left == pytest.approx(reduced.cdf(x), abs=1e-9)
                assert right == pytest.approx(reduced.cdf(x), abs=1e-9)


    def test_array_cdf_equals_scalar_cdf(self):
        rng = np.random.default_rng(37)
        for family in ("triangular", "trapezoidal"):
            for _ in range(10):
                tf = random_twofold(rng, family)
                alpha = float(rng.uniform(0.02, 0.98))
                for criterion in (
                    ReductionCriterion.expected(),
                    ReductionCriterion.optimistic(alpha),
                    ReductionCriterion.pessimistic(alpha),
                ):
                    reduced = reduce_twofold(tf, criterion)
                    lo, hi = reduced.support
                    xs = np.concatenate(
                        [np.linspace(lo - 1, hi + 1, 301), reduced.breakpoints]
                    )
                    values = reduced.cdf(xs)
                    assert isinstance(values, np.ndarray)
                    scalars = [reduced.cdf(float(x)) for x in xs]
                    assert all(type(v) is float for v in scalars)
                    assert values.tolist() == scalars


class TestReducedInverse:
    def test_expected_inverse_hits_mode(self):
        tf = TwoFoldVariable.triangular(6, 8, 9, 0.5, 0.7)
        reduced = reduce_twofold(tf, ReductionCriterion.expected())
        assert reduced.inverse(2 / 3) == pytest.approx(8.0, abs=1e-12)

    def test_inverse_approaches_lower_support(self):
        tf = TwoFoldVariable.triangular(10, 20, 25, 0.5, 0.6)
        value = reduce_twofold(tf, ReductionCriterion.expected()).inverse(1e-9)
        assert 10.0 < value < 10.001

    def test_trapezoidal_affine_branch(self):
        tf = TwoFoldVariable.trapezoidal(30, 40, 50, 60, 0.4, 0.6)
        reduced = reduce_twofold(tf, ReductionCriterion.expected())
        assert reduced.inverse(0.5) == pytest.approx(490 / 11, abs=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            tf = random_twofold(rng)
            criterion = ReductionCriterion.optimistic(float(rng.uniform(0.05, 0.95)))
            reduced = reduce_twofold(tf, criterion)
            gammas = np.linspace(0.01, 0.99, 40)
            inverses = [reduced.inverse(gamma) for gamma in gammas]
            assert reduced.cdf(inverses) == pytest.approx(gammas, abs=1e-9)

    def test_gamma_validation(self):
        reduced = reduce_twofold(TRI_EXAMPLE, ReductionCriterion.expected())
        with pytest.raises(AlphaOutOfRange):
            reduced.inverse(0.0)
        with pytest.raises(AlphaOutOfRange):
            reduced.inverse(1.0)

    def test_scalar_inverse_returns_a_float(self):
        reduced = reduce_twofold(TRA_EXAMPLE, ReductionCriterion.optimistic(0.3))
        for gamma in (0.3, np.float64(0.3)):
            assert type(reduced.inverse(gamma)) is float
        assert reduced.inverse(np.float64(0.3)) == reduced.inverse(0.3)


class TestCurveSamples:
    def test_grid_and_columns(self):
        criteria = [ReductionCriterion.expected(), ReductionCriterion.optimistic(0.5)]
        xs, cols = curve_samples(TRI_EXAMPLE, criteria, samples=101)
        assert len(xs) == 101 and len(cols) == 2
        assert xs[0] == 2.0 and xs[-1] == 5.0
        assert cols[0][0] == 0.0 and cols[0][-1] == 1.0
        # expected criterion coincides with the optimistic half criterion
        assert cols[0] == pytest.approx(cols[1], abs=1e-15)

    @pytest.mark.parametrize("tf", [TRI_EXAMPLE, TRA_EXAMPLE])
    @pytest.mark.parametrize("samples", [2, 3, 7, 1000])
    def test_grid_is_lo_plus_i_step_ending_at_hi(self, tf, samples):
        criteria = [
            ReductionCriterion.expected(),
            ReductionCriterion.optimistic(0.3),
            ReductionCriterion.pessimistic(0.3),
        ]
        xs, cols = curve_samples(tf, criteria, samples=samples)
        lo, hi = tf.support
        step = (hi - lo) / (samples - 1)
        expected = [lo + i * step for i in range(samples)]
        expected[-1] = hi
        assert xs == expected
        for criterion, col in zip(criteria, cols):
            assert col == [reduce_twofold(tf, criterion).cdf(x) for x in expected]
        assert all(type(v) is float for v in xs + [v for col in cols for v in col])

    def test_numpy_parameters_still_give_python_floats(self):
        tf = TwoFoldVariable.triangular(*np.array([2.0, 4.0, 5.0]), 0.5, 0.6)
        xs, (col,) = curve_samples(tf, [ReductionCriterion.expected()], samples=5)
        assert all(type(v) is float for v in xs + col)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            curve_samples(TRI_EXAMPLE, [ReductionCriterion.expected()], samples=1)
        with pytest.raises(TypeError):
            curve_samples(TRI_EXAMPLE, [ReductionCriterion.expected()], samples=10.0)
