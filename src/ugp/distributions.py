"""Single-fold uncertainty distributions.

An uncertainty distribution (UD) is a monotone map from the reals to
[0, 1] describing an uncertain variable; it plays the role a CDF plays in
probability.  This module provides:

* the native parametric families -- linear, triangular and trapezoidal,
  all with strictly increasing piecewise closed forms;
* :class:`PiecewiseDistribution`, the generic carrier for any UD built
  from pieces of one form, c0 + c1*(x - m) + c2*(x - m)**2 with c1*c2 = 0
  (constant, affine or shifted quadratic);
* the one family table, :meth:`PiecewiseDistribution.from_family`: the
  triangular and trapezoidal ramps minus k times their band term.  At
  k = 0 it is the piecewise form of a native family; every reduced
  distribution produced by :mod:`ugp.twofold` is the same table at the
  criterion's multiplier k;
* :class:`ReductionCriterion` and :func:`critical_value`, read through the
  one protocol (``inverse``, ``expected_value``): closed forms on a native
  family, the generic piecewise path on the carrier, the two of which agree;
* a regularity check that samples a distribution densely and reports
  monotonicity violations.

All types are immutable and all operations pure, so everything here is
safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import AlphaOutOfRange
from .numeric import adaptive_simpson

__all__ = [
    "PiecewiseDistribution",
    "LinearDistribution",
    "TriangularDistribution",
    "TrapezoidalDistribution",
    "ReductionCriterion",
    "RegularityReport",
    "inverse_cdf",
    "critical_value",
    "expected_value",
    "check_regularity",
]


_SQRT2 = math.sqrt(2.0)
_REGULARITY_SLACK = 1e-12  # check_regularity ignores decreases up to this
_SIMPSON_TOL = 1e-10  # expected_by_quadrature: total absolute tolerance
_SIMPSON_MAX_DEPTH = 60  # and the recursion depth cap of each panel


def _require_alpha_open(alpha: float | None, name: str = "alpha") -> float:
    if alpha is None or not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"{name} must lie strictly inside (0, 1), got {alpha!r}")
    return float(alpha)


# ---------------------------------------------------------------------------
# Piecewise carrier
# ---------------------------------------------------------------------------


def _piece_value(piece: tuple[float, float, float, float], x: float) -> float:
    c0, c1, c2, m = piece
    d = x - m
    return (c0 + c1 * d) + c2 * d * d


@dataclass(frozen=True)
class PiecewiseDistribution:
    """A UD assembled from pieces over consecutive breakpoint intervals.

    ``pieces[i] = (c0, c1, c2, m)`` applies on ``[breakpoints[i],
    breakpoints[i + 1]]`` with value c0 + c1*(x - m) + c2*(x - m)**2.  At
    most one of c1, c2 is nonzero, so a piece is constant, affine (stored
    with m = 0) or a quadratic lying on one side of its center m.  The
    value is 0 left of the first breakpoint and 1 right of the last.
    Construction checks only structure; monotonicity is a property of the
    data and is verified by :func:`check_regularity` (deliberately, so that
    invalid distributions can be built as negative controls in tests).
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, float, float, float], ...]
    # (lo, hi, c0, c1, c2, m, side of m) per piece and the running maximum
    # of the piece tops, as Python floats for the per-scalar inverse.
    _rows: tuple = field(init=False, repr=False, compare=False)
    _reach: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError(
                f"{len(self.breakpoints)} breakpoints require "
                f"{len(self.breakpoints) - 1} pieces, got {len(self.pieces)}"
            )
        for left, right in zip(self.breakpoints, self.breakpoints[1:]):
            if not left < right:
                raise ValueError("breakpoints must be strictly increasing")
        breakpoints = tuple(map(float, self.breakpoints))
        pieces = tuple(tuple(map(float, piece)) for piece in self.pieces)
        rows, reach, best = [], [], -math.inf
        for lo, hi, piece in zip(breakpoints, breakpoints[1:], pieces):
            c0, c1, c2, m = piece
            if c1 != 0.0 and c2 != 0.0:
                raise ValueError("a piece is affine or quadratic, not both")
            rows.append((lo, hi, c0, c1, c2, m, 1.0 if (lo + hi) / 2.0 >= m else -1.0))
            best = max(best, _piece_value(piece, hi))
            reach.append(best)
        setattr_ = object.__setattr__
        setattr_(self, "breakpoints", breakpoints)
        setattr_(self, "pieces", pieces)
        setattr_(self, "_rows", tuple(rows))
        setattr_(self, "_reach", reach)

    @property
    def support(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    def cdf(self, x):
        """Value at x, elementwise over arrays; a scalar x gives a float.

        A breakpoint takes the piece on its right, the last one the piece
        on its left.  Every call pays the numpy set-up, so evaluate a grid
        in one call rather than point by point.
        """
        x = np.asarray(x, dtype=float)
        inner, coef = np.array(self.breakpoints[1:-1]), np.array(self.pieces).T
        lo, hi = self.support
        inside = np.clip(x, lo, hi)
        # The count of interior breakpoints <= x is x's piece (hi: the last
        # one); one take gathers its four coefficients as contiguous rows.
        c0, c1, c2, m = coef.take(np.searchsorted(inner, inside, side="right"), axis=1)
        d = inside - m
        values = (c0 + c1 * d) + c2 * d * d
        values = np.where(x < lo, 0.0, np.where(x > hi, 1.0, values))
        return values if values.ndim else float(values)

    def inverse(self, gamma: float) -> float:
        """inf{x : cdf(x) >= gamma} for gamma in the open unit interval."""
        gamma = _require_alpha_open(gamma, "gamma")
        i = bisect_left(self._reach, gamma)  # first piece whose top reaches gamma
        if i == len(self._rows):
            return self.breakpoints[-1]
        lo, hi, c0, c1, c2, m, side = self._rows[i]
        if c2 != 0.0:
            x = m + side * math.sqrt(max((gamma - c0) / c2, 0.0))
        elif c1 != 0.0:
            x = m + (gamma - c0) / c1
        else:
            return lo  # a flat piece inverts to its left end
        # Clamping to [lo, hi] makes inversion land on the left
        # breakpoint whenever gamma falls in a jump gap.
        return lo if x < lo else hi if x > hi else x

    def expected_value(self) -> float:
        """Integral of the inverse over (0, 1), piece by piece in closed form.

        The inverse of an affine piece is affine in gamma and that of a
        quadratic piece is m +/- sqrt((gamma - c0)/c2); flat pieces carry no
        mass.  Jumps between consecutive piece values contribute the jump
        abscissa times the gap, matching infimum-of-preimage inversion.
        """
        total = 0.0
        top = 0.0
        for lo, hi, c0, c1, c2, m, side in self._rows:
            g0 = _piece_value((c0, c1, c2, m), lo)
            g1 = _piece_value((c0, c1, c2, m), hi)
            if g0 > top:
                total += lo * (g0 - top)
            if c2 != 0.0:
                t0 = max((g0 - c0) / c2, 0.0)
                t1 = max((g1 - c0) / c2, 0.0)
                total += m * (g1 - g0) + side * (2.0 * c2 / 3.0) * (
                    t1**1.5 - t0**1.5
                )
            elif c1 != 0.0:
                total += m * (g1 - g0) + (
                    (g1 * g1 - g0 * g0) / 2.0 - c0 * (g1 - g0)
                ) / c1
            top = max(top, g1)
        if top < 1.0:
            total += self.breakpoints[-1] * (1.0 - top)
        return total

    def expected_by_quadrature(self) -> float:
        """Same integral via adaptive Simpson on the inverse, per gamma panel."""
        knots = [0.0]
        for top in self._reach:
            top = min(top, 1.0)
            if top > knots[-1]:
                knots.append(top)
        if knots[-1] < 1.0:
            knots.append(1.0)
        panel_tol = _SIMPSON_TOL / max(len(knots) - 1, 1)
        eps = 1e-14

        def inv(g: float) -> float:
            return self.inverse(min(max(g, eps), 1.0 - eps))

        total = 0.0
        for g0, g1 in zip(knots, knots[1:]):
            total += adaptive_simpson(inv, g0, g1, panel_tol, _SIMPSON_MAX_DEPTH)
        return total

    def to_piecewise(self) -> "PiecewiseDistribution":
        return self

    @classmethod
    def from_family(
        cls, params: tuple[float, ...], k: float = 0.0
    ) -> "PiecewiseDistribution":
        """Triangular (a, b, c) or trapezoidal (a, b, c, d) ramp minus k * band.

        This is the one family table.  band(x) is the distance from the base
        value to the nearer of its ramp's end levels, so base - k * band is
        the native family at k = 0 and the reduced distribution of a
        two-fold variable at k = criterion.multiplier(theta_l, theta_r).
        Each ramp splits where the nearer end switches: at a + (b-a)/sqrt(2)
        and c - (c-b)/sqrt(2) for a triangle; a trapezoid splits its ramps
        at a + (b-a)/sqrt(2), (b+c)/2 and d - (d-c)/sqrt(2).
        """
        if len(params) == 3:
            a, b, c = params
            up = (b - a) * (c - a)
            down = (c - a) * (c - b)
            plateau = (b - a) / (c - a)
            top = (c - b) / (c - a)
            m1 = a + (b - a) / _SQRT2
            m2 = c - (c - b) / _SQRT2
            return cls(
                (a, m1, b, m2, c),
                (
                    (0.0, 0.0, (1.0 - k) / up, a),
                    (-k * plateau, 0.0, (1.0 + k) / up, a),
                    (1.0 - k * top, 0.0, -(1.0 - k) / down, c),
                    (1.0, 0.0, -(1.0 + k) / down, c),
                ),
            )

        a, b, c, d = params
        s = d + c - a - b
        up = s * (b - a)
        down = s * (d - c)
        plateau_b = (b - a) / s
        plateau_c = (2.0 * c - a - b) / s
        top = (d - c) / s
        m1 = a + (b - a) / _SQRT2
        mid = (b + c) / 2.0
        m3 = d - (d - c) / _SQRT2
        return cls(
            (a, m1, b, mid, c, m3, d),
            (
                (0.0, 0.0, (1.0 - k) / up, a),
                (-k * plateau_b, 0.0, (1.0 + k) / up, a),
                (k * plateau_b - (1.0 - k) * (a + b) / s, 2.0 * (1.0 - k) / s, 0.0, 0.0),
                (-k * plateau_c - (1.0 + k) * (a + b) / s, 2.0 * (1.0 + k) / s, 0.0, 0.0),
                (1.0 - k * top, 0.0, -(1.0 - k) / down, d),
                (1.0, 0.0, -(1.0 + k) / down, d),
            ),
        )


# ---------------------------------------------------------------------------
# Native families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearDistribution:
    """Uniform ramp from (a, 0) to (b, 1)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"require a < b, got a={self.a}, b={self.b}")

    @property
    def support(self) -> tuple[float, float]:
        return self.a, self.b

    def cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def inverse(self, gamma: float) -> float:
        gamma = _require_alpha_open(gamma, "gamma")
        return (1.0 - gamma) * self.a + gamma * self.b

    def expected_value(self) -> float:
        return (self.a + self.b) / 2.0

    def to_piecewise(self) -> PiecewiseDistribution:
        span = self.b - self.a
        return PiecewiseDistribution(
            (self.a, self.b), ((-self.a / span, 1.0 / span, 0.0, 0.0),)
        )


@dataclass(frozen=True)
class TriangularDistribution:
    """Quadratic ramp up on [a, b], quadratic ramp down of 1-cdf on [b, c].

    cdf(x) = (x-a)^2 / ((b-a)(c-a))        on [a, b]
           = 1 - (c-x)^2 / ((c-a)(c-b))    on [b, c]
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (self.a < self.b < self.c):
            raise ValueError(
                f"require a < b < c, got ({self.a}, {self.b}, {self.c})"
            )

    @property
    def support(self) -> tuple[float, float]:
        return self.a, self.c

    def cdf(self, x: float) -> float:
        a, b, c = self.a, self.b, self.c
        if x <= a:
            return 0.0
        if x >= c:
            return 1.0
        if x <= b:
            return (x - a) ** 2 / ((b - a) * (c - a))
        return 1.0 - (c - x) ** 2 / ((c - a) * (c - b))

    def inverse(self, gamma: float) -> float:
        gamma = _require_alpha_open(gamma, "gamma")
        a, b, c = self.a, self.b, self.c
        knee = (b - a) / (c - a)  # cdf value at the mode
        if gamma <= knee:
            return a + math.sqrt(gamma * (b - a) * (c - a))
        return c - math.sqrt((1.0 - gamma) * (c - a) * (c - b))

    def expected_value(self) -> float:
        return (self.a + self.b + self.c) / 3.0

    def to_piecewise(self) -> PiecewiseDistribution:
        return PiecewiseDistribution.from_family((self.a, self.b, self.c))


@dataclass(frozen=True)
class TrapezoidalDistribution:
    """Quadratic / affine / quadratic ramp with plateaus of slope change at b, c.

    With s = d + c - a - b:
    cdf(x) = (x-a)^2 / (s (b-a))       on [a, b]
           = (2x - a - b) / s          on [b, c]
           = 1 - (d-x)^2 / (s (d-c))   on [c, d]
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (self.a < self.b < self.c < self.d):
            raise ValueError(
                f"require a < b < c < d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )

    @property
    def support(self) -> tuple[float, float]:
        return self.a, self.d

    @property
    def _span(self) -> float:
        return self.d + self.c - self.a - self.b

    def cdf(self, x: float) -> float:
        a, b, c, d, s = self.a, self.b, self.c, self.d, self._span
        if x <= a:
            return 0.0
        if x >= d:
            return 1.0
        if x <= b:
            return (x - a) ** 2 / (s * (b - a))
        if x <= c:
            return (2.0 * x - a - b) / s
        return 1.0 - (d - x) ** 2 / (s * (d - c))

    def inverse(self, gamma: float) -> float:
        gamma = _require_alpha_open(gamma, "gamma")
        a, b, c, d, s = self.a, self.b, self.c, self.d, self._span
        knee_b = (b - a) / s
        knee_c = (2.0 * c - a - b) / s
        if gamma <= knee_b:
            return a + math.sqrt(gamma * s * (b - a))
        if gamma <= knee_c:
            return ((a + b) + gamma * s) / 2.0
        return d - math.sqrt((1.0 - gamma) * s * (d - c))

    def expected_value(self) -> float:
        a, b, c, d, s = self.a, self.b, self.c, self.d, self._span
        return ((d**3 - c**3) / (d - c) - (b**3 - a**3) / (b - a)) / (3.0 * s)

    def to_piecewise(self) -> PiecewiseDistribution:
        return PiecewiseDistribution.from_family((self.a, self.b, self.c, self.d))


NativeDistribution = Union[
    LinearDistribution, TriangularDistribution, TrapezoidalDistribution
]
Distribution = Union[NativeDistribution, PiecewiseDistribution]


# ---------------------------------------------------------------------------
# Critical values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionCriterion:
    """Optimistic(alpha), pessimistic(alpha) or expected.

    It picks a critical value of a single-fold UD, and collapses the band
    of a two-fold variable to one level (see :mod:`ugp.twofold`).
    """

    kind: str  # "optimistic" | "pessimistic" | "expected"
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("optimistic", "pessimistic", "expected"):
            raise ValueError(f"unknown reduction kind {self.kind!r}")
        if self.kind == "expected":
            if self.alpha is not None:
                raise ValueError("expected reduction takes no alpha")
        else:
            _require_alpha_open(self.alpha)

    @classmethod
    def optimistic(cls, alpha: float) -> "ReductionCriterion":
        return cls("optimistic", alpha)

    @classmethod
    def pessimistic(cls, alpha: float) -> "ReductionCriterion":
        return cls("pessimistic", alpha)

    @classmethod
    def expected(cls) -> "ReductionCriterion":
        return cls("expected")

    def multiplier(self, theta_l: float, theta_r: float) -> float:
        """Scalar k such that the reduced level is base - k * band_term."""
        if self.kind == "optimistic":
            return self.alpha * theta_l - (1.0 - self.alpha) * theta_r
        if self.kind == "pessimistic":
            return (1.0 - self.alpha) * theta_l - self.alpha * theta_r
        return (theta_l - theta_r) / 2.0


def inverse_cdf(ud: Distribution, gamma: float) -> float:
    """Generic inverse inf{x : cdf(x) >= gamma}, gamma in (0, 1), always
    through the piecewise form (``ud.inverse`` is a native closed form)."""
    return ud.to_piecewise().inverse(gamma)


def expected_value(ud: Distribution, method: str = "analytic") -> float:
    """Integral of the inverse distribution over (0, 1), always through the
    piecewise form (``ud.expected_value`` is a native closed form).

    ``method="analytic"`` sums per-piece closed-form antiderivatives
    (the inverse of every piece is affine or of the form
    p +/- sqrt(q + r*gamma)); ``method="simpson"`` integrates the inverse
    by adaptive quadrature instead (tolerance 1e-10, depth cap 60).  The
    two agree to well below 1e-8 on every family in this package.
    """
    pw = ud.to_piecewise()
    if method == "analytic":
        return pw.expected_value()
    if method == "simpson":
        return pw.expected_by_quadrature()
    raise ValueError(f"unknown method {method!r}")


def critical_value(ud: Distribution, query: ReductionCriterion) -> float:
    """Optimistic/pessimistic value at a level, or the expected value.

    optimistic(alpha) is ``ud.inverse(1 - alpha)``, pessimistic(alpha)
    ``ud.inverse(alpha)`` and expected ``ud.expected_value()``: the family
    closed forms on a native distribution -- for expected values (a+b)/2,
    (a+b+c)/3 and the cubic difference quotient -- and the generic
    inverse and piecewise integral on a PiecewiseDistribution.  Both
    routes agree on the native families.
    """
    if query.kind == "optimistic":
        return ud.inverse(1.0 - query.alpha)
    if query.kind == "pessimistic":
        return ud.inverse(query.alpha)
    return ud.expected_value()


# ---------------------------------------------------------------------------
# Regularity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Result of densely sampling a distribution for monotonicity."""

    passed: bool
    max_decrease: float
    violations: tuple[tuple[float, float, float], ...]  # (x_left, x_right, drop)
    value_at_lower: float
    value_at_upper: float
    grid_points: int


def check_regularity(
    ud: Distribution,
    grid_points: int = 10_000,
    max_reported: int = 10,
) -> RegularityReport:
    """Sample the UD on a uniform grid over [lo - 1, hi + 1] and flag decreases.

    A decrease larger than 1e-12 between consecutive grid points is a
    violation; up to ``max_reported`` of them are listed.  Boundary values
    at the support endpoints are reported as well.  The piecewise form of
    the UD is sampled, grid and endpoints in one array call.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points!r}")
    pw = ud.to_piecewise()
    lo, hi = pw.support
    left, right = lo - 1.0, hi + 1.0
    step = (right - left) / (grid_points - 1)
    xs = left + np.arange(grid_points) * step
    values = pw.cdf(np.append(xs, (lo, hi)))
    drops = values[: grid_points - 1] - values[1:grid_points]
    rises = drops[drops > 0.0]
    bad = np.flatnonzero(drops > _REGULARITY_SLACK)[:max_reported]
    return RegularityReport(
        passed=not bad.size,
        max_decrease=float(rises.max()) if rises.size else 0.0,
        violations=tuple(
            (float(xs[j]), float(xs[j + 1]), float(drops[j])) for j in bad
        ),
        value_at_lower=float(values[-2]),
        value_at_upper=float(values[-1]),
        grid_points=grid_points,
    )
