"""Two-fold uncertain variables and their reduction to single-fold UDs.

A two-fold variable is one whose distribution value at each point is
itself uncertain: at every x strictly inside a ramp of the base family
the distribution level is a linear UD over a band [A(x), B(x)] whose
width is controlled by the left/right uncertainty degrees theta_l and
theta_r.  At the slope-change abscissas of the base family the band
collapses to the plateau constant, and outside the support the value is
the crisp 0 or 1.

Reduction collapses the band at each x to a single level using one of
three criteria applied to the linear band:

* optimistic at level alpha:   alpha*A + (1-alpha)*B
* pessimistic at level alpha:  (1-alpha)*A + alpha*B
* expected:                    (A + B) / 2

All three produce ``base(x) - k * band_halfwidth_term(x)`` with a single
scalar multiplier k, and so do the band edges themselves: A is that
expression at k = theta_l and B at k = -theta_r.  Everything here is
therefore read off one family table,
:meth:`ugp.distributions.PiecewiseDistribution.from_family` at some k:
the surface, the base family (k = 0) and every reduced distribution.  The
quadratic ramps split where the band-width minimum switches branch (at
a + (b-a)/sqrt(2) style points), the affine ramp of a trapezoid splits
at (b+c)/2.  Since the band width vanishes at the plateau abscissas,
every reduced distribution is continuous and, for admissible alpha,
strictly increasing on its support.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import (
    PiecewiseDistribution,
    ReductionCriterion,
    TrapezoidalDistribution,
    TriangularDistribution,
)
from .errors import YOutOfRange

__all__ = [
    "ReductionCriterion",
    "TwoFoldVariable",
    "TwoFoldSurfacePoint",
    "surface_at",
    "twofold_cdf",
    "reduce_twofold",
    "curve_samples",
]


@dataclass(frozen=True)
class TwoFoldVariable:
    """Triangular or trapezoidal two-fold uncertain variable.

    ``params`` is (a, b, c) or (a, b, c, d), finite and strictly increasing;
    theta_l and theta_r in [0, 1] scale the downward/upward half-widths
    of the per-x distribution band.  theta_l = theta_r = 0 collapses the
    band everywhere and the variable degenerates to its base family.
    """

    family: str  # "triangular" | "trapezoidal"
    params: tuple[float, ...]
    theta_l: float
    theta_r: float

    def __post_init__(self) -> None:
        expected_len = {"triangular": 3, "trapezoidal": 4}.get(self.family)
        if expected_len is None:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.params) != expected_len:
            raise ValueError(
                f"{self.family} family takes {expected_len} parameters, "
                f"got {len(self.params)}"
            )
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"family parameters must be finite, got {self.params}")
        for left, right in zip(self.params, self.params[1:]):
            if not left < right:
                raise ValueError(
                    f"family parameters must be strictly increasing, got {self.params}"
                )
        for name, theta in (("theta_l", self.theta_l), ("theta_r", self.theta_r)):
            if not 0.0 <= theta <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {theta}")

    @classmethod
    def triangular(
        cls, a: float, b: float, c: float, theta_l: float, theta_r: float
    ) -> "TwoFoldVariable":
        return cls("triangular", (a, b, c), theta_l, theta_r)

    @classmethod
    def trapezoidal(
        cls, a: float, b: float, c: float, d: float, theta_l: float, theta_r: float
    ) -> "TwoFoldVariable":
        return cls("trapezoidal", (a, b, c, d), theta_l, theta_r)

    @property
    def support(self) -> tuple[float, float]:
        return self.params[0], self.params[-1]

    def base_distribution(self) -> TriangularDistribution | TrapezoidalDistribution:
        if self.family == "triangular":
            return TriangularDistribution(*self.params)
        return TrapezoidalDistribution(*self.params)


@dataclass(frozen=True)
class TwoFoldSurfacePoint:
    """Band (or crisp constant) of distribution levels at a fixed abscissa."""

    x: float
    kind: str  # "constant" | "band"
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "band"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"envelope must satisfy 0 <= lower <= upper <= 1, "
                f"got ({self.lower}, {self.upper})"
            )

    @property
    def value(self) -> float:
        if self.kind != "constant":
            raise ValueError("band envelopes carry no single value")
        return self.lower


def surface_at(tf: TwoFoldVariable, x: float) -> TwoFoldSurfacePoint:
    """Envelope of distribution levels at x.

    Strictly inside a ramp the level is a linear band around the base
    family's value, with half-width theta * min(distance to the ramp's
    bottom level, distance to the ramp's top level): the family table at
    k = theta_l below, at k = -theta_r above.  At the support boundaries,
    outside the support and at the slope-change abscissas the level is the
    crisp base value.
    """
    lo, hi = tf.support
    if x <= lo or x >= hi or x in tf.params:
        level = PiecewiseDistribution.from_family(tf.params).cdf(x)
        return TwoFoldSurfacePoint(x, "constant", level, level)
    lower = PiecewiseDistribution.from_family(tf.params, tf.theta_l).cdf(x)
    upper = PiecewiseDistribution.from_family(tf.params, -tf.theta_r).cdf(x)
    # Where the band vanishes, or at theta = 1, rounding can push an edge
    # an ulp past 0, 1 or the other edge.
    lower, upper = max(lower, 0.0), min(upper, 1.0)
    return TwoFoldSurfacePoint(x, "band", min(lower, upper), upper)


def twofold_cdf(tf: TwoFoldVariable, x: float, y: float) -> float:
    """Two-fold distribution surface: the measure that the level at x is <= y.

    Inside a band this is the linear ramp of the band; at plateau
    abscissas the crisp plateau constant is returned for every y (the
    plateau convention of the surface definition).
    """
    if not 0.0 <= y <= 1.0:
        raise YOutOfRange(f"y must lie in [0, 1], got {y!r}")
    point = surface_at(tf, x)
    if point.kind == "constant":
        return point.value
    lo, hi = point.lower, point.upper
    if hi == lo:
        return 1.0 if y >= hi else 0.0
    if y <= lo:
        return 0.0
    if y >= hi:
        return 1.0
    return (y - lo) / (hi - lo)


def reduce_twofold(
    tf: TwoFoldVariable, criterion: ReductionCriterion
) -> PiecewiseDistribution:
    """Collapse a two-fold variable to its reduced single-fold distribution.

    The result is exact: reduced(x) = base(x) - k * band_term(x) with
    k = criterion.multiplier(theta_l, theta_r), which is the family table
    :meth:`PiecewiseDistribution.from_family` at that k.
    """
    k = criterion.multiplier(tf.theta_l, tf.theta_r)
    return PiecewiseDistribution.from_family(tf.params, k)


def curve_samples(
    tf: TwoFoldVariable,
    criteria: list[ReductionCriterion],
    samples: int = 1000,
) -> tuple[list[float], list[list[float]]]:
    """Sample reduced distribution curves for plotting/CSV dumps.

    Returns the shared abscissa grid across the support and one column of
    distribution values per criterion.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    lo, hi = tf.support
    step = (hi - lo) / (samples - 1)
    xs = lo + np.arange(operator.index(samples)) * step  # 10.0 raises, as range did
    xs[-1] = hi
    columns = [reduce_twofold(tf, criterion).cdf(xs).tolist() for criterion in criteria]
    return xs.tolist(), columns
