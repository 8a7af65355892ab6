"""Two-fold variables and their reduction to single-fold distributions.

Shows the per-x distribution band, the three reduction criteria, the
identities linking them, and the curve-dump facility behind `ugp reduce`.
"""

import csv

import numpy as np

from ugp import (
    ReductionCriterion,
    TwoFoldVariable,
    curve_samples,
    reduce_twofold,
    surface_at,
    twofold_cdf,
)

# A triangular two-fold variable: at each x inside the support the
# distribution level is itself uncertain, spread over a band whose width
# is controlled by the left/right uncertainty degrees.
tf = TwoFoldVariable.triangular(2, 4, 5, theta_l=0.5, theta_r=0.6)

point = surface_at(tf, 3.0)
print(f"band at x=3: [{point.lower:.6f}, {point.upper:.6f}]")
print(f"  surface cdf at the band midpoint: "
      f"{twofold_cdf(tf, 3.0, (point.lower + point.upper) / 2):.3f}")
print(f"  at the mode the band collapses: {surface_at(tf, 4.0).value:.6f}")

# Reduction collapses the band with one of three criteria.  The expected
# criterion is the optimistic one at level 1/2; the pessimistic criterion
# mirrors the optimistic one.
expected = reduce_twofold(tf, ReductionCriterion.expected())
optimistic = reduce_twofold(tf, ReductionCriterion.optimistic(0.9))
pessimistic = reduce_twofold(tf, ReductionCriterion.pessimistic(0.1))

print("\nreduced values at x = 3.0:")
print(f"  expected         : {expected.cdf(3.0):.6f}")
print(f"  optimistic (0.9) : {optimistic.cdf(3.0):.6f}")
print(f"  pessimistic (0.1): {pessimistic.cdf(3.0):.6f}  (equals optimistic at 0.9)")

mirror_gap = max(
    abs(pessimistic.cdf(x) - optimistic.cdf(x)) for x in np.linspace(2, 5, 500)
)
print(f"  pessimistic(0.1) vs optimistic(0.9) worst gap: {mirror_gap:.2e}")

# Reduced inverses drive the chance-constrained transformation downstream.
print("\nreduced inverse (expected criterion):")
for gamma in (0.1, 0.5, 2 / 3, 0.9):
    print(f"  gamma={gamma:.3f} -> {expected.inverse(gamma):.6f}")

# Curve dump: the same data the `ugp reduce` subcommand writes as CSV,
# here for a trapezoidal variable under all three criteria.
tra = TwoFoldVariable.trapezoidal(2, 4, 6, 8, theta_l=0.5, theta_r=0.6)
criteria = [
    ReductionCriterion.expected(),
    ReductionCriterion.optimistic(0.9),
    ReductionCriterion.pessimistic(0.9),
]
xs, columns = curve_samples(tra, criteria, samples=501)
with open("reduction_curves.csv", "w", newline="") as handle:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["x", "expected", "optimistic_0.9", "pessimistic_0.9"])
    for i, x in enumerate(xs):
        writer.writerow([f"{x:.6f}"] + [f"{col[i]:.6f}" for col in columns])
print(f"\nwrote reduction_curves.csv ({len(xs)} samples, {len(columns)} criteria)")
