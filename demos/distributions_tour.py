"""Tour of the single-fold distribution machinery.

Walks through the native families, evaluation and inversion, the three
critical values, and the two independent expectation paths.
"""

import numpy as np

from ugp import (
    ReductionCriterion,
    LinearDistribution,
    TrapezoidalDistribution,
    TriangularDistribution,
    check_regularity,
    critical_value,
    expected_value,
    inverse_cdf,
)

# A triangular distribution ramps up quadratically to its mode, then the
# complement ramps down quadratically.
tri = TriangularDistribution(2, 4, 5)
print("triangular(2, 4, 5)")
print(f"  cdf(3)   = {tri.cdf(3):.6f}   (quadratic ramp)")
print(f"  cdf(4)   = {tri.cdf(4):.6f}   (value at the mode is (b-a)/(c-a))")
print(f"  inverse(1/6) = {inverse_cdf(tri, 1/6):.6f}")

# Optimistic and pessimistic values are the inverse at 1 - alpha and alpha;
# the expected value integrates the inverse over the whole unit interval.
alpha = 2 / 3
print(f"  optimistic({alpha:.3f})  = {critical_value(tri, ReductionCriterion.optimistic(alpha)):.6f}")
print(f"  pessimistic({alpha:.3f}) = {critical_value(tri, ReductionCriterion.pessimistic(alpha)):.6f}")
print(f"  expected value      = {critical_value(tri, ReductionCriterion.expected()):.6f} "
      f"(= (a+b+c)/3 = {(2+4+5)/3:.6f})")

# The generic piecewise carrier reproduces the family exactly, and the
# analytic expectation agrees with adaptive Simpson quadrature.
pw = tri.to_piecewise()
print(f"  analytic expectation = {expected_value(pw, 'analytic'):.12f}")
print(f"  simpson  expectation = {expected_value(pw, 'simpson'):.12f}")

# Same story for the other families.
lin = LinearDistribution(0, 1)
tra = TrapezoidalDistribution(2, 4, 6, 8)
print("\nlinear(0, 1) and trapezoidal(2, 4, 6, 8)")
print(f"  E[linear]      = {expected_value(lin):.6f}")
print(f"  E[trapezoidal] = {expected_value(tra):.6f}   (symmetric around 5)")
print(f"  trapezoidal cdf(5) = {tra.cdf(5):.6f}")

# Regularity check: dense sampling for monotonicity plus boundary values.
report = check_regularity(tra)
print(f"\nregularity of trapezoidal(2, 4, 6, 8): passed={report.passed}, "
      f"max decrease={report.max_decrease:.2e}")

# Quantiles across a grid land back on the same levels (roundtrip).
worst = max(
    abs(tra.cdf(inverse_cdf(tra, g)) - g) for g in np.linspace(0.01, 0.99, 99)
)
print(f"roundtrip |cdf(inverse(g)) - g| worst case: {worst:.2e}")
