"""End-to-end chance-constrained GP: both bundled benchmarks.

Builds the uncertain problems from the packaged JSON files, walks one
confidence level through every pipeline stage, then sweeps the full grid
the way `ugp tables` does.
"""

from ugp import (
    ReductionCriterion,
    degree_of_difficulty,
    deterministic_form,
    reduce_problem,
    solve_chance,
    solve_gp,
    sweep,
)
from ugp.cli import bundled_problem_path, load_problem

names, problem = load_problem(bundled_problem_path("triangular_case.json"))
print(f"variables: {names}")

# Stage by stage at gamma = 0.5.  Reduction turns every two-fold
# coefficient into a piecewise distribution; the deterministic form takes
# expected values in the objective and reduced inverses in the constraint.
reduced = reduce_problem(problem, ReductionCriterion.expected())
gp = deterministic_form(reduced, gamma=0.5)
print("objective coefficients:",
      ", ".join(f"{c:.6f}" for c in gp.objective.coefficients))
print("constraint coefficient at gamma=0.5:",
      f"{gp.constraints[0].coefficients[0]:.6f}")
print("degree of difficulty:", degree_of_difficulty(gp))

# The dual has one normality and three orthogonality conditions; at
# degree of difficulty zero they pin the weights outright.
solution = solve_gp(gp)
print("dual weights:", ", ".join(f"{d:.6f}" for d in solution.delta))
print(f"dual value:   {solution.dual_value:.6f}")
print(f"x*:           ({', '.join(f'{v:.6f}' for v in solution.primal_x)})")
print(f"duality gap:  {solution.diagnostics.duality_gap_rel:.2e}")
print(f"constraint:   {solution.diagnostics.constraint_values[0]:.12f} (active)")

# One-call version of the same thing.
row = solve_chance(problem, 0.5)
print(f"solve_chance objective: {row.expected_objective:.6f}")

# Full sweeps over the confidence grid for both benchmarks; the expected
# objective grows with the confidence level.
grid = [round(0.1 * i, 12) for i in range(1, 10)]
for filename in ("triangular_case.json", "trapezoidal_case.json"):
    _, bench = load_problem(bundled_problem_path(filename))
    rows = sweep(bench, grid)
    print(f"\n{filename}:")
    print("  gamma   x1      x2      x3      objective")
    for r in rows:
        x = "  ".join(f"{v:.3f}" for v in r.x_star)
        print(f"  {r.gamma:.1f}   {x}   {r.expected_objective:9.3f}")
    values = [r.expected_objective for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))
    print("  expected objective is non-decreasing in gamma")
