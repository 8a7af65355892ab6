"""Chance-constrained GP with two-fold uncertain coefficients.

Pipeline: a posynomial program whose coefficients are two-fold uncertain
variables is first reduced (coefficient by coefficient) to single-fold
distributions under a chosen criterion; the chance-constrained program --
minimize the expected objective subject to each constraint holding with
uncertain measure at least gamma -- is then transformed into a
deterministic posynomial GP:

* every objective coefficient becomes the expected value of its reduced
  distribution (independent of gamma);
* every constraint coefficient becomes the inverse of its reduced
  distribution at gamma.

The deterministic program is solved by the dual method and the optimal
point, dual weights and expected objective are reported.  A sweep solves
a whole grid of confidence levels as one batch.  Once per sweep: the
reduction, the objective coefficients and the dual structure, which
depends on the exponents alone (at degree of difficulty zero that fixes
the dual weights for every row; otherwise the phase-I point and null
space that start Newton).  Per row: the constraint inverses at gamma and
the gamma-dependent part of the pipeline -- Newton when the degree of
difficulty is positive, the dual value, one shared least-squares
recovery and verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .distributions import PiecewiseDistribution, _require_alpha_open
from .gp import DeterministicGP, DualStructure, GPDiagnostics, Posynomial
from .twofold import ReductionCriterion, TwoFoldVariable, reduce_twofold

__all__ = [
    "UncertainTerm",
    "UncertainGPProblem",
    "ChanceConfig",
    "ReducedGPProblem",
    "SweepRow",
    "FailedRow",
    "reduce_problem",
    "deterministic_form",
    "solve_chance",
    "sweep",
]


@dataclass(frozen=True)
class UncertainTerm:
    """Two-fold coefficient times prod_j x_j**exponent_j, exponents finite."""

    coefficient: TwoFoldVariable
    exponents: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.exponents)):
            raise ValueError(
                f"posynomial exponents must be finite, got {self.exponents}"
            )


@dataclass(frozen=True)
class UncertainGPProblem:
    """Posynomial program with independent two-fold uncertain coefficients."""

    objective: tuple[UncertainTerm, ...]
    constraints: tuple[tuple[UncertainTerm, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.objective:
            raise ValueError("objective needs at least one term")
        widths = {len(t.exponents) for t in self.objective}
        for block in self.constraints:
            if not block:
                raise ValueError("constraint blocks cannot be empty")
            widths |= {len(t.exponents) for t in block}
        if len(widths) != 1:
            raise ValueError("all exponent vectors must have equal length")

    @property
    def n_variables(self) -> int:
        return len(self.objective[0].exponents)


@dataclass(frozen=True)
class ChanceConfig:
    """Confidence level for the chance constraints plus reduction criterion."""

    gamma: float
    reduction: ReductionCriterion = field(
        default_factory=ReductionCriterion.expected
    )

    def __post_init__(self) -> None:
        _require_alpha_open(self.gamma, "gamma")


@dataclass(frozen=True)
class ReducedGPProblem:
    """Same structure as the uncertain problem, coefficients reduced."""

    objective: tuple[tuple[PiecewiseDistribution, tuple[float, ...]], ...]
    constraints: tuple[
        tuple[tuple[PiecewiseDistribution, tuple[float, ...]], ...], ...
    ]


def reduce_problem(
    problem: UncertainGPProblem, criterion: ReductionCriterion
) -> ReducedGPProblem:
    """Reduce every coefficient under one shared criterion; exponents unchanged."""

    def reduce_block(block: tuple[UncertainTerm, ...]):
        return tuple(
            (reduce_twofold(t.coefficient, criterion), t.exponents) for t in block
        )

    return ReducedGPProblem(
        objective=reduce_block(problem.objective),
        constraints=tuple(reduce_block(block) for block in problem.constraints),
    )


def _require_positive_support(ud: PiecewiseDistribution) -> None:
    lo, _ = ud.support
    if lo <= 0.0:
        raise ValueError(
            f"coefficient support touches {lo} <= 0; posynomial coefficients "
            "must stay positive"
        )


def _objective_posynomial(reduced: ReducedGPProblem) -> Posynomial:
    for ud, _ in reduced.objective:
        _require_positive_support(ud)
    return Posynomial(
        coefficients=tuple(ud.expected_value() for ud, _ in reduced.objective),
        exponents=tuple(exps for _, exps in reduced.objective),
    )


def _constraint_coefficients(
    reduced: ReducedGPProblem, gamma: float
) -> list[tuple[float, ...]]:
    """Per constraint block, the reduced inverses at gamma."""
    _require_alpha_open(gamma, "gamma")
    coefficients = []
    for block in reduced.constraints:
        for ud, _ in block:
            _require_positive_support(ud)
        coefficients.append(tuple(ud.inverse(gamma) for ud, _ in block))
    return coefficients


def deterministic_form(
    reduced: ReducedGPProblem, gamma: float
) -> DeterministicGP:
    """Deterministic GP equivalent at confidence level gamma.

    Objective coefficients take the expected value of their reduced
    distribution; constraint coefficients take the reduced inverse at
    gamma.  Coefficients whose support touches zero or below are rejected
    since the transformation relies on the coefficients entering the
    posynomials positively.
    """
    return DeterministicGP(
        objective=_objective_posynomial(reduced),
        constraints=tuple(
            Posynomial(coefficients, tuple(exps for _, exps in block))
            for coefficients, block in zip(
                _constraint_coefficients(reduced, gamma), reduced.constraints
            )
        ),
    )


@dataclass(frozen=True)
class SweepRow:
    """One solved confidence level: the decision vector, the dual weights,
    the expected objective value and the solve's consistency report."""

    gamma: float
    x_star: tuple[float, ...]
    delta_star: tuple[float, ...]
    expected_objective: float
    diagnostics: GPDiagnostics


@dataclass(frozen=True)
class FailedRow:
    """A confidence level whose solve failed; sweeps keep going.

    ``error`` and ``message`` are the class name and text of
    ``exception``, the instance the solve raised.
    """

    gamma: float
    error: str
    message: str
    exception: Exception = field(compare=False, repr=False)


def solve_chance(problem: UncertainGPProblem, config: ChanceConfig) -> SweepRow:
    """Reduce, transform at config.gamma, solve by the dual method: a sweep
    over the one level, raising the row's exception if it fails."""
    (row,) = sweep(problem, [config.gamma], config.reduction)
    if isinstance(row, FailedRow):
        raise row.exception
    return row


def sweep(
    problem: UncertainGPProblem,
    gammas: list[float],
    criterion: ReductionCriterion | None = None,
) -> list[SweepRow | FailedRow]:
    """Solve one row per confidence level, in input order.

    The reduction, the gamma-free objective coefficients and the dual
    structure are computed once, and all rows are solved as one batch.
    An objective coefficient whose support touches zero fails the whole
    sweep and is raised.  Otherwise a failing level produces a FailedRow
    instead of aborting the sweep: invalid gammas and constraint
    coefficients that touch zero fail their rows before the batch solve.
    """
    criterion = criterion if criterion is not None else ReductionCriterion.expected()
    reduced = reduce_problem(problem, criterion)
    objective = _objective_posynomial(reduced)
    outcomes: list = []
    solved: list[int] = []
    coefficients: list[tuple[float, ...]] = []
    for i, gamma in enumerate(gammas):
        try:
            blocks = _constraint_coefficients(reduced, gamma)
        except ValueError as exc:
            outcomes.append(exc)
            continue
        outcomes.append(None)
        solved.append(i)
        coefficients.append(objective.coefficients + sum(blocks, ()))
    terms = (reduced.objective, *reduced.constraints)
    structure = DualStructure.from_blocks([[e for _, e in block] for block in terms])
    for i, solution in zip(solved, structure.solve(coefficients)):
        outcomes[i] = solution if isinstance(solution, Exception) else SweepRow(
            gamma=gammas[i],
            x_star=solution.primal_x,
            delta_star=solution.delta,
            expected_objective=solution.diagnostics.primal_objective,
            diagnostics=solution.diagnostics,
        )
    return [
        FailedRow(gamma, type(outcome).__name__, str(outcome), outcome)
        if isinstance(outcome, Exception)
        else outcome
        for gamma, outcome in zip(gammas, outcomes)
    ]
