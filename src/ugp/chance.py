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
point, dual weights and expected objective are reported; a sweep
evaluates a whole grid of confidence levels, reusing the gamma-free
objective coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distributions import PiecewiseDistribution
from .errors import AlphaOutOfRange
from .gp import DeterministicGP, Posynomial, solve_gp
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
    coefficient: TwoFoldVariable
    exponents: tuple[float, ...]


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
        if not 0.0 < self.gamma < 1.0:
            raise AlphaOutOfRange(
                f"gamma must lie strictly inside (0, 1), got {self.gamma!r}"
            )


@dataclass(frozen=True)
class ReducedGPProblem:
    """Same structure as the uncertain problem, coefficients reduced."""

    objective: tuple[tuple[PiecewiseDistribution, tuple[float, ...]], ...]
    constraints: tuple[
        tuple[tuple[PiecewiseDistribution, tuple[float, ...]], ...], ...
    ]

    @property
    def n_variables(self) -> int:
        return len(self.objective[0][1])


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


def _constraint_posynomials(
    reduced: ReducedGPProblem, gamma: float
) -> tuple[Posynomial, ...]:
    if not 0.0 < gamma < 1.0:
        raise AlphaOutOfRange(
            f"gamma must lie strictly inside (0, 1), got {gamma!r}"
        )
    constraints = []
    for block in reduced.constraints:
        for ud, _ in block:
            _require_positive_support(ud)
        constraints.append(
            Posynomial(
                coefficients=tuple(ud.inverse(gamma) for ud, _ in block),
                exponents=tuple(exps for _, exps in block),
            )
        )
    return tuple(constraints)


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
        constraints=_constraint_posynomials(reduced, gamma),
    )


@dataclass(frozen=True)
class SweepRow:
    """One solved confidence level: the decision vector, the dual weights
    and the expected objective value."""

    gamma: float
    x_star: tuple[float, ...]
    delta_star: tuple[float, ...]
    expected_objective: float


@dataclass(frozen=True)
class FailedRow:
    """A confidence level whose solve failed; sweeps keep going."""

    gamma: float
    error: str
    message: str


def _solve_row(
    objective: Posynomial, reduced: ReducedGPProblem, gamma: float
) -> SweepRow:
    gp = DeterministicGP(
        objective=objective, constraints=_constraint_posynomials(reduced, gamma)
    )
    solution = solve_gp(gp)
    return SweepRow(
        gamma=gamma,
        x_star=solution.primal_x,
        delta_star=solution.delta,
        expected_objective=solution.diagnostics.primal_objective,
    )


def solve_chance(problem: UncertainGPProblem, config: ChanceConfig) -> SweepRow:
    """Reduce, transform at config.gamma, solve by the dual method."""
    reduced = reduce_problem(problem, config.reduction)
    return _solve_row(_objective_posynomial(reduced), reduced, config.gamma)


def sweep(
    problem: UncertainGPProblem,
    gammas: list[float],
    criterion: ReductionCriterion | None = None,
) -> list[SweepRow | FailedRow]:
    """Solve one row per confidence level, in input order.

    The reduction and the gamma-free objective coefficients are computed
    once.  A failing level produces a FailedRow instead of aborting the
    whole sweep.
    """
    criterion = criterion if criterion is not None else ReductionCriterion.expected()
    reduced = reduce_problem(problem, criterion)
    objective = _objective_posynomial(reduced)
    rows: list[SweepRow | FailedRow] = []
    for gamma in gammas:
        try:
            rows.append(_solve_row(objective, reduced, gamma))
        except (ValueError, RuntimeError) as exc:
            rows.append(
                FailedRow(gamma=gamma, error=type(exc).__name__, message=str(exc))
            )
    return rows
