"""Exception types shared across the package."""


class AlphaOutOfRange(ValueError):
    """A confidence/criterion level lies outside the open interval (0, 1)."""


class YOutOfRange(ValueError):
    """A measure argument lies outside [0, 1]."""


class QuadratureNonConvergence(RuntimeError):
    """Adaptive quadrature failed to reach tolerance within the depth cap."""


class DegreeOfDifficultyNegative(ValueError):
    """Fewer dual variables than dual conditions (N < n + 1); the dual
    system is overdetermined and no exact dual solution exists."""


class InfeasibleDual(RuntimeError):
    """The dual normality/orthogonality conditions admit no nonnegative
    solution."""


class NonConvergence(RuntimeError):
    """Iterative dual maximization did not converge within the iteration
    budget."""


class RankDeficient(RuntimeError):
    """The stacked exponent system for primal recovery has rank < n."""


class NumericalRangeError(ValueError):
    """A solve's dual value, x* or objective overflowed or underflowed the
    positive finite double-precision range."""


class ProblemFormatError(ValueError):
    """A problem file does not conform to the expected schema."""
