"""Exception types shared across the package, and the CLI exit code of each.

Every error the package raises derives from :class:`UGPError` and carries
its exit code as the class attribute ``exit_code``; a plain ``ValueError``
from outside the package maps to ``EXIT_DOMAIN`` as well.
"""

__all__ = [
    "UGPError",
    "AlphaOutOfRange",
    "YOutOfRange",
    "QuadratureNonConvergence",
    "DegreeOfDifficultyNegative",
    "InfeasibleDual",
    "NonConvergence",
    "RankDeficient",
    "NumericalRangeError",
    "ProblemFormatError",
]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_DOD = 4
EXIT_NONCONVERGENCE = 5


class UGPError(Exception):
    """Base of the package's errors: invalid values, infeasible or
    rank-deficient models and everything else without a code of its own."""

    exit_code = EXIT_DOMAIN


class AlphaOutOfRange(UGPError, ValueError):
    """A confidence/criterion level lies outside the open interval (0, 1)."""


class YOutOfRange(UGPError, ValueError):
    """A measure argument lies outside [0, 1]."""


class QuadratureNonConvergence(UGPError, RuntimeError):
    """Adaptive quadrature failed to reach tolerance within the depth cap."""


class DegreeOfDifficultyNegative(UGPError, ValueError):
    """Fewer dual variables than dual conditions (N < n + 1); the dual
    system is overdetermined and no exact dual solution exists."""

    exit_code = EXIT_DOD


class InfeasibleDual(UGPError, RuntimeError):
    """The dual normality/orthogonality conditions admit no nonnegative
    solution."""


class NonConvergence(UGPError, RuntimeError):
    """Iterative dual maximization did not converge within the iteration
    budget."""

    exit_code = EXIT_NONCONVERGENCE


class RankDeficient(UGPError, RuntimeError):
    """The stacked exponent system for primal recovery has rank < n."""


class NumericalRangeError(UGPError, ValueError):
    """A solve's dual value, x* or objective overflowed or underflowed the
    positive finite double-precision range."""


class ProblemFormatError(UGPError, ValueError):
    """A problem file does not conform to the expected schema."""

    exit_code = EXIT_PARSE
