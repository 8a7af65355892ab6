"""Geometric programming under two-fold uncertainty.

Public surface: the single-fold distribution machinery, two-fold
variables with their reduction criteria, the posynomial GP dual solver,
and the chance-constrained pipeline tying them together.  Each module's
``__all__`` declares its share; this package re-exports their union.
"""

from . import chance, distributions, errors, gp, twofold
from .chance import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .gp import *  # noqa: F401,F403
from .twofold import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (chance, distributions, errors, gp, twofold)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
