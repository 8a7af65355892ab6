"""The package surface: ``ugp`` exports exactly its modules' public names.

``ugp.__all__`` is the list below, each name in it is the very object its
defining module binds, and no other public name (such as the ``EXIT_*``
codes of ``ugp.errors``) is bound in ``ugp`` apart from its submodules.
"""

import importlib
import types

import ugp

PUBLIC = [
    "AlphaOutOfRange",
    "DegreeOfDifficultyNegative",
    "DeterministicGP",
    "DualProblem",
    "DualSolution",
    "DualStructure",
    "FailedRow",
    "GPDiagnostics",
    "InfeasibleDual",
    "LinearDistribution",
    "NonConvergence",
    "NumericalRangeError",
    "PiecewiseDistribution",
    "Posynomial",
    "ProblemFormatError",
    "QuadratureNonConvergence",
    "RankDeficient",
    "ReducedGPProblem",
    "ReductionCriterion",
    "RegularityReport",
    "SweepRow",
    "TrapezoidalDistribution",
    "TriangularDistribution",
    "TwoFoldSurfacePoint",
    "TwoFoldVariable",
    "UGPError",
    "UncertainGPProblem",
    "UncertainTerm",
    "YOutOfRange",
    "build_dual",
    "check_regularity",
    "critical_value",
    "curve_samples",
    "degree_of_difficulty",
    "deterministic_form",
    "expected_value",
    "inverse_cdf",
    "reduce_problem",
    "reduce_twofold",
    "solve_chance",
    "solve_gp",
    "surface_at",
    "sweep",
    "twofold_cdf",
    "verify_solution",
]


def test_all_is_the_public_list():
    assert ugp.__all__ == PUBLIC


def test_each_name_is_the_object_of_its_defining_module():
    for name in PUBLIC:
        obj = getattr(ugp, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("ugp."), (name, home)
        assert getattr(home, name) is obj, name


def test_no_other_public_name_is_bound():
    public = {
        name
        for name, value in vars(ugp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(PUBLIC)
