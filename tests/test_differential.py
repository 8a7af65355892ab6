"""``sweep`` against a route that imports nothing from ``ugp``.

Random two-fold coefficients in the shape of the bundled benchmarks (three
objective terms and one constraint term with the exponents
``support.BENCHMARK_EXPONENTS``), under a random criterion and confidence
level, go through ``sweep`` and through the oracles of ``support.py``: the
objective betas are the band-formula expected values, the constraint
coefficient c is the band-formula inverse at gamma, found by bisection,
and the row is the exact degree-of-difficulty-0 solution.  x*, delta* and
the objective agree to 1e-9 relative.
"""

from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ugp.chance import SweepRow, UncertainGPProblem, UncertainTerm, sweep
from ugp.twofold import ReductionCriterion, TwoFoldVariable

from support import (
    BENCHMARK_EXPONENTS,
    dod0_benchmark_row,
    reduced_cdf_oracle,
    reduced_expected_oracle,
)

SECTIONS = 1024  # subintervals per bisection pass


@st.composite
def coefficients(draw) -> tuple[str, tuple[float, ...], float, float]:
    """(family, params, theta_l, theta_r) with a positive support."""
    family = draw(st.sampled_from(["triangular", "trapezoidal"]))
    start = draw(st.floats(0.5, 50.0))
    steps = draw(st.lists(st.floats(0.1, 20.0), min_size=2, max_size=2))
    if family == "trapezoidal":
        steps.append(draw(st.floats(0.1, 20.0)))
    theta_l, theta_r = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    return family, tuple(accumulate([start, *steps])), theta_l, theta_r


criteria = st.one_of(
    st.just(("expected", None)),
    st.tuples(
        st.sampled_from(["optimistic", "pessimistic"]), st.floats(0.01, 0.99)
    ),
)


def oracle_inverse(cdf, lo: float, hi: float, gamma: float) -> float:
    """inf{x : cdf(x) >= gamma} for a nondecreasing cdf with cdf(lo) <
    gamma <= cdf(hi): each pass evaluates the cdf on a grid over the
    bracket at once and keeps the subinterval where it reaches gamma."""
    while True:
        x = np.linspace(lo, hi, SECTIONS + 1)
        i = int(np.argmax(cdf(x[1:]) >= gamma)) + 1
        if (x[i - 1], x[i]) == (lo, hi):
            return hi
        lo, hi = float(x[i - 1]), float(x[i])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    terms=st.lists(coefficients(), min_size=4, max_size=4),
    criterion=criteria,
    gamma=st.floats(0.02, 0.98),
)
def test_sweep_agrees_with_the_oracle_route(terms, criterion, gamma):
    kind, alpha = criterion
    *objective, constraint = terms
    betas = tuple(reduced_expected_oracle(*term, kind, alpha) for term in objective)
    family, params, theta_l, theta_r = constraint

    def cdf(x):
        return reduced_cdf_oracle(family, params, theta_l, theta_r, kind, alpha, x)

    c = oracle_inverse(cdf, params[0], params[-1], gamma)
    expected = dod0_benchmark_row(betas, c)

    uncertain = [
        UncertainTerm(TwoFoldVariable(*term), tuple(row))
        for term, row in zip(terms, BENCHMARK_EXPONENTS)
    ]
    problem = UncertainGPProblem(
        objective=tuple(uncertain[:3]), constraints=((uncertain[3],),)
    )
    (row,) = sweep(problem, [gamma], ReductionCriterion(kind, alpha))
    assert isinstance(row, SweepRow), row
    got = (*row.x_star, *row.delta_star, row.expected_objective)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)
