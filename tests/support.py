"""Shared oracles and reference data for the test suite.

Everything here is deliberately independent of the package internals:
reduced distributions are evaluated from the band formulas directly,
expectations are computed by dense grid integration of 1 - cdf, the
benchmark tables are solved exactly from the dual conditions, and GP
minima are confirmed by multi-scale grid search in log space.  Nothing
here imports ugp; ``bench_module`` loads a module of the benchmark
directory, some of which do.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from pathlib import Path

import numpy as np

SQRT2 = math.sqrt(2.0)
BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """Import a module of the benchmark directory, which is no package."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


# ---------------------------------------------------------------------------
# Reduction oracle: band formula evaluated pointwise
# ---------------------------------------------------------------------------


def reduction_multiplier(kind: str, alpha: float | None, tl: float, tr: float) -> float:
    if kind == "optimistic":
        return alpha * tl - (1.0 - alpha) * tr
    if kind == "pessimistic":
        return (1.0 - alpha) * tl - alpha * tr
    return (tl - tr) / 2.0


def reduced_cdf_oracle(
    family: str,
    params: tuple[float, ...],
    tl: float,
    tr: float,
    kind: str,
    alpha: float | None,
    x: np.ndarray,
) -> np.ndarray:
    """Reduced single-fold cdf as base(x) - k * band_width_min(x), vectorized."""
    k = reduction_multiplier(kind, alpha, tl, tr)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if family == "triangular":
        a, b, c = params
        plateau = (b - a) / (c - a)
        top = (c - b) / (c - a)
        up = (x > a) & (x <= b)
        down = (x > b) & (x < c)
        q = (x[up] - a) ** 2 / ((b - a) * (c - a))
        out[up] = q - k * np.minimum(q, plateau - q)
        r = (c - x[down]) ** 2 / ((c - a) * (c - b))
        out[down] = 1.0 - r - k * np.minimum(top - r, r)
        out[x >= c] = 1.0
        return out
    a, b, c, d = params
    s = d + c - a - b
    plateau_b = (b - a) / s
    plateau_c = (2.0 * c - a - b) / s
    top = (d - c) / s
    up = (x > a) & (x <= b)
    mid = (x > b) & (x <= c)
    down = (x > c) & (x < d)
    q = (x[up] - a) ** 2 / (s * (b - a))
    out[up] = q - k * np.minimum(q, plateau_b - q)
    m = (2.0 * x[mid] - a - b) / s
    out[mid] = m - k * np.minimum(m - plateau_b, plateau_c - m)
    r = (d - x[down]) ** 2 / (s * (d - c))
    out[down] = 1.0 - r - k * np.minimum(top - r, r)
    out[x >= d] = 1.0
    return out


def expected_by_grid(
    cdf_vec, lo: float, hi: float, n: int = 2_000_001
) -> float:
    """E = lo + integral of (1 - cdf) over the support, by dense trapezoid."""
    x = np.linspace(lo, hi, n)
    return lo + float(np.trapezoid(1.0 - cdf_vec(x), x))


def reduced_expected_oracle(
    family: str,
    params: tuple[float, ...],
    tl: float,
    tr: float,
    kind: str = "expected",
    alpha: float | None = None,
) -> float:
    return expected_by_grid(
        lambda x: reduced_cdf_oracle(family, params, tl, tr, kind, alpha, x),
        params[0],
        params[-1],
    )


# ---------------------------------------------------------------------------
# Coefficients and published tables of the two bundled benchmark problems
# ---------------------------------------------------------------------------

# Coefficients of the triangular benchmark: (family params, theta_l, theta_r)
TRIANGULAR_COEFFICIENTS = {
    "obj1": ((10.0, 20.0, 25.0), 0.5, 0.6),
    "obj2": ((30.0, 40.0, 50.0), 0.4, 0.6),
    "obj3": ((15.0, 25.0, 30.0), 0.4, 0.5),
    "c1t1": ((6.0, 8.0, 9.0), 0.5, 0.7),
}

TRAPEZOIDAL_COEFFICIENTS = {
    "obj1": ((10.0, 15.0, 20.0, 25.0), 0.5, 0.6),
    "obj2": ((30.0, 40.0, 50.0, 60.0), 0.4, 0.6),
    "obj3": ((15.0, 20.0, 25.0, 30.0), 0.4, 0.5),
    "c1t1": ((6.0, 7.0, 8.0, 9.0), 0.5, 0.7),
}

# Published tables of the paper's numerical example, kept verbatim at
# their printed precision: gamma -> (x1, x2, x3, d1, d2, d3, d4, objective),
# and the expected objective coefficients (beta of obj1, obj2, obj3)
# printed with them.  They are not the acceptance reference: the
# trapezoidal betas break the translation law of the reduction, Table 2
# was computed from them, and the triangular objective column carries
# about 1e-2 of numerical noise.  test_published_tables.py proves each of
# these; criteria 1-3 compare against exact_table/exact_betas below.
PUBLISHED_TABLE_TRIANGULAR = {
    0.1: (2.930, 1.712, 1.344, 0.333, 0.333, 0.333, 0.667, 274.632),
    0.2: (2.974, 1.737, 1.364, 0.333, 0.333, 0.333, 0.667, 282.857),
    0.3: (3.006, 1.756, 1.379, 0.333, 0.333, 0.333, 0.667, 289.113),
    0.4: (3.035, 1.773, 1.392, 0.333, 0.333, 0.333, 0.667, 294.700),
    0.5: (3.063, 1.789, 1.405, 0.333, 0.333, 0.333, 0.667, 300.156),
    0.6: (3.088, 1.804, 1.416, 0.333, 0.333, 0.333, 0.667, 304.971),
    0.7: (3.109, 1.816, 1.425, 0.333, 0.333, 0.333, 0.667, 309.107),
    0.8: (3.128, 1.828, 1.435, 0.333, 0.333, 0.333, 0.667, 313.064),
    0.9: (3.156, 1.844, 1.447, 0.333, 0.333, 0.333, 0.667, 318.663),
}

PUBLISHED_TABLE_TRAPEZOIDAL = {
    0.1: (3.248, 1.579, 1.287, 0.333, 0.333, 0.333, 0.667, 273.098),
    0.2: (3.293, 1.601, 1.305, 0.333, 0.333, 0.333, 0.667, 280.738),
    0.3: (3.326, 1.617, 1.318, 0.333, 0.333, 0.333, 0.667, 286.393),
    0.4: (3.354, 1.631, 1.329, 0.333, 0.333, 0.333, 0.667, 291.273),
    0.5: (3.382, 1.645, 1.340, 0.333, 0.333, 0.333, 0.667, 296.112),
    0.6: (3.414, 1.660, 1.353, 0.333, 0.333, 0.333, 0.667, 301.699),
    0.7: (3.447, 1.676, 1.366, 0.333, 0.333, 0.333, 0.667, 307.496),
    0.8: (3.476, 1.690, 1.378, 0.333, 0.333, 0.333, 0.667, 312.825),
    0.9: (3.510, 1.707, 1.391, 0.333, 0.333, 0.333, 0.667, 318.927),
}

PUBLISHED_BETAS_TRIANGULAR = (18.252, 39.804, 23.252)
PUBLISHED_BETAS_TRAPEZOIDAL = (17.745, 44.779, 21.775)


# ---------------------------------------------------------------------------
# Reference piecewise inverses of the eight benchmark coefficients
# ---------------------------------------------------------------------------
# Branch formulas of the reduced (expected-criterion) distributions,
# transcribed independently of the package's segment algebra.  The
# descending quadratic branch of the two trapezoidal coefficients with
# multiplier -1/20 carries one corrected constant (2000/21 where a
# dropped zero would make the inverse jump from 20 to 15.55 at
# gamma = 3/4; continuity at both branch ends forces 2000/21).


def inverse_tri_18(gamma: float) -> float:
    """Reduced TRI(10, 20, 25; 0.5, 0.6), expected criterion."""
    if gamma <= 7 / 20:
        return 10 + math.sqrt(1000 / 7 * gamma)
    if gamma <= 2 / 3:
        return 10 + math.sqrt(3000 / 19 * gamma - 100 / 19)
    if gamma <= 101 / 120:
        return 25 - math.sqrt(1525 / 21 - 500 / 7 * gamma)
    return 25 - math.sqrt(1500 / 19 * (1 - gamma))


def inverse_tri_39(gamma: float) -> float:
    """Reduced TRI(30, 40, 50; 0.4, 0.6), expected criterion."""
    if gamma <= 11 / 40:
        return 30 + math.sqrt(2000 / 11 * gamma)
    if gamma <= 1 / 2:
        return 30 + math.sqrt(2000 / 9 * gamma - 100 / 9)
    if gamma <= 31 / 40:
        return 50 - math.sqrt(2100 / 11 - 2000 / 11 * gamma)
    return 50 - math.sqrt(2000 / 9 * (1 - gamma))


def inverse_tri_23(gamma: float) -> float:
    """Reduced TRI(15, 25, 30; 0.4, 0.5), expected criterion."""
    if gamma <= 7 / 20:
        return 15 + math.sqrt(1000 / 7 * gamma)
    if gamma <= 2 / 3:
        return 15 + math.sqrt(3000 / 19 * gamma - 100 / 19)
    if gamma <= 101 / 120:
        return 30 - math.sqrt(1525 / 21 - 500 / 7 * gamma)
    return 30 - math.sqrt(1500 / 19 * (1 - gamma))


def inverse_tri_689(gamma: float) -> float:
    """Reduced TRI(6, 8, 9; 0.5, 0.7), expected criterion."""
    if gamma <= 11 / 30:
        return 6 + math.sqrt(60 / 11 * gamma)
    if gamma <= 2 / 3:
        return 6 + math.sqrt(20 / 3 * gamma - 4 / 9)
    if gamma <= 51 / 60:
        return 9 - math.sqrt(31 / 11 - 30 / 11 * gamma)
    return 9 - math.sqrt(10 / 3 * (1 - gamma))


def inverse_tra_10_25(gamma: float) -> float:
    """Reduced TRA(10, 15, 20, 25; 0.5, 0.6), expected criterion."""
    if gamma <= 21 / 160:
        return 10 + math.sqrt(2000 / 21 * gamma)
    if gamma <= 1 / 4:
        return 10 + math.sqrt(2000 / 19 * gamma - 25 / 19)
    if gamma <= 41 / 80:
        return 200 / 21 * gamma + 265 / 21
    if gamma <= 3 / 4:
        return 200 / 19 * gamma + 230 / 19
    if gamma <= 141 / 160:
        return 25 - math.sqrt(675 / 7 - 2000 / 21 * gamma)
    return 25 - math.sqrt(2000 / 19 * (1 - gamma))


def inverse_tra_30_60(gamma: float) -> float:
    """Reduced TRA(30, 40, 50, 60; 0.4, 0.6), expected criterion."""
    if gamma <= 11 / 80:
        return 30 + math.sqrt(4000 / 11 * gamma)
    if gamma <= 1 / 4:
        return 30 + math.sqrt(4000 / 9 * gamma - 100 / 9)
    if gamma <= 21 / 40:
        return 200 / 11 * gamma + 390 / 11
    if gamma <= 3 / 4:
        return 200 / 9 * gamma + 100 / 3
    if gamma <= 71 / 80:
        return 60 - math.sqrt(4100 / 11 - 4000 / 11 * gamma)
    return 60 - math.sqrt(4000 / 9 * (1 - gamma))


def inverse_tra_15_30(gamma: float) -> float:
    """Reduced TRA(15, 20, 25, 30; 0.4, 0.5), expected criterion."""
    if gamma <= 21 / 160:
        return 15 + math.sqrt(2000 / 21 * gamma)
    if gamma <= 1 / 4:
        return 15 + math.sqrt(2000 / 19 * gamma - 25 / 19)
    if gamma <= 41 / 80:
        return 200 / 21 * gamma + 370 / 21
    if gamma <= 3 / 4:
        return 200 / 19 * gamma + 325 / 19
    if gamma <= 141 / 160:
        return 30 - math.sqrt(675 / 7 - 2000 / 21 * gamma)
    return 30 - math.sqrt(2000 / 19 * (1 - gamma))


def inverse_tra_6_9(gamma: float) -> float:
    """Reduced TRA(6, 7, 8, 9; 0.5, 0.7), expected criterion."""
    if gamma <= 11 / 80:
        return 6 + math.sqrt(40 / 11 * gamma)
    if gamma <= 1 / 4:
        return 6 + math.sqrt(40 / 9 * gamma - 1 / 9)
    if gamma <= 21 / 40:
        return 20 / 11 * gamma + 72 / 11
    if gamma <= 3 / 4:
        return 20 / 9 * gamma + 19 / 3
    if gamma <= 71 / 80:
        return 9 - math.sqrt(41 / 11 - 40 / 11 * gamma)
    return 9 - math.sqrt(40 / 9 * (1 - gamma))


REFERENCE_INVERSES_TRIANGULAR = {
    "obj1": inverse_tri_18,
    "obj2": inverse_tri_39,
    "obj3": inverse_tri_23,
    "c1t1": inverse_tri_689,
}

REFERENCE_INVERSES_TRAPEZOIDAL = {
    "obj1": inverse_tra_10_25,
    "obj2": inverse_tra_30_60,
    "obj3": inverse_tra_15_30,
    "c1t1": inverse_tra_6_9,
}


# ---------------------------------------------------------------------------
# Exact reference solution of the two bundled benchmark problems
# ---------------------------------------------------------------------------
# Both benchmarks minimise beta1 x1 x2 + beta2 x2 x3 + beta3 x1 x3 subject
# to c(gamma) / (x1 x2 x3) <= 1: betas are the reduced expected values of
# obj1-obj3, c(gamma) the reduced inverse of c1t1 at gamma.  With four
# terms and three variables the degree of difficulty is 0, so the dual
# weights are the unique solution of the normality and orthogonality
# conditions, and log x* solves the linear recovery conditions.

# Rows: exponents of obj1, obj2, obj3 (objective) and c1t1 (constraint).
BENCHMARK_EXPONENTS = np.array(
    [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [-1.0, -1.0, -1.0]]
)
BENCHMARK_GAMMAS = tuple(round(0.1 * i, 1) for i in range(1, 10))

_BENCHMARKS = {
    "triangular": (TRIANGULAR_COEFFICIENTS, REFERENCE_INVERSES_TRIANGULAR),
    "trapezoidal": (TRAPEZOIDAL_COEFFICIENTS, REFERENCE_INVERSES_TRAPEZOIDAL),
}


def dod0_benchmark_row(
    betas: tuple[float, float, float], c: float
) -> tuple[float, ...]:
    """(x1, x2, x3, d1, d2, d3, d4, objective) of the benchmark GP.

    The constraint block has one term, so its multiplier is d4 and it
    contributes c**d4 to the dual value; at the optimum it is active.
    """
    a = BENCHMARK_EXPONENTS
    conditions = np.vstack([[1.0, 1.0, 1.0, 0.0], a.T])
    delta = np.linalg.solve(conditions, [1.0, 0.0, 0.0, 0.0])
    beta = np.asarray(betas, dtype=float)
    value = float(np.prod((beta / delta[:3]) ** delta[:3]) * c ** delta[3])
    # beta_i x^a_i = d_i * value for objective terms; c x^a_4 = 1.
    rhs = np.append(np.log(delta[:3] * value / beta), -math.log(c))
    log_x = np.linalg.lstsq(a, rhs, rcond=None)[0]
    return (*map(float, np.exp(log_x)), *map(float, delta), value)


def dod0_benchmark_table(
    betas: tuple[float, float, float], constraint_inverse
) -> dict[float, tuple[float, ...]]:
    """Benchmark rows at every gamma of BENCHMARK_GAMMAS, keyed by gamma."""
    return {
        gamma: dod0_benchmark_row(betas, constraint_inverse(gamma))
        for gamma in BENCHMARK_GAMMAS
    }


@functools.cache
def exact_betas(family: str) -> tuple[float, float, float]:
    """Expected values of obj1-obj3 by the band-formula oracle."""
    coefficients, _ = _BENCHMARKS[family]
    return tuple(
        reduced_expected_oracle(family, *coefficients[key])
        for key in ("obj1", "obj2", "obj3")
    )


@functools.cache
def exact_table(family: str) -> dict[float, tuple[float, ...]]:
    """Exact benchmark table: oracle betas, transcribed c1t1 inverse."""
    _, inverses = _BENCHMARKS[family]
    return dod0_benchmark_table(exact_betas(family), inverses["c1t1"])


# ---------------------------------------------------------------------------
# GP grid-search oracle
# ---------------------------------------------------------------------------


def grid_search_minimum(gp, center_log_x, span: float = 1.5) -> float:
    """Minimum of a posynomial GP by multi-scale grid search in log space.

    The objective is convex and the feasible set convex in log
    coordinates, so refining the grid around the running best converges
    to the global constrained minimum.  Three stages shrink the step to
    1e-3 natural-log units.
    """
    center = np.asarray(center_log_x, dtype=float)
    n = center.size
    coeff0 = np.asarray(gp.objective.coefficients)
    expo0 = np.asarray(gp.objective.exponents, dtype=float).reshape(-1, n)
    blocks = [
        (
            np.asarray(block.coefficients),
            np.asarray(block.exponents, dtype=float).reshape(-1, n),
        )
        for block in gp.constraints
    ]

    def batch_objective(logx: np.ndarray) -> np.ndarray:
        total = np.exp(logx @ expo0.T) @ coeff0
        feasible = np.ones(logx.shape[0], dtype=bool)
        for coeff, expo in blocks:
            feasible &= (np.exp(logx @ expo.T) @ coeff) <= 1.0 + 1e-12
        return np.where(feasible, total, np.inf)

    best_center = center
    step = span / 15.0
    best_value = np.inf
    for _ in range(3):
        axes = [best_center[j] + step * np.arange(-15, 16) for j in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        logx = np.stack([m.ravel() for m in mesh], axis=1)
        values = batch_objective(logx)
        idx = int(np.argmin(values))
        best_value = float(values[idx])
        best_center = logx[idx]
        step /= 10.0
    return best_value
