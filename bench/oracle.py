"""Reference values computed without calling into ``ugp``.

Everything here starts from the definitions, not from the package's
segment tables:

* a two-fold coefficient is a base family (triangular or trapezoidal)
  whose ramps carry a band of half-width ``min(level - ramp_bottom,
  ramp_top - level)``; a reduction criterion collapses the band to
  ``base - k * halfwidth`` with one scalar ``k``;
* the inverse is a vectorized bisection on that formula;
* the expected value is ``lo + integral of (1 - cdf)``, integrated by
  Gauss-Legendre on the pieces between the family knots and the
  band-switch points (found by bisection), on which the reduced cdf is a
  polynomial of degree at most two, so the rule is exact;
* GP checks evaluate the primal objective, the dual function and the
  dual conditions directly, and an independent primal solve minimizes
  the log-sum-exp form with ``scipy.optimize.minimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(3)


def multiplier(kind: str, alpha: float | None, theta_l: float, theta_r: float) -> float:
    """k in reduced = base - k * halfwidth, from the band's criterion rule."""
    if kind == "optimistic":  # alpha * lower + (1 - alpha) * upper
        return alpha * theta_l - (1.0 - alpha) * theta_r
    if kind == "pessimistic":  # (1 - alpha) * lower + alpha * upper
        return (1.0 - alpha) * theta_l - alpha * theta_r
    return (theta_l - theta_r) / 2.0  # midpoint of the band


def _ramps(params: tuple[float, ...]):
    """(left knot, right knot, bottom level, top level, base(x)) per ramp."""
    if len(params) == 3:
        a, b, c = params
        p = (b - a) / (c - a)
        return [
            (a, b, 0.0, p, lambda x: (x - a) ** 2 / ((b - a) * (c - a))),
            (b, c, p, 1.0, lambda x: 1.0 - (c - x) ** 2 / ((c - a) * (c - b))),
        ]
    a, b, c, d = params
    s = d + c - a - b
    pb, pc = (b - a) / s, (2.0 * c - a - b) / s
    return [
        (a, b, 0.0, pb, lambda x: (x - a) ** 2 / (s * (b - a))),
        (b, c, pb, pc, lambda x: (2.0 * x - a - b) / s),
        (c, d, pc, 1.0, lambda x: 1.0 - (d - x) ** 2 / (s * (d - c))),
    ]


def _bisect_scalar(f, lo: float, hi: float, target: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class ReducedOracle:
    """Reduced distribution of one two-fold coefficient under one criterion."""

    params: tuple[float, ...]
    k: float
    _pieces: list[float] = field(init=False)

    def __post_init__(self) -> None:
        knots = [self.params[0]]
        for left, right, bottom, top, base in _ramps(self.params):
            # The half-width switches branch where the base level reaches
            # the middle of the ramp; the reduced cdf has a kink there.
            knots.append(_bisect_scalar(base, left, right, 0.5 * (bottom + top)))
            knots.append(right)
        self._pieces = knots

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.params[-1], 1.0, 0.0)
        for left, right, bottom, top, base in _ramps(self.params):
            inside = (x > left) & (x < right)
            level = base(x[inside])
            half = np.minimum(level - bottom, top - level)
            out[inside] = level - self.k * half
        for left, _, bottom, _, _ in _ramps(self.params)[1:]:
            out[x == left] = bottom  # the band collapses at the knots
        return out

    def inverse(self, gammas) -> np.ndarray:
        g = np.asarray(gammas, dtype=float)
        lo = np.full(g.shape, self.params[0])
        hi = np.full(g.shape, self.params[-1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < g
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return hi

    def expected(self) -> float:
        total = self.params[0]
        for left, right in zip(self._pieces, self._pieces[1:]):
            half = 0.5 * (right - left)
            x = left + half * (_GAUSS_X + 1.0)
            total += half * float(_GAUSS_W @ (1.0 - self.cdf(x)))
        return total


@dataclass(frozen=True)
class Coefficient:
    """A two-fold coefficient as plain data: family params and thetas."""

    params: tuple[float, ...]
    theta_l: float
    theta_r: float

    def reduced(self, kind: str, alpha: float | None) -> ReducedOracle:
        return ReducedOracle(self.params, multiplier(kind, alpha, self.theta_l, self.theta_r))


@dataclass(frozen=True)
class GPData:
    """A chance-constrained GP as plain arrays: one row per term."""

    coefficients: tuple[Coefficient, ...]
    exponents: np.ndarray  # (N, n)
    blocks: np.ndarray  # (N,) 0 = objective, k = constraint block k

    def deterministic(self, kind: str, alpha: float | None, gammas) -> list[np.ndarray]:
        """Coefficient vector per gamma: objective terms take the expected
        value, constraint terms the inverse at gamma."""
        betas = np.empty((len(gammas), len(self.coefficients)))
        for i, coeff in enumerate(self.coefficients):
            red = coeff.reduced(kind, alpha)
            betas[:, i] = red.expected() if self.blocks[i] == 0 else red.inverse(gammas)
        return list(betas)


def gp_check(
    data: GPData,
    beta: np.ndarray,
    x: np.ndarray,
    delta: np.ndarray,
    reported_objective: float,
) -> list[str]:
    """Names of the checks a solved row fails (empty when it passes)."""
    failed = []
    log_terms = np.log(beta) + data.exponents @ np.log(x)
    objective = float(np.exp(log_terms[data.blocks == 0]).sum())
    n_blocks = int(data.blocks.max())
    constraint_values = [
        float(np.exp(log_terms[data.blocks == k]).sum()) for k in range(1, n_blocks + 1)
    ]
    lam = np.bincount(data.blocks, weights=delta, minlength=n_blocks + 1)
    pos = delta > 0.0
    log_dual = float(np.sum(delta[pos] * np.log(beta[pos] / delta[pos])))
    log_dual += float(sum(v * math.log(v) for v in lam[1:] if v > 0.0))
    dual = math.exp(log_dual)
    if not abs(objective - dual) <= 1e-6 * dual:
        failed.append("gap")
    if any(not v <= 1.0 + 1e-8 for v in constraint_values):
        failed.append("constraints")
    normality = abs(lam[0] - 1.0)
    orthogonality = np.abs(delta @ data.exponents).max()
    if not (np.all(delta >= 0.0) and normality <= 1e-9 and orthogonality <= 1e-9):
        failed.append("conditions")
    if not abs(reported_objective - objective) <= 1e-9 * objective:
        failed.append("objective")
    return failed


def lse_minimum(data: GPData, beta: np.ndarray, start: np.ndarray) -> float:
    """Independent primal solve: minimize the log-sum-exp objective subject
    to log-sum-exp constraints <= 0 in y = log x, by SLSQP."""
    log_beta = np.log(beta)
    masks = [data.blocks == k for k in range(int(data.blocks.max()) + 1)]

    def lse(mask, y):
        z = log_beta[mask] + data.exponents[mask] @ y
        top = z.max()
        w = np.exp(z - top)
        return top + math.log(w.sum()), (w / w.sum()) @ data.exponents[mask]

    constraints = [
        {
            "type": "ineq",
            "fun": (lambda y, m=m: -lse(m, y)[0]),
            "jac": (lambda y, m=m: -lse(m, y)[1]),
        }
        for m in masks[1:]
    ]
    res = minimize(
        lambda y: lse(masks[0], y),
        start,
        jac=True,
        method="SLSQP",
        constraints=constraints,
        options={"ftol": 1e-14, "maxiter": 500},
    )
    return math.exp(res.fun)
