"""Posynomial geometric programming by the dual method.

A posynomial GP minimizes a positive-coefficient monomial sum subject to
posynomial constraints bounded by one.  Its dual maximizes

    V(delta) = prod_i (beta_i / delta_i)^delta_i * prod_{k>=1} lambda_k^lambda_k

over nonnegative weights satisfying one normality condition (objective
weights sum to one) and n orthogonality conditions (exponent-weighted
sums vanish per variable), with lambda_k the weight total of constraint
block k.  log V is concave, so:

* at degree of difficulty zero (N = n + 1) the conditions fix the weights
  outright and a single linear solve suffices;
* otherwise the feasible affine set is parametrized by its null space and
  log V is maximized by damped Newton with backtracking, whose gradient and
  Hessian read the block map of the DualStructure below; each search starts
  at the first halving that keeps every weight above 1e-300 (closed form,
  rounded down), so the iterates are those of plain halving from tau = 1.

The primal minimizer is recovered from the log-linear stationarity
relations linking delta, the dual value and the exponents.

Everything that depends only on the exponents -- the conditions, the block
map, the degree-zero weights -- lives in a DualStructure, which solves any
number of coefficient rows in one batch, running phase I once per solve and
caching nothing; solve_gp is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.special import xlogy

from .errors import (
    DegreeOfDifficultyNegative,
    InfeasibleDual,
    NonConvergence,
    NumericalRangeError,
    RankDeficient,
)

__all__ = [
    "Posynomial",
    "DeterministicGP",
    "DualProblem",
    "DualSolution",
    "DualStructure",
    "GPDiagnostics",
    "degree_of_difficulty",
    "build_dual",
    "verify_solution",
    "solve_gp",
]

_DELTA_DROP = 1e-12  # weights below this are treated as inactive in recovery
_GRAD_TOL = 1e-9
_MAX_NEWTON_ITER = 500
_LINE_SEARCH_FLOOR = 1e-300


@dataclass(frozen=True)
class Posynomial:
    """Sum of terms coefficient * prod_j x_j**exponent_j: coefficients
    positive, coefficients and exponents finite."""

    coefficients: tuple[float, ...]
    exponents: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a posynomial needs at least one term")
        if len(self.exponents) != len(self.coefficients):
            raise ValueError("one exponent vector per coefficient required")
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError(
                f"posynomial coefficients must be finite, got {self.coefficients}"
            )
        if any(c <= 0 for c in self.coefficients):
            raise ValueError("posynomial coefficients must be positive")
        widths = {len(row) for row in self.exponents}
        if len(widths) > 1:
            raise ValueError("all exponent vectors must have equal length")
        if not all(math.isfinite(e) for row in self.exponents for e in row):
            raise ValueError(
                f"posynomial exponents must be finite, got {self.exponents}"
            )

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    @property
    def n_variables(self) -> int:
        return len(self.exponents[0])

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for coeff, row in zip(self.coefficients, self.exponents):
            total += coeff * float(np.prod(x ** np.asarray(row, dtype=float)))
        return total


@dataclass(frozen=True)
class DeterministicGP:
    """min objective(x) subject to constraint_k(x) <= 1, x > 0 componentwise."""

    objective: Posynomial
    constraints: tuple[Posynomial, ...] = ()

    def __post_init__(self) -> None:
        n = self.objective.n_variables
        for k, block in enumerate(self.constraints):
            if block.n_variables != n:
                raise ValueError(
                    f"constraint {k + 1} has {block.n_variables} variables, "
                    f"objective has {n}"
                )

    @property
    def n_variables(self) -> int:
        return self.objective.n_variables


def degree_of_difficulty(gp: DeterministicGP) -> int:
    """Total term count minus (variable count + 1)."""
    total_terms = gp.objective.n_terms + sum(b.n_terms for b in gp.constraints)
    return total_terms - (gp.n_variables + 1)


@dataclass(frozen=True, eq=False)
class DualProblem:
    """One coefficient row on its DualStructure, in the structure's term order."""

    coefficients: np.ndarray  # (N,)
    structure: DualStructure

    def block_totals(self, delta: np.ndarray) -> np.ndarray:
        """lambda_k = sum of weights in block k, for k = 0..K, by one
        bincount: each block's weights are added in term order from 0.0."""
        structure = self.structure
        return np.bincount(structure.term_blocks, delta, structure.n_constraints + 1)

    def log_value(self, delta: np.ndarray) -> float:
        """log V(delta) with the continuous extension 0 * log(.) = 0."""
        return float(_log_value(self.coefficients, delta, self.block_totals(delta)))


def _log_value(beta: np.ndarray, delta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log V over the last axis, with 0 log 0 = 0 and no quotient that can
    overflow; lam holds the block totals, objective block first."""
    totals = lam[..., 1:]
    return (xlogy(delta, beta) - xlogy(delta, delta)).sum(axis=-1) + xlogy(
        totals, totals
    ).sum(axis=-1)


def build_dual(gp: DeterministicGP) -> DualProblem:
    """The GP's coefficient row on its DualStructure."""
    blocks = (gp.objective, *gp.constraints)
    return DualProblem(
        coefficients=np.concatenate([b.coefficients for b in blocks], dtype=float),
        structure=DualStructure.from_blocks([block.exponents for block in blocks]),
    )


@dataclass(frozen=True)
class GPDiagnostics:
    """Consistency report for a solved GP."""

    primal_objective: float
    duality_gap_rel: float
    constraint_values: tuple[float, ...]
    linear_residual: float
    condition_residual: float
    gap_exceeds: bool
    violated_constraints: tuple[int, ...]


@dataclass(frozen=True)
class DualSolution:
    delta: tuple[float, ...]
    lam: tuple[float, ...]  # lambda_0 = 1 first
    dual_value: float
    primal_x: tuple[float, ...]
    diagnostics: GPDiagnostics


def _feasible_interior_point(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Strictly positive delta with A delta = rhs, by maximizing the margin.

    Solves max t subject to A delta = rhs, delta >= t, t <= 1 as a linear
    program.  Raises InfeasibleDual when no nonnegative solution exists or
    when every nonnegative solution touches the boundary.
    """
    n_cond, n_var = A.shape
    c = np.zeros(n_var + 1)
    c[-1] = -1.0
    a_eq = np.hstack([A, np.zeros((n_cond, 1))])
    a_ub = np.hstack([-np.eye(n_var), np.ones((n_var, 1))])
    bounds = [(0.0, None)] * n_var + [(None, 1.0)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n_var),
        A_eq=a_eq,
        b_eq=rhs,
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        raise InfeasibleDual(
            "the normality/orthogonality conditions admit no nonnegative solution"
        )
    margin = res.x[-1]
    if margin <= 0.0:
        raise InfeasibleDual(
            "the normality/orthogonality conditions admit no strictly "
            "positive solution"
        )
    return res.x[:-1]


def _first_halving(delta: np.ndarray, direction: np.ndarray) -> int:
    """floor(-log2 r) for the least r = (delta_i - floor) / -direction_i over
    falling weights: one step before the first halving that keeps every
    weight above the floor in exact arithmetic, so rounding cannot pass it."""
    with np.errstate(all="ignore"):
        ratios = (_LINE_SEARCH_FLOOR - delta) / direction
    m, e = math.frexp(ratios.min(where=direction < 0.0, initial=math.inf))
    return max(0, (m == 0.5) - e)  # r = m 2**e with 0.5 <= m < 1


class DualStructure:
    """The exponent-only part of a GP's dual, shared by every coefficient row.

    Normality and orthogonality involve only the exponents and the block
    map, so every GP with the same exponents -- each row of a gamma sweep --
    shares this work:

    * the condition matrix and its right-hand side;
    * the block map, whose in-order bincount gives every block total and
      which shapes the Newton gradient's gather and Hessian's block mask;
    * at degree of difficulty zero, the exact weights, or the verdict that
      the dual method cannot proceed (too few terms, negative weights).

    A structure lives for one solve or sweep and caches nothing.
    :meth:`solve` takes one coefficient row per GP (terms in
    :meth:`from_blocks` order) and runs the whole pipeline on all rows at
    once: dual weights, log V, primal recovery and verification.  Off
    degree zero it computes the phase-I interior point and null-space
    basis once, for every row's Newton iteration.  Recovery takes one thin
    SVD per active set: the rank check and the least-squares solve of
    every row sharing that set.
    """

    def __init__(self, exponent_matrix: np.ndarray, term_blocks: np.ndarray) -> None:
        self.exponent_matrix = np.asarray(exponent_matrix, dtype=float)
        self.term_blocks = np.asarray(term_blocks, dtype=int)
        self.n_constraints = int(self.term_blocks.max(initial=0))  # blocks 0..K
        N, n = self.n_terms, self.n_variables = self.exponent_matrix.shape
        self.A = np.vstack(  # the normality row, then n orthogonality rows
            [(self.term_blocks == 0).astype(float), self.exponent_matrix.T]
        )
        self.rhs = np.r_[1.0, np.zeros(n)]
        self._verdict: Exception | None = None
        self._exact_delta: np.ndarray | None = None
        if N < n + 1:
            self._verdict = DegreeOfDifficultyNegative(
                f"{N} dual variables cannot satisfy {n + 1} conditions; "
                "the dual method needs N >= n + 1"
            )
        elif N == n + 1:
            try:
                candidate = np.linalg.solve(self.A, self.rhs)
            except np.linalg.LinAlgError:
                return  # singular: use the general path
            if np.max(np.abs(self.A @ candidate - self.rhs)) > 1e-9:
                return  # numerically singular: use the general path
            if np.any(candidate < 0.0):
                self._verdict = InfeasibleDual(
                    "the unique solution of the dual conditions has negative "
                    "components"
                )
            else:
                self._exact_delta = candidate

    @classmethod
    def from_blocks(cls, blocks: list) -> DualStructure:
        """The structure of blocks of exponent rows -- the objective's, then
        each constraint's in order -- which fixes the term order of every
        coefficient row."""
        rows = [row for block in blocks for row in block]
        return cls(
            np.asarray(rows, dtype=float),
            np.repeat(np.arange(len(blocks)), [len(block) for block in blocks]),
        )

    def solve(self, coefficients: np.ndarray) -> list[DualSolution | Exception]:
        """Solve one GP per coefficient row, in order.

        Each outcome is a DualSolution carrying x* and diagnostics, or the
        ValueError/RuntimeError that row raised: DegreeOfDifficultyNegative,
        InfeasibleDual, NonConvergence, RankDeficient, or NumericalRangeError
        when the dual value, x* or objective leaves the positive finite
        floating-point range.
        """
        beta = np.asarray(coefficients, dtype=float).reshape(-1, self.n_terms)
        outcomes: list[DualSolution | Exception | None] = [None] * len(beta)
        delta = self._weights(beta, outcomes)
        rows = [g for g, outcome in enumerate(outcomes) if outcome is None]
        if not rows:
            return outcomes
        beta, delta = beta[rows], delta[rows]
        with np.errstate(all="ignore"):
            lam = self._block_sums(delta)
            log_v = _log_value(beta, delta, lam)
            active, targets = self._recovery_system(beta, delta, lam, log_v)
            log_x, failures = self._recover(active, targets)
            x = np.exp(log_x)
            dual_value = np.exp(log_v)
            reports = self._verify(beta, delta, dual_value, x, active, targets)
        for i, g in enumerate(rows):
            values = (float(dual_value[i]), reports[i].primal_objective, *x[i].tolist())
            if failures[i] is not None:
                outcomes[g] = failures[i]
            elif not all(0.0 < v < math.inf for v in values):
                outcomes[g] = NumericalRangeError(
                    "the solution leaves the double-precision range (overflow "
                    "or underflow): dual value {:.6g}, objective {:.6g}, "
                    "x* = ({})".format(*values[:2], ", ".join(map(str, values[2:])))
                )
            else:
                outcomes[g] = DualSolution(
                    delta=tuple(delta[i].tolist()),
                    lam=(1.0, *lam[i, 1:].tolist()),
                    dual_value=values[0],
                    primal_x=values[2:],
                    diagnostics=reports[i],
                )
        return outcomes

    def _block_sums(self, values: np.ndarray) -> np.ndarray:
        """Block totals k = 0..K of each row, by one bincount over the flat
        rows: each row's blocks are added in term order from 0.0, exactly
        as DualProblem.block_totals adds one row."""
        rows, width = len(values), self.n_constraints + 1
        index = self.term_blocks + width * np.arange(rows)[:, None]
        flat = np.bincount(index.ravel(), values.ravel(), rows * width)
        return flat.reshape(rows, width)

    def _weights(self, beta: np.ndarray, outcomes: list) -> np.ndarray:
        """Dual weights per row; a row that fails gets its exception in
        outcomes and NaN weights."""
        delta = np.full((len(beta), self.n_terms), np.nan)
        if self._exact_delta is not None:
            delta[:] = self._exact_delta
            return delta
        verdict = self._verdict
        if verdict is None and len(beta):
            try:
                start = _feasible_interior_point(self.A, self.rhs)
            except InfeasibleDual as exc:
                verdict = exc
            else:
                basis = null_space(self.A)
        for g, row in enumerate(beta):
            if verdict is not None:
                outcomes[g] = verdict
                continue
            try:
                delta[g] = self._newton(row, start, basis)
            except (ValueError, RuntimeError) as exc:
                outcomes[g] = exc
        return delta

    def _newton(
        self, beta: np.ndarray, start: np.ndarray, basis: np.ndarray
    ) -> np.ndarray:
        """Damped Newton on one row's log V over start + span(basis), start
        strictly positive; gradient and Hessian read the block map."""
        if basis.shape[1] == 0:
            return start  # conditions pin delta down; nothing to optimize
        dual = DualProblem(beta, self)
        log_beta = np.log(beta)
        blocks = self.term_blocks
        # 1 where terms share a constraint block; / lambda gives (M / lambda) M^T
        same_block = ((blocks[:, None] == blocks) & (blocks > 0)).astype(float)
        shift = np.full(self.n_constraints + 1, -1.0)  # (-1, log lambda_k)
        delta, current = start, dual.log_value(start)
        for _ in range(_MAX_NEWTON_ITER):
            totals = dual.block_totals(delta)
            np.log(totals[1:], out=shift[1:])
            g_red = basis.T @ (log_beta - np.log(delta) + shift[blocks])
            if np.linalg.norm(g_red) <= _GRAD_TOL:
                return delta
            hessian = same_block / totals[blocks]
            hessian.reshape(-1)[:: self.n_terms + 1] -= 1.0 / delta  # the diagonal
            H_red = basis.T @ hessian @ basis
            try:
                step = np.linalg.solve(H_red, -g_red)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H_red, -g_red, rcond=None)[0]
            direction = basis @ step
            if g_red @ step <= 0.0:
                direction = basis @ g_red  # fall back to steepest ascent
                step = g_red

            k0 = _first_halving(delta, direction)  # every earlier step fails the floor
            tau = math.ldexp(1.0, -k0)
            slope = float(g_red @ step)
            for _ in range(k0, 200):
                trial = delta + tau * direction
                if trial.min() > _LINE_SEARCH_FLOOR:
                    value = dual.log_value(trial)
                    if value >= current + 1e-4 * tau * slope:
                        delta, current = trial, value
                        break
                tau *= 0.5
            else:
                raise NonConvergence(
                    "line search stalled while maximizing the dual objective"
                )
        raise NonConvergence(
            f"dual maximization did not converge in {_MAX_NEWTON_ITER} Newton steps"
        )

    def _recovery_system(
        self, beta: np.ndarray, delta: np.ndarray, lam: np.ndarray, log_v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Active-term mask and right-hand side of the log-linear recovery.

        An objective term i with weight above the drop threshold gives
        a_i . log x = log(delta_i V / beta_i); a term of constraint block k
        gives a_i . log x = log(delta_i / (lambda_k beta_i)), kept only
        while the block is active too.
        """
        in_objective = self.term_blocks == 0
        lam_of_term = lam[:, self.term_blocks]
        active = (delta > _DELTA_DROP) & (in_objective | (lam_of_term > _DELTA_DROP))
        scale = np.where(in_objective, log_v[:, None], -np.log(lam_of_term))
        return active, np.log(delta) - np.log(beta) + scale

    def _recover(
        self, active: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, list[RankDeficient | None]]:
        """log x* per row, the least-squares solution of each row's active
        recovery rows; rows whose active set is rank deficient get NaN and
        the error.

        Rows sharing an active set share one thin SVD of its exponent rows,
        which gives both the rank (with numpy's matrix_rank tolerance) and,
        at full column rank, the least-squares solution of every such row:
        log x = V diag(1/s) U^T rhs.
        """
        log_x = np.full((len(active), self.n_variables), np.nan)
        failures: list[RankDeficient | None] = [None] * len(active)
        groups: dict[bytes, list[int]] = {}
        for i, mask in enumerate(active):
            groups.setdefault(mask.tobytes(), []).append(i)
        for members in groups.values():
            mask = active[members[0]]
            u, s, vt = np.linalg.svd(self.exponent_matrix[mask], full_matrices=False)
            tol = s.max(initial=0.0) * max(int(mask.sum()), self.n_variables)
            rank = int((s > tol * np.finfo(float).eps).sum())
            if rank < self.n_variables:
                error = RankDeficient(
                    f"active exponent rows have rank {rank} < {self.n_variables}"
                )
                for i in members:
                    failures[i] = error
            else:
                log_x[members] = (targets[np.ix_(members, mask)] @ u) / s @ vt
        return log_x, failures

    def _verify(
        self,
        beta: np.ndarray,
        delta: np.ndarray,
        dual_value: np.ndarray,
        x: np.ndarray,
        active: np.ndarray,
        targets: np.ndarray,
    ) -> list[GPDiagnostics]:
        """Primal value, gap, constraint values and residuals per row."""
        monomials = np.prod(x[:, None, :] ** self.exponent_matrix, axis=2)
        values = self._block_sums(beta * monomials)
        gaps = np.abs(values[:, 0] - dual_value) / dual_value
        residual = np.where(active, np.log(x) @ self.exponent_matrix.T - targets, 0.0)
        linear = np.sqrt((residual**2).sum(axis=1))
        condition = np.max(np.abs(delta @ self.A.T - self.rhs), axis=1)
        return [
            GPDiagnostics(
                primal_objective=row[0],
                duality_gap_rel=gap,
                constraint_values=tuple(row[1:]),
                linear_residual=lin,
                condition_residual=cond,
                gap_exceeds=gap > 1e-6,
                violated_constraints=tuple(
                    k for k, v in enumerate(row[1:], start=1) if v > 1.0 + 1e-8
                ),
            )
            for row, gap, lin, cond in zip(
                values.tolist(), gaps.tolist(), linear.tolist(), condition.tolist()
            )
        ]


def verify_solution(gp: DeterministicGP, sol: DualSolution) -> GPDiagnostics:
    """Primal value, relative duality gap, constraint values and residuals
    of any (delta, lambda, V, x), including one the solver did not produce."""
    dual = build_dual(gp)
    structure = dual.structure
    beta = dual.coefficients.reshape(1, -1)
    delta = np.asarray([sol.delta], dtype=float)
    lam = np.asarray([sol.lam], dtype=float)
    dual_value = np.asarray([sol.dual_value], dtype=float)
    x = np.asarray([sol.primal_x], dtype=float)
    with np.errstate(all="ignore"):
        log_v = np.log(dual_value)
        active, targets = structure._recovery_system(beta, delta, lam, log_v)
        (report,) = structure._verify(beta, delta, dual_value, x, active, targets)
    return report


def solve_gp(gp: DeterministicGP) -> DualSolution:
    """Full pipeline -- dual weights, recovery, verification -- as a batch
    of one on the GP's own DualStructure."""
    dual = build_dual(gp)
    (outcome,) = dual.structure.solve(dual.coefficients)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
