"""The three benchmark workloads: seeded inputs, the timed op, and checks.

A workload maps op index ``i`` to an input ``key(i)``.  ``paper-tables``
and ``curves`` cycle through a small pool built from the seed at set-up
(inside ``setup_s``); ``dod-sweep`` draws most problems fresh per op,
between ops.  Only ``run`` is timed.  Right after an op its output is
captured and hashed; the first output for each key is kept and checked
against :mod:`oracle` once the loop ends, and every later op on the same
key must reproduce the same hash.  ``round`` is the number of ops after
which every input of a cycle has run once; loops end on whole rounds so
that each run weighs the inputs alike.

A *unit* is what ``fail_frac`` counts: a sweep row in ``paper-tables``
and ``dod-sweep``, a whole op in ``curves``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from pathlib import Path

import numpy as np

import oracle
import ugp.chance
import ugp.cli
import ugp.distributions
import ugp.twofold
from ugp.chance import FailedRow, UncertainGPProblem, UncertainTerm
from ugp.twofold import ReductionCriterion, TwoFoldVariable

ALPHAS_PER_SEED = 4


def _criteria(rng: np.random.Generator) -> list[tuple[str, float | None]]:
    alphas = np.round(rng.uniform(0.05, 0.95, ALPHAS_PER_SEED), 3)
    return (
        [("expected", None)]
        + [("optimistic", float(a)) for a in alphas]
        + [("pessimistic", float(a)) for a in alphas]
    )


# ---------------------------------------------------------------------------
# paper-tables: the CLI sweep over the two bundled benchmark problems
# ---------------------------------------------------------------------------


class PaperTables:
    """``ugp sweep <bundled file> --gammas 0.1:0.9:0.1 <criterion> -o csv``."""

    GAMMAS = "0.1:0.9:0.1"
    FILES = ("triangular_case.json", "trapezoidal_case.json")
    units = 9
    round = 18  # one pass over the pool
    trace_ops = 10 * round

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.csv_path = workdir / "paper-tables.csv"
        paths = [str(ugp.cli.bundled_problem_path(name)) for name in self.FILES]
        self.pool = [(path, kind, alpha) for path in paths for kind, alpha in _criteria(rng)]
        rng.shuffle(self.pool)
        self._data: dict[str, oracle.GPData] = {}
        self._devnull = open(os.devnull, "w")

    def close(self) -> None:
        self._devnull.close()
        self.csv_path.unlink(missing_ok=True)

    def key(self, i: int) -> int:
        return i % len(self.pool)

    def input(self, key: int):
        return self.pool[key]

    def run(self, inp):
        path, kind, alpha = inp
        argv = ["sweep", path, "--gammas", self.GAMMAS, "--criterion", kind]
        if alpha is not None:
            argv += ["--alpha", repr(alpha)]
        argv += ["-o", str(self.csv_path)]
        with contextlib.redirect_stdout(self._devnull):
            return ugp.cli.main(argv)

    def capture(self, inp, code):
        """The op's observable result: exit code and CSV text."""
        return code, self.csv_path.read_text(encoding="utf-8")

    def check(self, inp, result) -> list[list[str]]:
        path, kind, alpha = inp
        code, text = result
        if code != 0:
            return [["exit_code"]] * self.units
        if path not in self._data:
            self._data[path] = _gp_from_file(path)
        data = self._data[path]
        lines = text.splitlines()
        col = {name: i for i, name in enumerate(next(csv.reader(lines[:1])))}
        n_vars, n_terms = data.exponents.shape[1], data.exponents.shape[0]
        units = []
        for line in lines[1:]:
            if line.startswith("#"):
                units.append(["failed_row." + line.split("error=")[1].split(":")[0]])
                continue
            cells = next(csv.reader([line]))

            def cell(name: str) -> float:
                return float(cells[col[name]])

            x = np.array([cell(f"x{j + 1}") for j in range(n_vars)])
            delta = np.array([cell(f"delta{i + 1}") for i in range(n_terms)])
            beta = data.deterministic(kind, alpha, [cell("gamma")])[0]
            units.append(oracle.gp_check(data, beta, x, delta, cell("objective")))
        if len(units) != self.units:
            return [["row_count"]] * self.units
        return units

    def deep_check(self, items: list) -> list:
        return []


def _gp_from_file(path: str) -> oracle.GPData:
    """Parse a problem file with the benchmark's own reader."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    names = doc["variables"]
    coeffs, rows, block_ids = [], [], []
    for k, block in enumerate([doc["objective"], *doc.get("constraints", [])]):
        for term in block:
            params = tuple(float(p) for p in term["params"])
            coeffs.append(oracle.Coefficient(params, float(term["theta_l"]), float(term["theta_r"])))
            rows.append([float(term["exponents"].get(v, 0.0)) for v in names])
            block_ids.append(k)
    return oracle.GPData(tuple(coeffs), np.array(rows), np.array(block_ids))


# ---------------------------------------------------------------------------
# dod-sweep: generated problems with degree of difficulty above zero
# ---------------------------------------------------------------------------

SLACK_EVERY = 5  # ops 4, 9, 14, ... get a problem with a slack block
SLACK_CORPUS = 5  # distinct slack problems, cycled
SLACK_CORPUS_SEED = 0
N_CAP = 60


def dod_shape(i: int) -> tuple[int, int, bool]:
    """(variables, degree of difficulty, has slack block) of op i.

    The shapes follow a fixed cycle, so every seed runs the same spread of
    sizes in the same order; the seed draws everything else.
    """
    n = 2 + (5 * i) % 11
    dod = min(1 + (37 * i) % 49, N_CAP - n - 1)
    return n, dod, i % SLACK_EVERY == SLACK_EVERY - 1


def _coefficient(rng: np.random.Generator, low: float, high: float) -> oracle.Coefficient:
    """A tri/tra coefficient with support [low, high] and random inner knots."""
    m = 3 if rng.random() < 0.5 else 4
    inner = np.sort(rng.uniform(0.0, 1.0, m - 2))
    knots = np.concatenate([[0.0], inner, [1.0]])
    params = tuple(float(low + (high - low) * t) for t in knots)
    theta_l, theta_r = (float(v) for v in rng.uniform(0.05, 0.95, 2))
    return oracle.Coefficient(params, theta_l, theta_r)


def dod_problem(rng: np.random.Generator, n: int, dod: int, slack: bool) -> oracle.GPData:
    """One well-posed GP: every objective exponent is >= 0 and every
    variable appears in the objective, and a lower-bound block
    ``sum c * x^(-b) <= 1`` holds one ``c_j / x_j`` term per variable, so
    the block binds at the optimum and x* is bounded and unique.  With
    ``slack`` an upper-bound block ``sum c_j * x_j <= 1`` is added whose
    coefficients keep it at most 0.1 at x*, so it is inactive there.
    """
    n_terms = n + 1 + dod
    n_slack = int(rng.integers(1, 3)) if slack else 0
    n_slack = min(n_slack, dod)
    n_extra = int(rng.integers(0, (dod - n_slack) // 3 + 1))
    n_obj = n_terms - n - n_extra - n_slack

    obj = np.where(
        rng.random((n_obj, n)) < min(1.0, 3.0 / n),
        rng.choice([0.5, 1.0, 1.5, 2.0], (n_obj, n)),
        0.0,
    )
    for j in range(n):
        if not (obj[:, j] > 0).any():
            obj[j % n_obj, j] = rng.choice([0.5, 1.0, 2.0])
    extra = np.zeros((n_extra, n))
    for row in extra:
        cols = rng.choice(n, size=min(n, int(rng.integers(2, 4))), replace=False)
        row[cols] = -rng.choice([0.5, 1.0], cols.size)
        if -row.sum() < 1.0:
            row[cols[0]] = -1.0
    binding = np.vstack([-np.eye(n), extra])

    def scaled(count: int, low: float, high: float) -> list[oracle.Coefficient]:
        out = []
        for _ in range(count):
            scale = math.exp(rng.uniform(math.log(low), math.log(high)))
            out.append(_coefficient(rng, scale, scale * rng.uniform(1.3, 2.5)))
        return out

    obj_coeffs = scaled(n_obj, 1.0, 20.0)
    binding_coeffs = scaled(binding.shape[0], 0.5, 5.0)
    coeffs = obj_coeffs + binding_coeffs
    rows = [obj, binding]
    blocks = [0] * n_obj + [1] * binding.shape[0]
    if n_slack:
        upper = _upper_bounds(obj, obj_coeffs, binding_coeffs)
        for j in rng.choice(n, size=n_slack, replace=False):
            high = 0.1 / (n_slack * upper[j])
            coeffs.append(_coefficient(rng, high / rng.uniform(1.3, 2.5), high))
            row = np.zeros((1, n))
            row[0, j] = 1.0
            rows.append(row)
            blocks.append(2)
    return oracle.GPData(tuple(coeffs), np.vstack(rows), np.array(blocks))


def _upper_bounds(obj, obj_coeffs, binding_coeffs) -> np.ndarray:
    """Bound on each x_j* of the problem without the slack block.

    x = t * 1 with t = max(1, sum of binding highs) is feasible because
    every binding term has exponent sum <= -1, so the optimum is at most
    U = objective(t * 1) with high coefficients.  Each objective term
    c_i x^a_i is then <= U; with x_k >= low(c_pivot_k) from the pivots
    this bounds every x_j that has a_ij > 0.
    """
    def ends(coeffs, end: int) -> np.ndarray:
        return np.array([c.params[end] for c in coeffs])

    t = max(1.0, float(ends(binding_coeffs, -1).sum()))
    log_u = math.log(float(np.sum(ends(obj_coeffs, -1) * t ** obj.sum(axis=1))))
    n = obj.shape[1]
    log_floor = np.log(ends(binding_coeffs[:n], 0))  # x_k >= c_k from c_k / x_k <= 1
    log_lo_obj = np.log(ends(obj_coeffs, 0))
    bound = np.full(n, np.inf)
    for i, row in enumerate(obj):
        for j in np.flatnonzero(row > 0):
            rest = float(row @ log_floor - row[j] * log_floor[j])
            bound[j] = min(bound[j], (log_u - log_lo_obj[i] - rest) / row[j])
    return np.exp(bound)


def to_problem(data: oracle.GPData) -> UncertainGPProblem:
    def term(i: int) -> UncertainTerm:
        c = data.coefficients[i]
        family = "triangular" if len(c.params) == 3 else "trapezoidal"
        return UncertainTerm(
            TwoFoldVariable(family, c.params, c.theta_l, c.theta_r),
            tuple(float(v) for v in data.exponents[i]),
        )

    blocks = [
        tuple(term(i) for i in np.flatnonzero(data.blocks == k))
        for k in range(int(data.blocks.max()) + 1)
    ]
    return UncertainGPProblem(objective=blocks[0], constraints=tuple(blocks[1:]))


class DodSweep:
    """Library ``sweep(problem, [0.2, 0.4, 0.6, 0.8], criterion)``.

    Four ops in five get a fresh binding problem, drawn from ``(seed, op
    index)`` just before the op, so a run averages over as many problems
    as it has ops.  The fifth op cycles through a corpus of
    ``SLACK_CORPUS`` problems with a slack block that is the same for
    every seed: a sweep that fails on a slack block takes anywhere from
    0.2 to 3.3 s depending on the problem, so slack problems drawn per
    seed would make the timings of one seed unlike the next.
    """

    GAMMAS = [0.2, 0.4, 0.6, 0.8]
    SCIPY_SAMPLE = 4  # solved rows per run re-solved by SLSQP, untimed
    units = len(GAMMAS)
    round = SLACK_EVERY * SLACK_CORPUS
    trace_ops = 4 * round

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.criteria = _criteria(np.random.default_rng(seed))

    def close(self) -> None:
        pass

    def key(self, i: int) -> tuple[int, int]:
        """(seed, index) of the problem op i runs."""
        if i % SLACK_EVERY == SLACK_EVERY - 1:
            return SLACK_CORPUS_SEED, SLACK_EVERY * ((i // SLACK_EVERY) % SLACK_CORPUS) + SLACK_EVERY - 1
        return self.seed, i

    def input(self, key: tuple[int, int]):
        seed, i = key
        rng = np.random.default_rng([seed, i])
        data = dod_problem(rng, *dod_shape(i))
        criteria = self.criteria if seed == self.seed else _criteria(np.random.default_rng(seed))
        kind, alpha = criteria[int(rng.integers(len(criteria)))]
        return data, to_problem(data), ReductionCriterion(kind, alpha)

    def run(self, inp):
        _, problem, criterion = inp
        return ugp.chance.sweep(problem, self.GAMMAS, criterion)

    def capture(self, inp, rows):
        return tuple(
            ("failed", r.gamma, r.error)
            if isinstance(r, FailedRow)
            else (r.gamma, r.x_star, r.delta_star, r.expected_objective)
            for r in rows
        )

    def check(self, inp, result) -> list[list[str]]:
        data, _, criterion = inp
        if [row[0] if row[0] != "failed" else row[1] for row in result] != self.GAMMAS:
            return [["row_count"]] * self.units
        betas = data.deterministic(criterion.kind, criterion.alpha, self.GAMMAS)
        units = []
        for row, beta in zip(result, betas):
            if row[0] == "failed":
                units.append([f"failed_row.{row[2]}"])
                continue
            _, x, delta, objective = row
            units.append(oracle.gp_check(data, beta, np.array(x), np.array(delta), objective))
        return units

    def deep_check(self, items: list) -> list:
        """Re-solve a seeded sample of solved rows with SLSQP from x = 1."""
        solved = [
            (key, inp, unit, row)
            for key, inp, result in items
            for unit, row in enumerate(result)
            if row[0] != "failed"
        ]
        rng = np.random.default_rng([self.seed, 0, 0])  # not a per-op stream
        failed = []
        for p in rng.permutation(len(solved))[: self.SCIPY_SAMPLE]:
            key, (data, _, criterion), unit, (gamma, _, _, objective) = solved[int(p)]
            beta = data.deterministic(criterion.kind, criterion.alpha, [gamma])[0]
            best = oracle.lse_minimum(data, beta, np.zeros(data.exponents.shape[1]))
            if not abs(best - objective) <= 1e-6 * best:
                failed.append((key, unit, "scipy"))
        return failed


# ---------------------------------------------------------------------------
# curves: forward evaluation of reduced distributions
# ---------------------------------------------------------------------------

CURVE_POOL = 32
LEVELS = [i / 100 for i in range(1, 100)]


class Curves:
    """curve_samples at 1000 points for three criteria, then per criterion
    reduce and invert at 99 levels, the analytic expected value, and a
    regularity check of one reduced distribution."""

    SAMPLES = 1000
    SIMPSON_SAMPLE = 3  # coefficients per run cross-checked by Simpson, untimed
    units = 1
    round = CURVE_POOL  # one pass over the pool
    trace_ops = 4 * round

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.pool = []
        for i in range(CURVE_POOL):
            low = math.exp(rng.uniform(0.0, math.log(50.0)))
            coeff = _coefficient(rng, low, low * rng.uniform(1.3, 3.0))
            alpha = float(np.round(rng.uniform(0.05, 0.95), 3))
            crits = (("expected", None), ("optimistic", alpha), ("pessimistic", alpha))
            family = "triangular" if len(coeff.params) == 3 else "trapezoidal"
            tf = TwoFoldVariable(family, coeff.params, coeff.theta_l, coeff.theta_r)
            self.pool.append((i, coeff, tf, crits, [ReductionCriterion(*c) for c in crits]))

    def close(self) -> None:
        pass

    def key(self, i: int) -> int:
        return i % len(self.pool)

    def input(self, key: int):
        return self.pool[key]

    def run(self, inp):
        i, _, tf, _, criteria = inp
        xs, columns = ugp.twofold.curve_samples(tf, criteria, self.SAMPLES)
        reduced = [ugp.twofold.reduce_twofold(tf, c) for c in criteria]
        inverses = [[r.inverse(g) for g in LEVELS] for r in reduced]
        expected = [ugp.distributions.expected_value(r) for r in reduced]
        report = ugp.distributions.check_regularity(reduced[i % 3])
        return xs, columns, inverses, expected, report

    def capture(self, inp, out):
        xs, columns, inverses, expected, r = out
        return (
            tuple(xs),
            tuple(tuple(c) for c in columns),
            tuple(tuple(v) for v in inverses),
            tuple(expected),
            (r.passed, r.max_decrease, r.value_at_lower, r.value_at_upper),
        )

    def check(self, inp, result) -> list[list[str]]:
        _, coeff, _, crits, _ = inp
        xs, columns, inverses, expected, report = result
        failures = set()
        xs = np.array(xs)
        scale = coeff.params[-1]
        for (kind, alpha), column, inv, exp in zip(crits, columns, inverses, expected):
            ref = coeff.reduced(kind, alpha)
            if not np.max(np.abs(np.array(column) - ref.cdf(xs))) <= 1e-12:
                failures.add("cdf")
            inv = np.array(inv)
            if not (
                np.max(np.abs(inv - ref.inverse(LEVELS))) <= 1e-12 * scale
                and np.max(np.abs(ref.cdf(inv) - LEVELS)) <= 1e-10
            ):
                failures.add("inverse")
            if not abs(exp - ref.expected()) <= 1e-12 * scale:
                failures.add("expected")
        passed, _, at_lower, at_upper = report
        if not (passed and at_lower == 0.0 and abs(at_upper - 1.0) <= 1e-12):
            failures.add("regularity")
        return [sorted(failures)]

    def deep_check(self, items: list) -> list:
        """Analytic expected value against the Simpson route on a sample."""
        rng = np.random.default_rng([self.seed, 0, 0])  # not a per-op stream
        failed = []
        for p in rng.permutation(len(items))[: self.SIMPSON_SAMPLE]:
            key, (_, _, tf, _, criteria), _ = items[int(p)]
            for c in criteria:
                r = ugp.twofold.reduce_twofold(tf, c)
                analytic = ugp.distributions.expected_value(r)
                simpson = ugp.distributions.expected_value(r, method="simpson")
                if not abs(analytic - simpson) <= 1e-8 * abs(analytic):
                    failed.append((key, 0, "simpson"))
        return failed


WORKLOADS = {"paper-tables": PaperTables, "dod-sweep": DodSweep, "curves": Curves}
