"""Benchmark of the ugp pipeline: three seeded workloads, one process.

Usage, from the repository root:

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the working tree.
One run:

1. times ``SETUP_REPEATS`` fresh interpreters from start until the first
   op could run (``import ugp`` plus building the workload's inputs) and
   reports the median as ``setup_s``;
2. runs one untimed warm-up op, then the timed loop: ops back to back in
   this single thread (a closed loop with one client; BLAS is limited to
   one thread) until ``--seconds`` have passed and at least ``MIN_OPS``
   ops ran, on whole rounds of the workload's inputs;
3. checks every output against :mod:`oracle` (routes that do not call
   the solver) and counts failed units;
4. prints a readable report and, as the last line, one JSON object.

With ``--trace 1`` the timed loop gets half of ``--seconds``; then every
layer is wrapped (:mod:`tracing`) and a fixed number of ops runs traced.
The JSON then holds the per-layer metrics, per traced op, and the
tracing overhead (traced minus untraced) of each end-to-end metric.

A calibration loop of fixed pure-Python work is timed at the start and
the end of each run and reported next to the metrics; it is a record of
host speed drift and is not used to adjust them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
IMPORTTIME_LOG = OUT / "importtime.log"
MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_REPEATS = 5
IMPORT_BUCKETS = ("numpy", "scipy", "ugp")

CHECKS = (
    "gap", "constraints", "conditions", "objective", "scipy",
    "cdf", "inverse", "expected", "regularity", "simpson",
    "failed_row", "exit_code", "row_count", "determinism",
)
PER_LAYER_MS = (
    "gp.linprog", "gp.null_space", "gp.solve_dual.newton", "gp.solve_dual.direct",
    "gp.DualProblem.log_value", "gp.build_dual", "gp.recover_primal",
    "gp.verify_solution", "cli.load_problem", "chance.reduce_problem",
    "twofold.reduce_twofold", "distributions.PiecewiseDistribution.cdf",
    "distributions.PiecewiseDistribution.inverse",
    "distributions.PiecewiseDistribution.expected_value",
    "distributions.check_regularity",
)
PER_LAYER_CALLS = (
    "gp.linprog", "gp.solve_dual.newton", "gp.solve_dual.direct",
    "gp.DualProblem.log_value", "gp.solve_gp", "twofold.reduce_twofold",
    "distributions.PiecewiseDistribution.cdf",
    "distributions.PiecewiseDistribution.inverse",
)
PER_LAYER_SELF_MS = ("gp.solve_gp", "chance.sweep", "cli.main", "twofold.curve_samples")
FAILURE_CLASSES = ("NonConvergence", "InfeasibleDual", "RankDeficient")


def calibrate_ms() -> float:
    """Median of 5 timings of fixed pure-Python work, independent of the
    program under test."""
    times = []
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(1e3 * (perf_counter() - start))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up time, in fresh interpreters
# ---------------------------------------------------------------------------


def run_probe(workload: str, seed: int, importtime: bool = False) -> tuple[float, dict]:
    """Launch a fresh interpreter on ``setup_probe.py``; return the wall
    time until it reports ready, and its report.  With ``importtime`` the
    interpreter's ``-X importtime`` log goes to ``IMPORTTIME_LOG``."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, str(HERE / "setup_probe.py"), workload, str(seed)]
    with open(IMPORTTIME_LOG if importtime else os.devnull, "w") as log:
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=60)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, json.loads(line)


def setup_breakdown(workload: str, seed: int) -> dict[str, float]:
    """Split set-up by ``python -X importtime``: the self time of every
    module goes to the nearest enclosing numpy, scipy or ugp import."""
    wall, ready = run_probe(workload, seed, importtime=True)
    lines = IMPORTTIME_LOG.read_text().splitlines()
    IMPORTTIME_LOG.unlink()
    pending: list[tuple[int, dict]] = []
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        node = {"name": name.strip(), "self_us": int(fields[0]), "children": []}
        # importtime prints a module after its children, one level deeper.
        while pending and pending[-1][0] > depth:
            node["children"].insert(0, pending.pop()[1])
        pending.append((depth, node))
    roots = [node for _, node in pending]
    buckets: Counter = Counter()

    def walk(node: dict, bucket: str) -> None:
        top = node["name"].split(".")[0]
        bucket = top if top in IMPORT_BUCKETS else bucket
        buckets[bucket] += node["self_us"] * 1e-6
        for child in node["children"]:
            walk(child, bucket)

    for root in roots:
        walk(root, "other")
    return {
        "setup.import_numpy_s": buckets["numpy"],
        "setup.import_scipy_s": buckets["scipy"],
        "setup.import_ugp_own_s": buckets["ugp"],
        "setup.load_s": ready["load_s"],
        "importtime_wall_s": wall,
    }


# ---------------------------------------------------------------------------
# The timed loop and the output checks
# ---------------------------------------------------------------------------


class Loop:
    """Ops run, their latencies, and the first output of each input."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.latencies: list[float] = []
        self.keys: list = []
        self.first: dict = {}  # key -> (input, captured output, digest)
        self.mismatch: list[bool] = []

    def run(self, seconds: float, min_ops: int, max_ops: int | None = None, tracer=None) -> None:
        """Ops until ``seconds`` passed and ``min_ops`` ran, in whole rounds
        (a round runs every distinct input of a cycle once)."""
        wl = self.wl
        deadline = perf_counter() + seconds
        i = 0
        while (
            i < min_ops or perf_counter() < deadline or i % wl.round
        ) and (max_ops is None or i < max_ops):
            key = wl.key(i)
            inp = self.first[key][0] if key in self.first else wl.input(key)
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            start = perf_counter()
            out = wl.run(inp)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            self.latencies.append(elapsed)
            captured = wl.capture(inp, out)
            digest = hash(captured)
            if key not in self.first:
                self.first[key] = (inp, captured, digest)
            self.keys.append(key)
            self.mismatch.append(self.first[key][2] != digest)
            i += 1

    def metrics(self) -> dict[str, float]:
        lat = self.latencies
        deciles = statistics.quantiles(lat, n=10)
        return {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * deciles[8],
        }

    def check(self) -> tuple[int, int, int, Counter]:
        """(failed ops, attempted units, failed units, failures per check).

        A unit fails when it came back as a failed row or fails a check;
        an op fails when one of its outputs fails a check, since a failed
        row is a result the program reports, not a wrong one.
        """
        wl = self.wl
        per_key = {key: wl.check(inp, out) for key, (inp, out, _) in self.first.items()}
        items = [(key, inp, out) for key, (inp, out, _) in self.first.items()]
        for key, unit, name in wl.deep_check(items):
            per_key[key][unit] = per_key[key][unit] + [name]
        failed_ops = failed_units = 0
        checks: Counter = Counter()
        for key, mismatch in zip(self.keys, self.mismatch):
            units = [["determinism"]] * wl.units if mismatch else per_key[key]
            names = [name.split(".")[0] for unit in units for name in unit]
            failed_units += sum(bool(unit) for unit in units)
            failed_ops += any(name != "failed_row" for name in names)
            checks.update(names)
        return failed_ops, wl.units * len(self.keys), failed_units, checks


UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_frac": "fraction", "peak_rss_mb": "MB",
}


def per_layer(tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced op, with their units."""
    out = {}
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = (tracer.calls_of(name) / n_ops, "count")
    for name in PER_LAYER_MS:
        out[f"{name}.ms"] = (tracer.ms(name) / n_ops, "ms")
    for name in PER_LAYER_SELF_MS:
        out[f"{name}.self_ms"] = (tracer.self_ms(name) / n_ops, "ms")
    known = sum(tracer.failures[c] for c in FAILURE_CLASSES)
    for cls in FAILURE_CLASSES:
        out[f"gp.failures.{cls}"] = (tracer.failures[cls] / n_ops, "count")
    out["gp.failures.other"] = ((sum(tracer.failures.values()) - known) / n_ops, "count")
    out["gp.failures.ms"] = (1e3 * tracer.failed_s / n_ops, "ms")
    out["trace.spans"] = (tracer.spans / n_ops, "count")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ugp" / "__init__.py").is_file():
        print(f"error: no ugp sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # One thread: no BLAS worker threads here or in the set-up probes.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    OUT.mkdir(exist_ok=True)

    calib_start = calibrate_ms()
    setup_s = statistics.median(
        run_probe(args.workload, args.seed)[0] for _ in range(SETUP_REPEATS)
    )

    import ugp
    from workloads import WORKLOADS

    if Path(ugp.__file__).resolve().parent != (SRC / "ugp").resolve():
        print(f"error: ugp was imported from {ugp.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, OUT)
    try:
        wl.run(wl.input(wl.key(0)))  # warm-up: lazy imports, first-call costs
        loop = Loop(wl)
        loop.run(args.seconds / 2 if args.trace else args.seconds, MIN_OPS)
        metrics = {"setup_s": setup_s, **loop.metrics(), "peak_rss_mb": peak_rss_mb()}
        if args.trace:
            layers = traced_run(wl, args, metrics)
        failed_ops, units, failed_units, checks = loop.check()
    finally:
        wl.close()
    metrics["ok_frac"] = 1.0 - failed_units / units
    calib_end = calibrate_ms()

    print(
        f"# {args.workload} seed={args.seed} ops={len(loop.latencies)} units={units} "
        f"failed_units={failed_units} checks={dict(checks)} "
        f"host.calib_ms={calib_start:.2f}->{calib_end:.2f}"
    )
    print(f"#   {'fail_frac':12s} {failed_units / units:14.6f} fraction")
    for name, value in metrics.items():
        print(f"#   {name:12s} {value:14.6f} {UNITS[name]}")
    if args.trace:
        layers["host.calib_start_ms"] = (calib_start, "ms")
        layers["host.calib_end_ms"] = (calib_end, "ms")
        for name in CHECKS:
            layers[f"check.{name}"] = (checks[name], "count")
        report = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    else:
        report = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    result = {
        "correct": failed_ops == 0,
        "attempted": len(loop.latencies),
        "failed": failed_ops,
        "metrics": report,
    }
    print(json.dumps(result))
    return 0


def traced_run(wl, args, untraced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from ``wl.trace_ops`` traced ops, the set-up
    breakdown, and the overhead of tracing on each timing metric."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    loop = Loop(wl)
    loop.run(0.0, wl.trace_ops, wl.trace_ops, tracer)
    tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    breakdown = setup_breakdown(args.workload, args.seed)
    traced = {
        "setup_s": breakdown.pop("importtime_wall_s"),
        **loop.metrics(),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = per_layer(tracer, wl.trace_ops)
    layers.update((name, (value, "s")) for name, value in breakdown.items())
    for name, value in untraced.items():
        layers[f"trace.overhead.{name}"] = (traced[name] - value, UNITS[name])
    return layers


if __name__ == "__main__":
    sys.exit(main())
