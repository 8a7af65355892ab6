"""The benchmark's own output checks accept the program's outputs.

One short pass of each workload in ``bench/`` goes through the benchmark's
loop, its ``check`` and its ``deep_check``; no unit may fail except as a
failed row, which is a result the program reports.  dod-sweep runs ops
0-4: four binding problems and one problem with a slack block, whose four
rows fail with NonConvergence, so the failed-row path of the checks runs
too.  The rows of dod-sweep's whole first round (ops 0-24) are pinned by
hash, and each of those ops passes the benchmark's solver-neutral
checks except as failed rows of its slack ops.  Traced, the same passes
(dod-sweep: its binding ops 0-3) must record calls in four layers that
the benchmark's per-layer metrics name, so that a rename in ``ugp``
cannot silently break the tracer.  One
well-posed dod-sweep problem whose rows the dual Newton cannot yet solve
is an expected failure.
"""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ugp.chance import SweepRow

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["curves", "paper-tables", "dod-sweep"])
def test_one_pass_passes_the_benchmark_checks(bench, tmp_path, name):
    run, workloads = bench
    wl = workloads.WORKLOADS[name](1, tmp_path)
    if name == "dod-sweep":
        ops = workloads.SLACK_EVERY
        slack = [workloads.dod_shape(i)[2] for i in range(ops)]
        assert slack == [False] * 4 + [True]
    else:
        ops = wl.round
    try:
        loop = run.Loop(wl)
        loop.run(0.0, ops, ops)
        failed_ops, units, failed_units, checks = loop.check()
    finally:
        wl.close()
    assert len(loop.latencies) == ops and units == ops * wl.units
    assert failed_ops == 0, checks
    assert set(checks) <= {"failed_row"}, checks
    if name == "dod-sweep":
        captured = [row for _, out, _ in loop.first.values() for row in out]
        errors = [row[2] for row in captured if row[0] == "failed"]
        assert errors == ["NonConvergence"] * wl.units
        assert failed_units == checks["failed_row"] == wl.units


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rows 0.2 and 0.4 stop at 500 dual Newton steps (ROADMAP item 2)",
)
def test_binding_problem_of_degree_49_solves_every_row(bench, tmp_path):
    # dod-sweep seed 1, op 388: 6 variables, pessimistic criterion at 0.905
    _, workloads = bench
    wl = workloads.DodSweep(1, tmp_path)
    rows = wl.run(wl.input((1, 388)))
    assert len(rows) == 4
    assert all(isinstance(row, SweepRow) for row in rows), rows


# sha256 of the reprs of every row (SweepRow with diagnostics, or FailedRow)
# of dod-sweep seed 1, round 0 -- ops 0-24: 20 binding problems and the 5
# slack-corpus problems -- in op order
ROUND_0_DIGEST = "7572e19532f896fe413c79aba7a10ee9b5e6028bce1dfa476cb7aaec6db08bbd"


def test_dod_sweep_round_0_rows_are_pinned(bench, tmp_path):
    _, workloads = bench
    wl = workloads.DodSweep(1, tmp_path)
    rows = []
    for i in range(wl.round):
        inp = wl.input(wl.key(i))
        out = wl.run(inp)
        rows += out
        # the solver-neutral checks: only a slack op may fail, and only
        # as a failed row
        slack = workloads.dod_shape(i)[2]
        for unit in wl.check(inp, wl.capture(inp, out)):
            assert unit == [] or (
                slack and len(unit) == 1 and unit[0].startswith("failed_row.")
            ), (i, unit)
    assert len(rows) == wl.round * wl.units
    text = "\n".join(map(repr, rows))
    assert hashlib.sha256(text.encode()).hexdigest() == ROUND_0_DIGEST


TRACED_PASSES = """
import json, sys
from pathlib import Path

bench, workdir = sys.argv[1], Path(sys.argv[2])
sys.path[:0] = [str(Path(bench).parent / "src"), bench]
import run, workloads
from tracing import Tracer

tracer = Tracer()
tracer.install()
passes = {
    "curves": "distributions.PiecewiseDistribution.cdf",
    "paper-tables": "distributions.PiecewiseDistribution.inverse",
    "dod-sweep": ("gp.linprog", "gp.DualProblem.log_value"),
}
per_op = {}
for name, layers in passes.items():
    wl = workloads.WORKLOADS[name](1, workdir)
    ops = workloads.SLACK_EVERY - 1 if name == "dod-sweep" else wl.round
    layers = (layers,) if isinstance(layers, str) else layers
    before = {layer: tracer.calls_of(layer) for layer in layers}
    try:
        run.Loop(wl).run(0.0, ops, ops, tracer)
    finally:
        wl.close()
    for layer in layers:
        per_op[f"{name}: {layer}"] = (tracer.calls_of(layer) - before[layer]) / ops
print(json.dumps(per_op))
"""


def test_traced_passes_count_every_probed_layer(tmp_path):
    # Tracer.install patches ugp for the rest of the process, so the
    # traced passes run in a fresh interpreter.
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASSES, str(BENCH), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    per_op = json.loads(proc.stdout.splitlines()[-1])
    assert len(per_op) == 4
    assert all(calls > 0 for calls in per_op.values()), per_op
