"""The benchmark's own output checks accept the program's outputs.

One short pass of each workload in ``bench/`` goes through the benchmark's
loop, its ``check`` and its ``deep_check``; no unit may fail except as a
failed row, which is a result the program reports.  dod-sweep runs only
the binding problems of its first round (ops 0-3): each op with a slack
block takes seconds.  Traced, the same passes must record calls in four
layers that the benchmark's per-layer metrics name, so that a rename in
``ugp`` cannot silently break the tracer.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
        ops = workloads.SLACK_EVERY - 1
        assert not any(workloads.dod_shape(i)[2] for i in range(ops))
    else:
        ops = wl.round
    try:
        loop = run.Loop(wl)
        loop.run(0.0, ops, ops)
        failed_ops, units, _, checks = loop.check()
    finally:
        wl.close()
    assert len(loop.latencies) == ops and units == ops * wl.units
    assert failed_ops == 0, checks
    assert set(checks) <= {"failed_row"}, checks


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
