"""The benchmark's own output checks accept the program's outputs.

One short pass of each workload in ``bench/`` goes through the benchmark's
loop, its ``check`` and its ``deep_check``; no unit may fail except as a
failed row, which is a result the program reports.  dod-sweep runs only
the binding problems of its first round (ops 0-3): each op with a slack
block takes seconds.
"""

import importlib
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
