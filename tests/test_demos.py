"""The demo scripts run end to end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "benchmark_sweeps.py",
        "distributions_tour.py",
        "reduction_tour.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # reduction_tour writes its CSV here
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
