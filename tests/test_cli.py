"""CLI surface: problem files, CSV outputs, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ugp.cli
import ugp.errors
from ugp.cli import bundled_problem_path, load_problem, main
from ugp.chance import UncertainGPProblem
from ugp.distributions import TriangularDistribution
from ugp.errors import (
    EXIT_DOD,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    ProblemFormatError,
)


# Stands for an integer of 5,001 digits, beyond CPython's 4,300-digit
# limit on int/str conversion, so json.dumps cannot write it.
HUGE = "<5001-digit integer>"


def write_problem(path, doc) -> str:
    text = json.dumps(doc).replace(json.dumps(HUGE), "9" * 5001)
    path.write_text(text, encoding="utf-8")
    return str(path)


SINGLE_TRI = {
    "variables": ["x"],
    "objective": [
        {
            "family": "tri",
            "params": [2, 4, 5],
            "theta_l": 0.5,
            "theta_r": 0.6,
            "exponents": {"x": 1},
        }
    ],
    "constraints": [],
}

AMGM = {
    "variables": ["x"],
    "objective": [
        {
            "family": "tri",
            "params": [0.5, 1.0, 1.5],
            "theta_l": 0,
            "theta_r": 0,
            "exponents": {"x": 1},
        },
        {
            "family": "tri",
            "params": [0.5, 1.0, 1.5],
            "theta_l": 0,
            "theta_r": 0,
            "exponents": {"x": -1},
        },
    ],
    "constraints": [],
}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestProblemFiles:
    def test_bundled_files_parse(self):
        for name in ("triangular_case.json", "trapezoidal_case.json"):
            names, problem = load_problem(bundled_problem_path(name))
            assert names == ["x1", "x2", "x3"]
            assert len(problem.objective) == 3
            assert len(problem.constraints) == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemFormatError):
            load_problem(bad)

    def test_unknown_exponent_variable(self, tmp_path):
        doc = json.loads(json.dumps(SINGLE_TRI))
        doc["objective"][0]["exponents"] = {"y": 1}
        with pytest.raises(ProblemFormatError, match="'y'"):
            load_problem(write_problem(tmp_path / "p.json", doc))

    def test_missing_field_names_offender(self, tmp_path):
        doc = json.loads(json.dumps(SINGLE_TRI))
        del doc["objective"][0]["theta_l"]
        with pytest.raises(ProblemFormatError, match="theta_l"):
            load_problem(write_problem(tmp_path / "p.json", doc))

    def test_nonincreasing_params_is_domain_error(self, tmp_path):
        doc = json.loads(json.dumps(SINGLE_TRI))
        doc["objective"][0]["params"] = [5, 4, 2]
        path = write_problem(tmp_path / "p.json", doc)
        with pytest.raises(ValueError):
            load_problem(path)
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_DOMAIN


    @pytest.mark.parametrize(
        "field, value",
        [
            ("params", [2, 4, float("inf")]),
            ("params", [float("nan"), 4, 5]),
            ("theta_l", float("nan")),
            ("theta_r", float("-inf")),
            ("exponents", {"x": float("nan")}),
            # integers too large for a double
            pytest.param("params", [2, 4, 10**400], id="params-huge"),
            pytest.param("theta_l", 10**400, id="theta_l-huge"),
            pytest.param("exponents", {"x": -(10**400)}, id="exponents-huge"),
            # and beyond CPython's 4,300-digit integer parser
            pytest.param("params", [2, 4, HUGE], id="params-5001-digits"),
            pytest.param("theta_l", HUGE, id="theta_l-5001-digits"),
            pytest.param("exponents", {"x": HUGE}, id="exponents-5001-digits"),
        ],
    )
    def test_nonfinite_values_name_the_field(self, tmp_path, capsys, field, value):
        doc = json.loads(json.dumps(AMGM))
        doc["objective"][1][field] = value
        path = write_problem(tmp_path / "p.json", doc)
        with pytest.raises(ValueError, match=f"objective\\[1\\]: field '{field}'"):
            load_problem(path)
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_DOMAIN
        message = capsys.readouterr().err
        assert message.startswith(f"error: objective[1]: field '{field}' must be finite")
        assert message.count("\n") == 1
        assert "rank" not in message  # the solver is never reached

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (
                "params",
                [25, 20, 10],
                "family parameters must be strictly increasing, got (25.0, 20.0, 10.0)",
            ),
            ("params", [1, 2, 3, 4], "triangular family takes 3 parameters, got 4"),
            ("theta_r", 1.5, "theta_r must lie in [0, 1], got 1.5"),
        ],
        ids=["params-decreasing", "params-count", "theta_r-above-one"],
    )
    def test_domain_errors_name_the_term(self, tmp_path, capsys, field, value, message):
        doc = json.loads(json.dumps(AMGM))
        doc["objective"][1][field] = value
        path = write_problem(tmp_path / "p.json", doc)
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: objective[1]: {message}\n"

    @pytest.mark.parametrize("field", ["thetas", "exponents"])
    def test_integer_minus_zero_reads_as_zero(self, tmp_path, field):
        # every JSON integer loads as a float, so -0 loads as -0.0
        source = bundled_problem_path("trapezoidal_case.json").read_text()
        outputs = []
        for zero in ("0", "-0"):
            doc = json.loads(source)
            for term in doc["objective"] + doc["constraints"][0]:
                if field == "thetas":
                    term["theta_l"] = term["theta_r"] = "<zero>"
                else:  # spell out every exponent the file leaves at zero
                    for name in doc["variables"]:
                        term["exponents"].setdefault(name, "<zero>")
            path = tmp_path / f"{zero}.json"
            path.write_text(json.dumps(doc).replace('"<zero>"', zero), encoding="utf-8")
            out = tmp_path / f"{zero}.csv"
            argv = ["sweep", str(path), "--gammas", "0.1:0.9:0.1", "-o", str(out)]
            assert main(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("params", [True, 2, 3]),
            ("params", [0.5, True, 1.5]),
            ("theta_l", True),
            ("theta_r", False),
            ("exponents", {"x": True}),
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, capsys, field, value):
        # JSON true/false load as Python bools, which are ints
        doc = json.loads(json.dumps(AMGM))
        doc["objective"][1][field] = value
        path = write_problem(tmp_path / "p.json", doc)
        with pytest.raises(ProblemFormatError, match=r"^objective\[1\]: .*a number"):
            load_problem(path)
        out = tmp_path / "sweep.csv"
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_PARSE
        assert main(["sweep", path, "--gammas", "0.5", "-o", str(out)]) == EXIT_PARSE
        assert not out.exists()
        assert "must be a number" in capsys.readouterr().err


# min x + 1/x with both coefficients near 1.2e308: the optimum 2.4e308
# overflows double precision
OVERFLOWING = {
    "variables": ["x"],
    "objective": [
        {
            "family": "tri",
            "params": [1e308, 1.2e308, 1.4e308],
            "theta_l": 0.5,
            "theta_r": 0.5,
            "exponents": {"x": power},
        }
        for power in (1, -1)
    ],
    "constraints": [],
}


README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_CLASSES = [
    obj
    for obj in vars(ugp.errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception)
]


def readme_exit_table() -> list[tuple[int, str]]:
    """(code, classes cell) per row of the README's exit-code table."""
    section = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1]
    rows = []
    for line in section.split("\n#", 1)[0].splitlines():
        cells = line.split("|")
        if len(cells) == 5 and cells[1].strip().isdigit():
            rows.append((int(cells[1]), cells[3]))
    return rows


def readme_exit_codes() -> dict[str, int]:
    """Class name -> exit code, read from the README's exit-code table."""
    return {
        name: code
        for code, classes in readme_exit_table()
        for name in re.findall(r"`(\w+)`", classes)
    }


class TestExitCodes:
    def test_every_error_class_exits_with_its_readme_code(
        self, tmp_path, monkeypatch, capsys
    ):
        codes = readme_exit_codes()
        assert sorted(codes) == sorted(cls.__name__ for cls in ERROR_CLASSES)
        path = write_problem(tmp_path / "p.json", AMGM)
        for cls in ERROR_CLASSES:
            error = cls("pinned")

            def fail(*args, error=error):
                raise error

            monkeypatch.setattr(ugp.chance, "sweep", fail)
            assert cls.exit_code == codes[cls.__name__]
            assert main(["solve", path, "--gamma", "0.5"]) == cls.exit_code
            assert capsys.readouterr().err == "error: pinned\n"

    def test_overflowing_solution_is_a_domain_error(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", OVERFLOWING)
        out = tmp_path / "sweep.csv"
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_DOMAIN
        assert "overflow" in capsys.readouterr().err
        assert main(["sweep", path, "--gammas", "0.3,0.5", "-o", str(out)]) == EXIT_DOMAIN
        assert "overflow" in capsys.readouterr().err
        failed = [row[0] for row in read_csv(out)[1:]]
        assert len(failed) == 2
        assert all("error=NumericalRangeError" in line for line in failed)

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]", encoding="utf-8")
        assert main(["solve", str(bad), "--gamma", "0.5"]) == EXIT_PARSE

    def test_missing_file_exit(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"), "--gamma", "0.5"]) == EXIT_PARSE

    def test_domain_error_exit(self, tmp_path):
        path = write_problem(tmp_path / "p.json", AMGM)
        assert main(["solve", path, "--gamma", "1.5"]) == EXIT_DOMAIN

    def test_negative_degree_of_difficulty_exit(self, tmp_path):
        path = write_problem(tmp_path / "p.json", SINGLE_TRI)
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_DOD

    def test_missing_alpha_for_optimistic(self, tmp_path):
        path = write_problem(tmp_path / "p.json", AMGM)
        rc = main(["solve", path, "--gamma", "0.5", "--criterion", "optimistic"])
        assert rc == EXIT_DOMAIN

    @pytest.mark.parametrize("command", ["solve", "sweep", "reduce"])
    def test_alpha_with_expected_criterion(self, tmp_path, capsys, command):
        # ReductionCriterion("expected", alpha) raises; the CLI must not drop alpha
        path = write_problem(tmp_path / "p.json", AMGM)
        grid = {"solve": ["--gamma", "0.5"], "sweep": ["--gammas", "0.5"], "reduce": []}
        argv = [command, path, *grid[command], "--criterion", "expected", "--alpha", "7"]
        assert main(argv + ["-o", str(tmp_path / "out.csv")]) == EXIT_DOMAIN
        assert "expected reduction takes no alpha" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestReduceCommand:
    def test_curve_passes_through_known_point(self, tmp_path):
        path = write_problem(tmp_path / "p.json", SINGLE_TRI)
        out = tmp_path / "curves.csv"
        rc = main(["reduce", path, "--criterion", "expected", "-o", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["x_obj1", "cdf_obj1"]
        assert len(rows) == 1001
        # the 1000-point grid over [2, 5] hits x = 3 at index 333 + 1 header
        x, value = (float(v) for v in rows[334])
        assert x == pytest.approx(3.0, abs=1e-12)
        assert value == pytest.approx(0.175, abs=1e-12)

    @pytest.mark.parametrize("samples", ["1000001", str(10**18)])
    def test_oversized_sample_count_is_a_domain_error(
        self, tmp_path, capsys, monkeypatch, samples
    ):
        def never(*args, **kwargs):
            raise AssertionError("curve_samples ran")

        monkeypatch.setattr(ugp.cli, "curve_samples", never)
        path = write_problem(tmp_path / "p.json", SINGLE_TRI)
        out = tmp_path / "curves.csv"
        argv = ["reduce", path, "-o", str(out), "--samples", samples]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: --samples must be at most 1000000\n"
        assert not out.exists()

    def test_sample_count_at_the_cap_is_accepted(self, tmp_path, monkeypatch):
        seen = []

        def two_points(tf, criteria, samples):  # stands in for the 1e6-point grid
            seen.append(samples)
            return [0.0, 1.0], [[0.0, 1.0]]

        monkeypatch.setattr(ugp.cli, "curve_samples", two_points)
        path = write_problem(tmp_path / "p.json", SINGLE_TRI)
        out = str(tmp_path / "curves.csv")
        assert main(["reduce", path, "-o", out, "--samples", "1000000"]) == EXIT_OK
        assert seen == [1_000_000]

    def test_zero_theta_curve_equals_base_cdf(self, tmp_path):
        doc = json.loads(json.dumps(SINGLE_TRI))
        doc["objective"][0]["theta_l"] = 0
        doc["objective"][0]["theta_r"] = 0
        path = write_problem(tmp_path / "p.json", doc)
        out = tmp_path / "curves.csv"
        assert main(["reduce", path, "-o", str(out), "--samples", "200"]) == EXIT_OK
        base = TriangularDistribution(2, 4, 5)
        for row in read_csv(out)[1:]:
            x, value = float(row[0]), float(row[1])
            assert value == pytest.approx(base.cdf(x), abs=1e-12)

    def test_optimistic_half_equals_expected(self, tmp_path):
        doc = {
            "variables": ["x"],
            "objective": [
                {
                    "family": "tra",
                    "params": [2, 4, 6, 8],
                    "theta_l": 0.5,
                    "theta_r": 0.6,
                    "exponents": {"x": 1},
                }
            ],
            "constraints": [],
        }
        path = write_problem(tmp_path / "p.json", doc)
        out_a = tmp_path / "expected.csv"
        out_b = tmp_path / "optimistic.csv"
        assert main(["reduce", path, "-o", str(out_a)]) == EXIT_OK
        assert main(
            ["reduce", path, "--criterion", "optimistic", "--alpha", "0.5",
             "-o", str(out_b)]
        ) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


    # sha256 of the CSV written by ``ugp reduce`` (1000 samples) for the
    # bundled problems, recorded before the piecewise carrier was rewritten;
    # the curves are pure arithmetic, so they must stay bit-identical.
    REDUCE_SHA256 = {
        ("triangular_case.json", "expected"):
            "eb45438f791064a29af0f00245c101ed044c27b661376abeb7f0ca56abe04b86",
        ("triangular_case.json", "optimistic"):
            "66ea1634e4cec73430a3f81cd19f4ec25a4f3e7a47f3aee68ef8a305784eade9",
        ("triangular_case.json", "pessimistic"):
            "bf993f1a6b5604926704234d230e30a000c4436364b3f3ecfc6ebbe71b8f35f1",
        ("trapezoidal_case.json", "expected"):
            "d8e7e673ab8f1eb89f3ecd4d1b0f9027c6208fb79d50bc7b4047013eaff7aa06",
        ("trapezoidal_case.json", "optimistic"):
            "e50fbf4effbca83bc231a0d083208da27a17dd783425b5879a426fdaa3c13248",
        ("trapezoidal_case.json", "pessimistic"):
            "40b03f4bb26cc11d4d5300ee3ad0c4697c909128b81ee86c3d1cfa02d388b1b6",
    }
    ALPHA = {"expected": [], "optimistic": ["--alpha", "0.3"],
             "pessimistic": ["--alpha", "0.7"]}

    @pytest.mark.parametrize("name, criterion", sorted(REDUCE_SHA256))
    def test_bundled_curves_are_pinned(self, tmp_path, name, criterion):
        out = tmp_path / "curves.csv"
        argv = ["reduce", str(bundled_problem_path(name)), "--criterion", criterion]
        assert main(argv + self.ALPHA[criterion] + ["-o", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.REDUCE_SHA256[(name, criterion)]


class TestSolveCommand:
    def test_benchmark_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        rc = main(
            ["solve", str(bundled_problem_path("triangular_case.json")),
             "--gamma", "0.5", "-o", str(out)]
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "expected objective" in printed
        rows = read_csv(out)
        assert rows[0] == [
            "gamma", "x1", "x2", "x3",
            "delta1", "delta2", "delta3", "delta4", "objective",
        ]
        values = [float(v) for v in rows[1]]
        assert values[0] == 0.5
        assert values[-1] == pytest.approx(300.156, abs=1e-2)
        assert values[1:4] == pytest.approx([3.063, 1.789, 1.405], abs=5e-3)

    def test_report_then_the_wrote_line(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        argv = ["solve", str(bundled_problem_path("triangular_case.json")),
                "--gamma", "0.5", "-o", str(out)]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in lines] == [
            "gamma", "x*", "delta*", "expected objective", "duality gap (relative)",
            "constraint values", "stationarity residual", f"wrote {out}",
        ]
        assert lines[1] == "x* = (3.063308, 1.789434, 1.404642)"

    def test_amgm_solves_to_two(self, tmp_path):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "row.csv"
        assert main(["solve", path, "--gamma", "0.5", "-o", str(out)]) == EXIT_OK
        values = [float(v) for v in read_csv(out)[1]]
        assert values[1] == pytest.approx(1.0, abs=1e-10)
        assert values[-1] == pytest.approx(2.0, abs=1e-10)


class TestSweepCommand:
    def test_benchmark_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", str(bundled_problem_path("triangular_case.json")),
             "--gammas", "0.1:0.9:0.1", "-o", str(out)]
        )
        assert rc == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 10
        gammas = [float(r[0]) for r in rows[1:]]
        assert gammas == pytest.approx([0.1 * i for i in range(1, 10)])

    def test_comma_list_and_failed_row_comment(self, tmp_path):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", path, "--gammas", "0.5,1.5", "-o", str(out)])
        assert rc == EXIT_OK  # one row succeeded
        text = out.read_text()
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("# gamma=1.5 error=AlphaOutOfRange")

    @pytest.mark.parametrize("old", ["", "x" * 10, "x\n" * 10_000])
    def test_overwrite_leaves_only_the_new_csv(self, tmp_path, old):
        argv = ["sweep", str(bundled_problem_path("triangular_case.json")),
                "--gammas", "0.1:0.9:0.1", "-o"]
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        reused.write_text(old, encoding="utf-8")
        assert main(argv + [str(fresh)]) == main(argv + [str(reused)]) == EXIT_OK
        assert reused.read_bytes() == fresh.read_bytes()
        assert reused.stat().st_mode == fresh.stat().st_mode

    def test_output_to_a_device_is_not_truncated(self):
        # ftruncate on a character device fails with EINVAL
        argv = ["sweep", str(bundled_problem_path("triangular_case.json")),
                "--gammas", "0.5", "-o", os.devnull]
        assert main(argv) == EXIT_OK

    # sha256 of the CSV written by ``ugp sweep --gammas 0.01:0.99:0.01`` for
    # the bundled problems, which have degree of difficulty zero: their rows
    # never reach the Newton, so a change to the dual's iterative path must
    # leave these bytes alone.
    SWEEP_SHA256 = {
        ("triangular_case.json", "expected"):
            "305e866d9fbbb115cd0b5d96b9c836f91a274894617a93c26824276981736074",
        ("triangular_case.json", "optimistic"):
            "6806024a19cdc13e7f835434f6105aa933e126fc17bedc402a7a7b56bf1b291b",
        ("triangular_case.json", "pessimistic"):
            "6f3e4990cb49d327fd63e086d494aec418a101ea5cfa4f93b6d500751cc98d5d",
        ("trapezoidal_case.json", "expected"):
            "f7fab6c2bc6b6a9ccef4d5afbd999320e1342a956905f6ee4d17dcb42138d505",
        ("trapezoidal_case.json", "optimistic"):
            "ede4ac87d801a139b938d9e082866b08215dc045c2fe14b3056190a91d78043e",
        ("trapezoidal_case.json", "pessimistic"):
            "2db5e2bf6efebeeafe6c7879ae2c23669a08f32791b83bf46bceccb06b8a7280",
    }

    @pytest.mark.parametrize("name, criterion", sorted(SWEEP_SHA256))
    def test_bundled_sweeps_are_pinned(self, tmp_path, name, criterion):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", str(bundled_problem_path(name)), "--criterion", criterion]
        argv += TestReduceCommand.ALPHA[criterion]
        assert main(argv + ["--gammas", "0.01:0.99:0.01", "-o", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.SWEEP_SHA256[(name, criterion)]

    @pytest.mark.parametrize(
        "grid", ["0.1:inf:0.1", "0.1:0.9:nan", "nan:0.9:0.1", "-inf:0.9:0.1", "0.1:0.9:inf"]
    )
    def test_nonfinite_range_is_a_domain_error(self, tmp_path, capsys, grid):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, f"--gammas={grid}", "-o", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "error: gamma range start, stop and step must be finite\n"
        )
        assert not out.exists()

    def test_reversed_range_is_a_domain_error(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", path, "--gammas", "0.9:0.1:0.1", "-o", str(out)])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "error: gamma range stop must not be below start\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["-0.1,0.5", "-0.1:0.9:0.1", "-.5,0.5", "-inf,0.5"])
    def test_negative_values_may_follow_gammas(self, tmp_path, capsys, grid):
        path = write_problem(tmp_path / "p.json", AMGM)
        joined, spaced = tmp_path / "joined.csv", tmp_path / "spaced.csv"
        code = main(["sweep", path, f"--gammas={grid}", "-o", str(joined)])
        assert main(["sweep", path, "--gammas", grid, "-o", str(spaced)]) == code == EXIT_OK
        assert spaced.read_bytes() == joined.read_bytes()
        assert "error=AlphaOutOfRange" in spaced.read_text()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--gamma", "-1e-3"], "gamma must lie strictly inside (0, 1), got -0.001"),
            (["--gamma", "-inf"], "gamma must lie strictly inside (0, 1), got -inf"),
            (
                ["--gamma", "0.5", "--criterion", "optimistic", "--alpha", "-1e-3"],
                "alpha must lie strictly inside (0, 1), got -0.001",
            ),
        ],
    )
    def test_negative_gamma_or_alpha_is_a_domain_error(self, tmp_path, capsys, options, message):
        path = write_problem(tmp_path / "p.json", AMGM)
        assert main(["solve", path, *options]) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("grid", ["0:1:1e-320", "0.1:0.9:1e-9"])
    def test_oversized_range_is_a_domain_error(self, tmp_path, capsys, grid):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--gammas", grid, "-o", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "error: gamma range must have at most 1000000 rows\n"
        )
        assert not out.exists()

    def test_missing_gammas_value_is_a_usage_error(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", AMGM)
        argv = ["sweep", path, "--gammas", "--criterion", "expected", "-o", "x.csv"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_PARSE
        assert "argument --gammas: expected one argument" in capsys.readouterr().err

    def test_empty_grid_header_only(self, tmp_path):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--gammas", "", "-o", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 1

    def test_all_rows_failed_maps_error_code(self, tmp_path):
        path = write_problem(tmp_path / "p.json", SINGLE_TRI)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", path, "--gammas", "0.5", "-o", str(out)])
        assert rc == EXIT_DOD

    def test_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        source = str(bundled_problem_path("trapezoidal_case.json"))
        assert main(["sweep", source, "--gammas", "0.2:0.8:0.3", "-o", str(out_a)]) == EXIT_OK
        assert main(["sweep", source, "--gammas", "0.2:0.8:0.3", "-o", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_full_precision_roundtrip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        source = str(bundled_problem_path("triangular_case.json"))
        assert main(["sweep", source, "--gammas", "0.5", "-o", str(out)]) == EXIT_OK
        from ugp.chance import sweep as run_sweep

        _, problem = load_problem(source)
        row = run_sweep(problem, [0.5])[0]
        values = [float(v) for v in read_csv(out)[1]]
        # 17 significant digits reproduce the doubles bit for bit
        assert values[1:4] == list(row.x_star)
        assert values[-1] == row.expected_objective


class TestTablesCommand:
    def test_writes_both_tables(self, tmp_path, capsys):
        rc = main(["tables", "--outdir", str(tmp_path)])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "table1.csv" in printed and "table2.csv" in printed
        for name in ("table1.csv", "table2.csv"):
            rows = read_csv(tmp_path / name)
            assert len(rows) == 10
        # rounded view prints the fixed dual weights of this structure
        assert "0.333" in printed and "0.667" in printed

    def test_rounded_view_three_decimals(self, tmp_path, capsys):
        rc = main(["tables", "--outdir", str(tmp_path)])
        assert rc == EXIT_OK
        view = capsys.readouterr().out
        line = next(
            ln for ln in view.splitlines() if ln.strip().startswith("0.500")
        )
        cells = line.split()
        assert all("." in cell and len(cell.split(".")[1]) == 3 for cell in cells)

    # sha256 of table1.csv and table2.csv; see SWEEP_SHA256
    TABLES_SHA256 = {
        "table1.csv": "91245ffcff9e1ce565c3bab5f975da75e1de9502f92a0728a3cbd2060781f53c",
        "table2.csv": "d1289869acc8bcd5a3fcfb6d157c1bb344f5cc7b83ad686a3f806ffdd638d0a0",
    }

    def test_tables_are_pinned(self, tmp_path):
        assert main(["tables", "--outdir", str(tmp_path)]) == EXIT_OK
        for name, expected in self.TABLES_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected


class TestParser:
    """The parser is built once per process; calls must not share state."""

    def test_options_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "row.csv"
        first = ["solve", path, "--gamma", "0.5", "--criterion", "optimistic"]
        assert main(first + ["--alpha", "0.3", "-o", str(out)]) == EXIT_OK
        out.unlink()
        capsys.readouterr()
        assert main(first) == EXIT_DOMAIN
        assert "needs --alpha" in capsys.readouterr().err
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_OK
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [tmp_path / "p.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "{path}", "--gamm", "-0.1,0.5", "-o", "{out}"],
            ["sweep", "{path}", "--gamm=-0.1,0.5", "-o", "{out}"],
            ["sweep", "{path}", "--gammas", "0.5", "--crit", "expected", "-o", "{out}"],
            ["solve", "{path}", "--gam", "0.5", "-o", "{out}"],
            ["reduce", "{path}", "--samp", "10", "-o", "{out}"],
            ["tables", "--out", "{out}"],
            ["--he"],
        ],
    )
    def test_option_names_must_be_given_in_full(self, tmp_path, capsys, argv):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "out"
        argv = [a.format(path=path, out=out) for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("usage: ugp")
        assert not out.exists()

    def test_help_is_the_same_every_time(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "usage: ugp" in texts[0]

    def test_one_parser_tree_per_process(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        ugp.cli.build_parser.cache_clear()
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "sweep.csv"
        for grid in ("0.5", "0.3,0.7", "0.1:0.9:0.4"):
            assert main(["sweep", path, "--gammas", grid, "-o", str(out)]) == EXIT_OK
        assert len(built) == 5  # root + reduce, solve, sweep, tables


class TestUnwritableOutput:
    """An output path that cannot be written is a domain error (exit 3) with
    one `error:` line, not a traceback."""

    TRIANGULAR = str(bundled_problem_path("triangular_case.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", TRIANGULAR, "--gammas", "0.5", "-o"],
            ["solve", TRIANGULAR, "--gamma", "0.5", "-o"],
            ["reduce", TRIANGULAR, "--samples", "10", "-o"],
        ],
        ids=["sweep", "solve", "reduce"],
    )
    def test_missing_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + [str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )
        assert not out.parent.exists()

    def test_solve_prints_no_report(self, tmp_path, capsys):
        # the CSV is written before the report, so a failed write shows no
        # solved report on stdout next to its nonzero exit
        out = tmp_path / "missing" / "x.csv"
        argv = ["solve", self.TRIANGULAR, "--gamma", "0.5", "-o", str(out)]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: No such file or directory\n"
        )

    def test_sweep_to_a_directory(self, tmp_path, capsys):
        argv = ["sweep", self.TRIANGULAR, "--gammas", "0.5", "-o", str(tmp_path)]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_tables_outdir_is_a_file(self, tmp_path, capsys):
        outdir = tmp_path / "taken"
        outdir.write_text("", encoding="utf-8")
        assert main(["tables", "--outdir", str(outdir)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: cannot write {outdir}: File exists\n"
        assert outdir.read_text(encoding="utf-8") == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_sweep_to_a_full_device(self, capsys):
        argv = ["sweep", self.TRIANGULAR, "--gammas", "0.5", "-o", "/dev/full"]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "error: cannot write /dev/full: No space left on device\n"
        )


def term_record(**changes) -> dict:
    record = dict(AMGM["objective"][0])
    record.update(changes)
    return record


class TestValidationMessages:
    """Input checks that no other test reaches, each through main."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"variables": None}, "field 'variables' must be a nonempty name list"),
            ({"variables": []}, "field 'variables' must be a nonempty name list"),
            ({"variables": ["x", 1]}, "field 'variables' must be a nonempty name list"),
            ({"variables": ["x", "x"]}, "field 'variables' contains duplicates"),
            ({"objective": [5]}, "objective[0]: term record must be an object"),
            (
                {"objective": [term_record(family="lin")]},
                "objective[0]: field 'family' must be 'tri' or 'tra', got 'lin'",
            ),
            (
                {"objective": [term_record(family=["tri"])]},
                "objective[0]: field 'family' must be 'tri' or 'tra', got ['tri']",
            ),
            (
                {"objective": [term_record(family={"tri": "tra"})]},
                "objective[0]: field 'family' must be 'tri' or 'tra', got {'tri': 'tra'}",
            ),
            (
                {"objective": [term_record(family=3)]},
                "objective[0]: field 'family' must be 'tri' or 'tra', got 3.0",
            ),
            (
                {"objective": [term_record(exponents=[1])]},
                "objective[0]: field 'exponents' must map variable names to reals",
            ),
            ({"objective": []}, "field 'objective' must be a nonempty term list"),
            ({"constraints": {}}, "field 'constraints' must be a list of term lists"),
            ({"constraints": [[]]}, "constraints[0] must be a nonempty term list"),
        ],
        ids=[
            "variables-missing",
            "variables-empty",
            "variables-not-names",
            "variables-duplicate",
            "term-not-object",
            "family-unknown",
            "family-list",
            "family-dict",
            "family-number",
            "exponents-not-object",
            "objective-empty",
            "constraints-not-list",
            "constraint-block-empty",
        ],
    )
    def test_problem_file_schema(self, tmp_path, capsys, changes, message):
        doc = {**json.loads(json.dumps(AMGM)), **changes}
        doc = {key: value for key, value in doc.items() if value is not None}
        path = write_problem(tmp_path / "p.json", doc)
        assert main(["solve", path, "--gamma", "0.5"]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0.1:0.9", "gamma range must be start:stop:step"),
            ("0.1:0.9:0", "gamma range step must be positive"),
        ],
    )
    def test_gamma_range(self, tmp_path, capsys, grid, message):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--gammas", grid, "-o", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_reduce_needs_two_samples(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", AMGM)
        out = tmp_path / "curves.csv"
        assert main(["reduce", path, "--samples", "1", "-o", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: --samples must be at least 2\n"
        assert not out.exists()

    def test_library_rejects_an_empty_constraint_block(
        self, tmp_path, monkeypatch, capsys
    ):
        # load_problem rejects an empty block first, so build the problem
        # through the library where main would load it
        _, amgm = load_problem(write_problem(tmp_path / "p.json", AMGM))

        def load(path):
            return ["x"], UncertainGPProblem(amgm.objective, constraints=((),))

        monkeypatch.setattr(ugp.cli, "load_problem", load)
        assert main(["solve", "p.json", "--gamma", "0.5"]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: constraint blocks cannot be empty\n"


# ---------------------------------------------------------------------------
# The CLI contract under mutation of the bundled problem files
# ---------------------------------------------------------------------------

BUNDLED_DOCS = {
    name: json.loads(bundled_problem_path(name).read_text(encoding="utf-8"))
    for name in ("triangular_case.json", "trapezoidal_case.json")
}
# what a mutation puts in place of a node: 10**400 is beyond a double,
# HUGE beyond CPython's integer parser as well
REPLACEMENTS = [
    None, True, False, 0, -1, 1e308, 10**400, HUGE, "", [], {}, [1], {"a": 1}
]
FUZZ_COMMANDS = {
    "sweep": ["--gammas", "0.1:0.9:0.2", "-o", os.devnull],
    "solve": ["--gamma", "0.5"],
    "reduce": ["--samples", "20", "-o", os.devnull],
}


def node_paths(node, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, (*path, key))


def mutations(name: str) -> st.SearchStrategy:
    """(file name, kind, path, value): replace one node with a value, delete
    a key or list entry, or repeat a list entry."""
    paths = list(node_paths(BUNDLED_DOCS[name]))
    entries = [path for path in paths if path and isinstance(path[-1], int)]
    return st.one_of(
        st.tuples(
            st.just(name), st.just("replace"), st.sampled_from(paths),
            st.sampled_from(REPLACEMENTS),
        ),
        st.tuples(st.just(name), st.just("delete"), st.sampled_from(paths[1:]), st.none()),
        st.tuples(st.just(name), st.just("repeat"), st.sampled_from(entries), st.none()),
    )


def mutated(name: str, kind: str, path: tuple, value) -> object:
    if not path:
        return value
    doc = json.loads(json.dumps(BUNDLED_DOCS[name]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "replace":
        parent[key] = value
    elif kind == "delete":
        del parent[key]
    else:
        parent.insert(key, parent[key])
    return doc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "p.json"


class TestMutatedProblemFiles:
    """Every problem file exits with a code from README's table, and a
    failure prints exactly one stderr line, starting with ``error:``."""

    CODES = {code for code, _ in readme_exit_table()}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        mutation=st.one_of(*map(mutations, sorted(BUNDLED_DOCS))),
        command=st.sampled_from(sorted(FUZZ_COMMANDS)),
    )
    # a non-string family escaped as a TypeError with exit 1
    @example(("triangular_case.json", "replace", ("objective", 0, "family"), ["tri"]), "solve")
    @example(("trapezoidal_case.json", "replace", ("objective", 1, "family"), {}), "sweep")
    # an integer beyond CPython's parser exited 3 naming no field
    @example(("triangular_case.json", "replace", ("objective", 0, "params", 2), HUGE), "reduce")
    def test_exit_code_and_one_error_line(self, fuzz_file, mutation, command):
        write_problem(fuzz_file, mutated(*mutation))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(fuzz_file), *FUZZ_COMMANDS[command]])
        assert code in self.CODES
        if code != EXIT_OK:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
