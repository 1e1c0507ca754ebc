import codecs
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from a2a60 import (
    CiModel,
    FiModel,
    cli,
    dataset,
    fitting,
    free_space_pl,
    mean_pl,
    pathloss,
    pl_3gpp_los,
    published,
    sample_pl,
    scenario_defaults,
    tr38901,
)
from a2a60.cli import main
from a2a60.dataset import MEASUREMENTS_FILE, RAW_COLUMNS, fixture_path
from a2a60.tr38901 import SCENARIOS

REPO = Path(__file__).resolve().parents[1]
GOLDENS = REPO / "bench" / "goldens.json"
FORMATS = ("csv", "json", "markdown-table")
# the fixed-argument commands whose stdout sha256 bench/goldens.json pins
GOLDEN_COMMANDS = {
    "fit-ci": ["fit", "--model", "ci"],
    "fit-fi-json": ["fit", "--model", "fi", "--format", "json"],
    "fit-ci-h12-markdown": ["fit", "--model", "ci", "--height", "12",
                            "--format", "markdown-table"],
    **{f"report-{which}-{fmt}": ["report", "--which", which, "--format", fmt]
       for which in ("table1", "table2", "table3", "conclusion") for fmt in FORMATS},
    "compare": ["compare"],
    "sample-1000": ["sample", "--distance", "20", "--n", "1000"],
    "compare-dense": ["compare", "--distances", "1:150:0.01"],
    "sample-dense": ["sample", "--distance", "20", "--n", "1000000", "--seed", "7"],
}


# the commands whose fits are set against the paper's best-pair figures
BEST_PAIR_COMMANDS = [("compare",), *(("report", "--which", which)
                                       for which in ("table1", "table2", "table3", "conclusion"))]


@pytest.fixture(scope="module")
def mixed_ranks(tmp_path_factory):
    """The bundled best-pair points followed by the bundled rank-2 points, in one CSV."""
    best, rank2 = (fixture_path(name).read_text(encoding="utf-8").splitlines(keepends=True)
                   for name in (MEASUREMENTS_FILE, "fig6_rank2.csv"))
    path = tmp_path_factory.mktemp("mixed") / "mixed.csv"
    path.write_text("".join(best + rank2[1:]), encoding="utf-8")
    return path


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """Run `a2a60.cli.main(args)` in this process and capture its streams."""

    def run(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return CliResult(code, captured.out, captured.err)

    return run


def src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def buffered_env():
    """`src_env()` without PYTHONUNBUFFERED, so that stdout is block-buffered, as it is
    wherever the variable is unset: written data can then still be in the buffer at exit."""
    return {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}


def run_cli_process(*args):
    """Run `python -m a2a60.cli` with this checkout's sources importable."""
    return subprocess.run(
        [sys.executable, "-m", "a2a60.cli", *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def csv_text(rows):
    """What `csv.writer` writes of `rows`, each float cell as its `repr`."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    return out.getvalue()


def peak_kib(*args):
    """The peak RSS of a subprocess running `main(args)`, in KiB, read as VmHWM:
    unlike ru_maxrss, which a child inherits from the test process's own peak
    across fork and exec, it starts afresh at exec."""
    code = ("import sys\n"
            "from a2a60.cli import main\n"
            "main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code, *args], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, env=src_env())
    return int(result.stderr)


class TestFitCommand:
    def test_ci_fit_matches_published(self, run_cli):
        result = run_cli("fit", "--model", "ci", "--height", "all")
        assert result.returncode == 0, result.stderr
        row = parse_csv(result.stdout)[0]
        assert row["model"] == "ci"
        assert int(row["points"]) == 27
        assert 2.24 <= float(row["ple"]) <= 2.26
        assert abs(float(row["intercept_db"]) - 68.08) <= 0.01
        assert abs(float(row["mse_db2"]) - 3.56) <= 0.6

    def test_fi_fit_matches_published(self, run_cli):
        result = run_cli("fit", "--model", "fi")
        row = parse_csv(result.stdout)[0]
        assert 66.5 <= float(row["intercept_db"]) <= 67.5
        assert 2.30 <= float(row["ple"]) <= 2.36

    def test_height_filter(self, run_cli):
        result = run_cli("fit", "--model", "ci", "--height", "12")
        row = parse_csv(result.stdout)[0]
        assert int(row["points"]) == 12
        assert abs(float(row["ple"]) - 2.25) <= 0.01

    def test_empty_selection_fails_loudly(self, run_cli):
        result = run_cli("fit", "--model", "ci", "--height", "99")
        assert result.returncode != 0
        assert "empty selection" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--rank", "0", "rank must be >= 1 and <= 400, got 0"),  # the best pair is rank 1
        ("--rank", "abc", "invalid --rank 'abc': invalid literal for int()"),
        ("--height", "abc", "invalid --height 'abc': could not convert string to float"),
        # each was an empty selection, which hid which flag was out of range
        ("--height", "nan", "height_m must be finite, got nan"),
        ("--height", "inf", "height_m must be finite, got inf"),
        ("--height", "-5", "height_m must be > 0 m, got -5.0 m"),
        ("--height", "0", "height_m must be > 0 m, got 0.0 m"),
    ])
    def test_bad_selection_flag(self, run_cli, flag, value, message):
        result = run_cli("fit", "--model", "ci", flag, value)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert message in result.stderr
        assert result.stderr.startswith(f"error: invalid {flag} {value!r}: ")
        assert "Traceback" not in result.stderr

    def test_json_matches_csv_to_ten_digits(self, run_cli):
        csv_row = parse_csv(run_cli("fit", "--model", "ci").stdout)[0]
        json_row = json.loads(run_cli("fit", "--model", "ci", "--format", "json").stdout)[0]
        for key in ("intercept_db", "ple", "sigma_db", "mse_db2"):
            assert math.isclose(float(csv_row[key]), json_row[key], rel_tol=1e-10)

    def test_markdown_format(self, run_cli):
        result = run_cli("fit", "--model", "ci", "--format", "markdown-table")
        assert result.returncode == 0
        assert result.stdout.startswith("| model |")

    def test_rank_filtered_input(self, run_cli):
        from a2a60.dataset import fixture_path

        result = run_cli("fit", "--model", "fi", "--rank", "2",
                         "--input", str(fixture_path("fig6_rank2.csv")))
        row = parse_csv(result.stdout)[0]
        assert abs(float(row["intercept_db"]) - 69.68) <= 0.5
        assert abs(float(row["ple"]) - 2.28) <= 0.05

    def test_rank_none_selects_best_beam_rows(self, run_cli):
        result = run_cli("fit", "--model", "ci", "--rank", "none")
        assert int(parse_csv(result.stdout)[0]["points"]) == 27


class TestCompareCommand:
    def test_reference_row_at_6m(self, run_cli):
        result = run_cli("compare", "--distances", "6:40:2")
        rows = parse_csv(result.stdout)
        assert float(rows[0]["distance_m"]) == 6.0
        expected = {"ci_fit": 85.60, "umi": 84.46, "uma": 80.84,
                    "rma": 83.41, "inoo": 81.58, "fspl": 83.64}
        for column, value in expected.items():
            assert abs(float(rows[0][column]) - value) <= 0.02, column

    def test_grid_endpoints_inclusive(self, run_cli):
        rows = parse_csv(run_cli("compare", "--distances", "6:40:2").stdout)
        assert float(rows[-1]["distance_m"]) == 40.0
        assert len(rows) == 18

    def test_fspl_at_40m(self, run_cli):
        rows = parse_csv(run_cli("compare", "--distances", "40:40:1").stdout)
        assert float(rows[0]["fspl"]) == pytest.approx(100.12121869830563, abs=1e-9)

    def test_bad_step_is_usage_error(self, run_cli):
        result = run_cli("compare", "--distances", "6:40:0")
        assert result.returncode != 0
        assert "STEP" in result.stderr

    def test_malformed_range(self, run_cli):
        result = run_cli("compare", "--distances", "6..40")
        assert result.returncode != 0
        assert "--distances" in result.stderr

    @pytest.mark.parametrize("spec, field", [("1:inf:1", "STOP"), ("nan:40:2", "START"),
                                             ("6:40:nan", "STEP"),
                                             ("1:1e300:1e-300", "(STOP - START) / STEP")])
    def test_non_finite_grid_field(self, run_cli, spec, field):
        result = run_cli("compare", "--distances", spec)
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"invalid --distances {spec!r}: {field} must be finite" in result.stderr

    @pytest.mark.parametrize("spec, scenario, end", [("1:200:1", "inoo", "200.0"),
                                                     ("1:1e9:0.001", "umi", "1000000000.0")])
    def test_grid_past_a_reference_range(self, run_cli, spec, scenario, end):
        # the grid's far end is checked before the grid is built: 1:1e9:0.001
        # would otherwise hold 10^12 distances
        result = run_cli("compare", "--distances", spec)
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"(the {scenario} LOS range), got {end} m" in result.stderr

    def test_grid_point_count_is_bounded(self, run_cli):
        # every end is in range, but the grid would hold 1.49e8 rows
        result = run_cli("compare", "--distances", "1:150:1e-6")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == ("error: invalid --distances '1:150:1e-6': grid point count "
                                 "must be <= 1000000, got 149000001\n")

    def test_grid_point_limit_is_inclusive(self, run_cli, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 18)
        assert len(parse_csv(run_cli("compare", "--distances", "6:40:2").stdout)) == 18
        result = run_cli("compare", "--distances", "6:42:2")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "grid point count must be <= 18, got 19" in result.stderr

    def test_rows_match_the_scalar_laws_past_their_breakpoints(self, run_cli):
        # at 0.5 GHz UMi breaks at 30 m, UMa at 80 m: each column, evaluated a
        # block of distances at a time, equals the law at each distance
        rows = parse_csv(run_cli("compare", "--distances", "1:150:0.25", "--freq-ghz", "0.5",
                                 "--oxygen-db-per-km", "15").stdout)
        ci = fitting.fit_ci(*dataset.to_fit_points(dataset.load_measurement_points()), 0.5).model
        assert len(rows) == 597
        for row in rows:
            d = float(row["distance_m"])
            expected = {"ci_fit": mean_pl(ci, d), "fspl": free_space_pl(0.5, d),
                        **{name: pl_3gpp_los(scenario_defaults(name), 0.5, d) for name in SCENARIOS}}
            assert {key: float(row[key]) for key in expected} == expected

    def test_evaluates_a_block_of_grid_points_per_call(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return pl_3gpp_los(*args)

        monkeypatch.setattr(tr38901, "pl_3gpp_los", spy)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["compare", "--distances", "1:150:0.01"]) == 0
        assert buffer.getvalue().count("\n") == 1 + 14_901
        # the grid's two ends, then each block of about 1024 points
        assert len(calls) <= len(SCENARIOS) * (1 + math.ceil(14_901 / 1024))

    def test_json_matches_csv(self, run_cli):
        csv_rows = parse_csv(run_cli("compare", "--distances", "6:12:3").stdout)
        json_rows = json.loads(run_cli("compare", "--distances", "6:12:3",
                                       "--format", "json").stdout)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key in c_row:
                assert math.isclose(float(c_row[key]), j_row[key], rel_tol=1e-10)

    @pytest.mark.parametrize("carrier", [(), ("--freq-ghz", "0.5", "--oxygen-db-per-km", "0")],
                             ids=["60.48GHz", "0.5GHz"])
    @pytest.mark.parametrize("spec, count", [("6:6:1", 1), ("1:64.9375:0.0625", 1024),
                                             ("1:65:0.0625", 1025), ("1:129:0.0625", 2049)])
    def test_csv_is_what_csv_writer_writes_of_the_laws(self, run_cli, carrier, spec, count):
        # grids of one row and across the 1024-row block boundaries
        freq = float(carrier[1]) if carrier else published.CARRIER_FREQ_GHZ
        ci = fitting.fit_ci(*dataset.to_fit_points(dataset.load_measurement_points()), freq).model
        references = [scenario_defaults(name, 0.0 if carrier else 15.0) for name in SCENARIOS]
        start, _, step = map(float, spec.split(":"))
        distances = [start + i * step for i in range(count)]
        expected = csv_text([("distance_m", "ci_fit", *SCENARIOS, "fspl")] + [
            (d, mean_pl(ci, d), *(pl_3gpp_los(ref, freq, d) for ref in references),
             free_space_pl(freq, d)) for d in distances])
        assert run_cli("compare", "--distances", spec, *carrier) == (0, expected, "")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_memory_does_not_grow_with_the_grid(self):
        # 14,901 and 99,334 rows: 1.8 and 11.9 MB of csv, written a block at a time
        def peak(spec):
            return peak_kib("compare", "--distances", spec)

        assert peak("1:150:0.0015") - peak("1:150:0.01") <= 1024

    @pytest.mark.parametrize("freq", ["57", "64"])
    def test_oxygen_default_holds_from_57_to_64_ghz(self, run_cli, freq):
        result = run_cli("compare", "--freq-ghz", freq)
        assert result == run_cli("compare", "--freq-ghz", freq, "--oxygen-db-per-km", "15")
        assert result.returncode == 0 and len(parse_csv(result.stdout)) == 18

    @pytest.mark.parametrize("freq", ["0.5", "56.99", "64.01", "100"])
    def test_oxygen_flag_is_required_outside_57_to_64_ghz(self, run_cli, freq):
        assert run_cli("compare", "--freq-ghz", freq) == (
            1, "", f"error: --oxygen-db-per-km is required at --freq-ghz {float(freq)}: "
                   "the default 15.0 dB/km holds for 57-64 GHz\n")
        assert run_cli("compare", "--freq-ghz", freq, "--oxygen-db-per-km", "0").returncode == 0

    @pytest.mark.parametrize("value, message", [("-1", "must be >= 0, got -1.0"),
                                                ("nan", "must be finite, got nan"),
                                                ("inf", "must be finite, got inf")])
    def test_oxygen_flag_is_checked(self, run_cli, value, message):
        assert run_cli("compare", "--oxygen-db-per-km", value) == (
            1, "", f"error: --oxygen-db-per-km {message}\n")

    @pytest.mark.parametrize("value, distances, far", [("1e308", "6:40:2", "40.0"),
                                                       ("1e306", "6:4000:2", "4000.0")])
    def test_oxygen_overflow_names_the_flag(self, run_cli, value, distances, far):
        # the term overflows at the grid's far end: the error names the flag, not a law's loss
        assert run_cli("compare", "--oxygen-db-per-km", value, "--distances", distances) == (
            1, "", f"error: --oxygen-db-per-km {float(value)!r} overflows the oxygen loss at "
                   f"{far} m\n")
        assert run_cli("compare", "--oxygen-db-per-km", value, "--distances", "6:30:2"
                       ).returncode == (0 if value == "1e306" else 1)


class TestLines:
    """`_lines`, the one float-block writer of `compare`'s csv and of `sample`."""

    SPECIAL = [-0.0, 5e-324, 1e308, 0.1 + 0.2, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("count", [1, 1024])
    def test_block_rows_are_what_csv_writer_writes(self, count):
        rng = np.random.default_rng(count)
        block = rng.standard_normal((7, count)) * 10.0 ** rng.integers(-300, 300, (7, count))
        block[:, 0] = self.SPECIAL
        block[:, -1] = self.SPECIAL[::-1]
        assert cli._lines(block) == csv_text(block.T.tolist())

    def test_one_column_block_is_the_column(self):
        column = np.array(self.SPECIAL)
        assert cli._lines(column[None, :]) == cli._lines(column) == csv_text(
            [value] for value in self.SPECIAL)

    @pytest.mark.parametrize("model", ["ci", "fi"])
    def test_column_lines_are_the_library_lines(self, model):
        assert cli._lines(library_draws(model, 1024, 9)) == "".join(library_lines(model, 1024, 9))


class TestEmit:
    COLUMNS = ("x", "label", "note")

    @pytest.mark.parametrize("rows", [
        [],
        [(1.5, None, math.nan)],
        [(0.1 + 0.2, 'say "hi"\nthen \\ go', -math.inf), (-0.0, "h\u00e9llo \u2603 \U0001f600", 7),
         (1e308, "\t", None)],
    ], ids=["none", "one", "three"])
    def test_json_streams_what_json_dump_writes(self, rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit("json", self.COLUMNS, iter(rows))
        expected = io.StringIO()
        json.dump([dict(zip(self.COLUMNS, row)) for row in rows], expected, indent=2)
        assert out.getvalue() == expected.getvalue() + "\n"

    @pytest.mark.parametrize("args", [
        ("fit", "--model", "ci"), ("fit", "--model", "fi", "--height", "12", "--rank", "best"),
        *(("report", "--which", which) for which in cli._REPORTS)], ids=" ".join)
    def test_csv_is_what_csv_writer_writes(self, run_cli, monkeypatch, args):
        # the lines are joined unquoted: no cell holds a comma, a quote or a line break
        tables, emit = [], cli._emit

        def spy(fmt, columns, rows):
            tables.append([columns, *rows])
            emit(fmt, columns, tables[-1][1:])

        monkeypatch.setattr(cli, "_emit", spy)
        result = run_cli(*args)
        assert result == (0, csv_text(tables[0]), "")


def library_draws(model, n, seed):
    """`sample_pl`'s draws of the published law at 20 m."""
    pub = published.TABLE1[model]
    law = (CiModel(published.CARRIER_FREQ_GHZ, pub["ple"], pub["sigma"]) if model == "ci"
           else FiModel(pub["intercept_db"], pub["ple"], pub["sigma"]))
    return sample_pl(law, 20.0, n, seed)


def library_lines(model, n, seed):
    """`sample`'s expected stdout lines: the `repr` of each draw of `sample_pl`."""
    return [repr(value) + "\n" for value in library_draws(model, n, seed).tolist()]


class TestSampleCommand:
    def test_zero_samples(self, run_cli):
        result = run_cli("sample", "--distance", "20", "--n", "0", "--seed", "1")
        assert result.returncode == 0
        assert result.stdout == ""

    def test_same_seed_identical(self, run_cli):
        args = ("sample", "--distance", "20", "--n", "50", "--seed", "77")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_default_model_statistics(self, run_cli):
        result = run_cli("sample", "--distance", "20", "--n", "100000", "--seed", "20200925")
        values = [float(line) for line in result.stdout.splitlines()]
        assert len(values) == 100000
        std = statistics.pstdev(values)
        assert 3.49 <= std <= 3.63

    def test_explicit_fi_model(self, run_cli):
        result = run_cli("sample", "--model", "fi", "--distance", "6", "--n", "3",
                         "--seed", "5", "--sigma", "0")
        values = [float(line) for line in result.stdout.splitlines()]
        # sigma 0 collapses onto the mean: published intercept + slope at 6 m
        assert all(v == pytest.approx(67.03 + 23.3 * math.log10(6.0), abs=1e-9) for v in values)

    @pytest.mark.parametrize("args, model", [
        (("--ple", "1e308", "--n", "2"), "mean path loss of CiModel(freq_ghz=60.48, ple=1e+308"),
        (("--sigma", "1e308", "--n", "1000", "--seed", "1"), "a draw of CiModel("),
    ])
    def test_overflow_is_an_error(self, run_cli, args, model):
        result = run_cli("sample", "--distance", "20", *args)
        assert result.returncode == 1
        assert result.stdout == ""
        assert model in result.stderr
        assert "at distance_m=20.0 m is not finite" in result.stderr

    def test_overflow_past_the_first_block_leaves_stdout_empty(self, run_cli):
        # seed 2 first overflows at draw 2989, in the third block of 1024
        result = run_cli("sample", "--distance", "20", "--sigma", "5e307", "--n", "5000",
                         "--seed", "2")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: a draw of CiModel(")
        assert len(run_cli("sample", "--distance", "20", "--sigma", "5e307", "--n", "2989",
                           "--seed", "2").stdout.splitlines()) == 2989

    @pytest.mark.parametrize("model", ["ci", "fi"])
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 5000, 64 * 1024 + 1025])
    def test_lines_are_the_library_draws(self, run_cli, model, n):
        result = run_cli("sample", "--model", model, "--distance", "20", "--n", str(n),
                         "--seed", "11")
        assert result.returncode == 0
        assert result.stdout.splitlines(keepends=True) == library_lines(model, n, 11)

    def test_negative_seed_is_an_error(self, run_cli):
        result = run_cli("sample", "--distance", "20", "--n", "100000", "--seed", "-1")
        assert result == (1, "", "error: --seed must be >= 0, got -1\n")

    def test_broken_stdout_exits_quietly(self, capsys, monkeypatch):
        class BrokenStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        assert main(["sample", "--distance", "20", "--n", "100000", "--seed", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_memory_does_not_grow_with_n(self):
        def peak(n):
            return peak_kib("sample", "--distance", "20", "--n", str(n))

        assert peak(300_000) - peak(1000) <= 1024

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
                     "and data type float64"),
         "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
         "and data type float64"),
        (MemoryError(), "MemoryError"),
    ])
    def test_memory_error_is_a_diagnostic(self, run_cli, monkeypatch, error, message):
        # raised in place of the draws, which are never made: 10^8 of them would take minutes
        def refuse(*args):
            raise error

        monkeypatch.setattr(pathloss, "_draw_blocks", refuse)
        result = run_cli("sample", "--distance", "20", "--n", "100000000")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_distance_below_reference_fails(self, run_cli):
        result = run_cli("sample", "--distance", "0.5", "--n", "10", "--seed", "1")
        assert result.returncode != 0
        assert "reference distance" in result.stderr

    @pytest.mark.parametrize("model", [(), ("--model", "ci")])
    def test_intercept_needs_the_fi_model(self, run_cli, monkeypatch, model):
        def refuse(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(pathloss, "_draw_blocks", refuse)
        result = run_cli("sample", "--distance", "20", "--n", "3", *model, "--intercept", "5")
        assert result == (1, "", "error: --intercept needs --model fi\n")

    @pytest.mark.parametrize("n", ["-1", "100000001", "10000000000000"])
    def test_n_is_checked_before_anything_is_drawn(self, run_cli, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(pathloss, "_draw_blocks", refuse)
        result = run_cli("sample", "--distance", "20", "--n", n)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"error: --n must be >= 0 and <= 100000000, got {n}\n"


class TestSampleWithoutOpenssl:
    """A program run blocks `_hashlib` before `sample` imports numpy.random, so OpenSSL's
    libcrypto does not load, unless `_hashlib` is loaded already or a built-in hash module
    is missing."""

    def run_sample(self, before=""):
        """(stdout lines, main's stderr, whether `_hashlib` was loaded after
        `import a2a60.cli, numpy` and after `main()`, whether it can be, the names that
        sys.modules maps to None) of a fresh interpreter that runs `before`, then `sample`
        as the program: `main()` with sys.argv set. The baseline comes after numpy's
        import, as `import a2a60.cli` loads no numpy, and numpy 1.x imports numpy.random,
        and through it `_hashlib`, with itself."""
        code = (f"{before}\n"
                "import importlib.util, json, sys\n"
                "import a2a60.cli, numpy\n"
                "imported = sys.modules.get('_hashlib') is not None\n"
                "code = a2a60.cli.main()\n"
                "print(json.dumps([code, imported, sys.modules.get('_hashlib') is not None,\n"
                "                  importlib.util.find_spec('_hashlib') is not None,\n"
                "                  sorted(k for k, v in sys.modules.items() if v is None)]),\n"
                "      file=sys.stderr)\n")
        result = subprocess.run([sys.executable, "-c", code, "sample", "--distance", "20",
                                 "--n", "5"], capture_output=True, text=True, env=src_env())
        assert result.returncode == 0, result.stderr
        *stderr, state = result.stderr.splitlines(keepends=True)
        code, *state = json.loads(state)
        assert code == 0
        return result.stdout.splitlines(keepends=True), "".join(stderr), *state

    def test_sample_leaves_hashlib_as_the_import_does(self):
        lines, stderr, imported, loaded, _, blocked = self.run_sample()
        assert (lines, stderr) == (library_lines("ci", 5, 0), "")
        assert loaded == imported
        assert blocked == ([] if imported else ["_hashlib"])  # blocked for the rest of the run

    def test_missing_builtin_hash_declines(self):
        # a build without CPython's built-in hashes, where hashlib would log each missing one
        lines, stderr, imported, loaded, available, blocked = self.run_sample(
            "import sys; sys.modules['_md5'] = None")
        assert (lines, stderr) == (library_lines("ci", 5, 0), "")
        assert loaded == available  # numpy.random imported as it is without the guard
        assert blocked == ["_md5"]

    def test_cli_import_loads_numpy_random_as_numpy_does(self):
        code = ("import sys\n"
                "import numpy\n"
                "print('numpy.random' in sys.modules)\n"
                "import a2a60.cli\n"
                "print('numpy.random' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=src_env())
        assert result.returncode == 0, result.stderr
        by_numpy, by_cli = result.stdout.split()
        assert by_numpy == by_cli


@pytest.mark.parametrize("args", [("compare", "--distances", "1:150:0.01"),
                                  ("sample", "--distance", "20", "--n", "1000000")],
                         ids=["compare", "sample"])
def test_stdout_closed_early_exits_quietly(args):
    # as `a2a60 ... | head -1` does, with blocks of lines still to write
    with subprocess.Popen([sys.executable, "-m", "a2a60.cli", *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=buffered_env()) as process:
        assert process.stdout.readline()
        process.stdout.close()
        assert (process.stderr.read(), process.wait(timeout=120)) == (b"", 0)


def test_stdout_closed_before_a_short_output_exits_quietly():
    # fit's one row is still buffered when main returns; the flush at exit must not fail
    with subprocess.Popen([sys.executable, "-m", "a2a60.cli", "fit", "--model", "ci"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=buffered_env()) as process:
        process.stdout.close()
        assert (process.stderr.read(), process.wait(timeout=120)) == (b"", 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
def test_full_stdout_is_one_error_line():
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "a2a60.cli", "fit", "--model", "ci"],
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=buffered_env())
    assert (result.returncode, result.stderr) == (1, "error: [Errno 28] No space left on device\n")


class TestReportCommand:
    def test_table1_values_and_deltas(self, run_cli):
        rows = parse_csv(run_cli("report", "--which", "table1").stdout)
        by_key = {(r["section"], r["param"]): r for r in rows}
        ci_ple = by_key[("ci", "ple")]
        assert float(ci_ple["computed"]) == pytest.approx(2.2514, abs=1e-3)
        assert float(ci_ple["published"]) == 2.25
        assert float(ci_ple["abs_delta"]) < 0.01
        ci_disp = by_key[("ci", "mean_sq_resid_db2")]
        assert float(ci_disp["published"]) == 3.56
        assert float(ci_disp["abs_delta"]) < 0.01
        fi_int = by_key[("fi", "intercept_db")]
        assert float(fi_int["computed"]) == pytest.approx(67.026, abs=1e-2)
        # the honest rms dispersion is also reported, without a published analogue
        assert by_key[("ci", "sigma_db")]["published"] == ""

    def test_table2_covers_heights(self, run_cli):
        rows = parse_csv(run_cli("report", "--which", "table2").stdout)
        sections = {r["section"] for r in rows}
        assert sections == {"all", "h=6", "h=12", "h=15"}
        ple = {r["section"]: float(r["computed"]) for r in rows if r["param"] == "ple"}
        for value in ple.values():
            assert 2.19 <= value <= 2.32

    def test_table3_flags_missing_ranks(self, run_cli):
        rows = parse_csv(run_cli("report", "--which", "table3").stdout)
        sections = {r["section"] for r in rows}
        assert sections == {f"rank {i}" for i in range(1, 10)}
        by_key = {(r["section"], r["param"]): r for r in rows}
        assert float(by_key[("rank 2", "ple")]["computed"]) == pytest.approx(2.2835, abs=1e-3)
        assert by_key[("rank 5", "ple")]["computed"] == ""
        assert "beam-level" in by_key[("rank 5", "ple")]["note"]
        assert float(by_key[("rank 1", "delta_deg")]["computed"]) == 0.0
        assert "beam-level" in by_key[("rank 9", "delta_deg")]["note"]

    def test_table3_errors_when_rank_fixtures_missing(self, run_cli, tmp_path, monkeypatch):
        import shutil

        from a2a60.dataset import DATA_DIR_ENV, MEASUREMENTS_FILE, fixture_path

        shutil.copy(str(fixture_path(MEASUREMENTS_FILE)), tmp_path / MEASUREMENTS_FILE)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        result = run_cli("report", "--which", "table3")
        assert result.returncode != 0
        assert "missing rank fixtures" in result.stderr
        assert "fig6_rank2.csv" in result.stderr

    def test_conclusion_prints_published_model(self, run_cli):
        result = run_cli("report", "--which", "conclusion")
        assert result.returncode == 0
        assert "68.08" in result.stdout
        assert "22.5" in result.stdout
        assert "3.56" in result.stdout
        rows = parse_csv(result.stdout)
        slope = next(r for r in rows if r["param"] == "slope_db_per_decade")
        assert float(slope["computed"]) == pytest.approx(22.514, abs=1e-2)

    def test_conclusion_markdown_shows_equation(self, run_cli):
        result = run_cli("report", "--which", "conclusion", "--format", "markdown-table")
        assert "PL(d) = 68.08" in result.stdout

    def test_table1_fits_the_best_pairs_of_mixed_ranks(self, run_cli, mixed_ranks):
        rows = parse_csv(run_cli("report", "--which", "table1", "--input", str(mixed_ranks)).stdout)
        ple = next(r for r in rows if (r["section"], r["param"]) == ("ci", "ple"))
        assert float(ple["computed"]) == pytest.approx(2.2514, abs=1e-4)  # all 54 rows: 2.3265

    def test_json_report_parses(self, run_cli):
        doc = json.loads(run_cli("report", "--which", "table1", "--format", "json").stdout)
        assert isinstance(doc, list)
        assert {"section", "param", "computed", "published", "abs_delta", "note"} == set(doc[0])


class TestBestPairInput:
    """compare and report set their fits against best-pair figures, so they
    fit the rank-1 rows of --input only."""

    @pytest.mark.parametrize("args", BEST_PAIR_COMMANDS, ids=" ".join)
    def test_rows_of_other_ranks_change_nothing(self, run_cli, mixed_ranks, args):
        bundled = run_cli(*args)
        assert bundled.returncode == 0, bundled.stderr
        assert run_cli(*args, "--input", str(mixed_ranks)) == bundled

    @pytest.mark.parametrize("args", BEST_PAIR_COMMANDS, ids=" ".join)
    def test_input_without_best_pairs_is_an_empty_selection(self, run_cli, args):
        result = run_cli(*args, "--input", str(fixture_path("fig6_rank2.csv")))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: empty selection: no points match height=all, rank=1\n"


class TestRawInputRejected:
    @pytest.fixture
    def raw_csv(self, tmp_path):
        path = tmp_path / "raw.csv"
        lines = [",".join(RAW_COLUMNS)]
        lines += [f"{d},12.0,0,0,{t},{80.0 + d + t}" for d in (6.0, 20.0, 40.0) for t in range(3)]
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "args",
        [
            ("fit", "--model", "ci"),
            ("compare",),
            *(("report", "--which", which) for which in ("table1", "table2", "table3", "conclusion")),
        ],
    )
    def test_every_subcommand_rejects_raw_trials(self, run_cli, raw_csv, args):
        result = run_cli(*args, "--input", str(raw_csv))
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"{args[0]} expects the aggregated schema" in result.stderr
        assert "aggregate raw trials first" in result.stderr

    def test_header_only_raw_file(self, run_cli, tmp_path):
        # numpy warns on a parse of no rows; nothing but the error may reach stderr
        path = tmp_path / "header.csv"
        path.write_text(",".join(RAW_COLUMNS) + "\n")
        result = run_cli("fit", "--model", "ci", "--input", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == ("error: fit expects the aggregated schema "
                                 "(distance_m,height_m,rank,path_loss_db); "
                                 "aggregate raw trials first\n")


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "args, field",
        [
            (("fit", "--model", "ci", "--freq-ghz", "nan"), "freq_ghz"),
            (("sample", "--distance", "nan", "--n", "2"), "distance_m"),
            (("sample", "--distance", "20", "--n", "2", "--sigma", "nan"), "sigma_db"),
        ],
    )
    def test_rejected_naming_the_field(self, run_cli, args, field):
        result = run_cli(*args)
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"{field} must be finite" in result.stderr

    @pytest.mark.parametrize("freq", ["nan", "inf", "-3", "0"])
    @pytest.mark.parametrize("args", [("fit", "--model", "fi"),
                                      ("sample", "--model", "fi", "--distance", "20", "--n", "2")],
                             ids=["fit", "sample"])
    def test_fi_rejects_a_bad_carrier_as_ci_does(self, run_cli, args, freq):
        # the fi law never reads the carrier, so nothing but the CLI checks it
        result = run_cli(*args, "--freq-ghz", freq)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error: freq_ghz must be ")
        assert result.stderr.count("\n") == 1
        ci = ["ci" if arg == "fi" else arg for arg in args]
        assert result == run_cli(*ci, "--freq-ghz", freq)

    CARRIER_COMMANDS = {
        "fit-ci": ("fit", "--model", "ci"),
        "fit-fi": ("fit", "--model", "fi"),
        "sample-ci": ("sample", "--distance", "20", "--n", "2"),
        "sample-fi": ("sample", "--model", "fi", "--distance", "20", "--n", "2"),
        "report-table1": ("report", "--which", "table1"),
        "compare": ("compare", "--oxygen-db-per-km", "0"),
    }

    @pytest.mark.parametrize("freq", ["0.4999", "100.001", "1e200", "1e-300"])
    @pytest.mark.parametrize("args", CARRIER_COMMANDS.values(), ids=CARRIER_COMMANDS)
    def test_carrier_outside_tr38901_range_is_one_error(self, run_cli, args, freq):
        # every subcommand takes the carrier in TR 38.901's 0.5-100 GHz, as compare's references do
        assert run_cli(*args, "--freq-ghz", freq) == (
            1, "", f"error: freq_ghz must be >= 0.5 GHz and <= 100 GHz, got {float(freq)} GHz\n")

    @pytest.mark.parametrize("freq", ["0.5", "100"])
    @pytest.mark.parametrize("args", CARRIER_COMMANDS.values(), ids=CARRIER_COMMANDS)
    def test_carrier_range_is_closed(self, run_cli, args, freq):
        result = run_cli(*args, "--freq-ghz", freq)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout

    @pytest.mark.parametrize("args, field", [
        (("fit", "--model", "ci", "--freq-ghz", "1e308"), "freq_ghz"),
        (("report", "--which", "table1", "--freq-ghz", "1e308"), "freq_ghz"),
        (("fit", "--model", "ci", "--input"), "path_loss_db"),
        (("fit", "--model", "fi", "--input"), "path_loss_db"),
    ], ids=["fit-carrier", "report-carrier", "fit-ci-losses", "fit-fi-losses"])
    def test_overflowing_fit_is_one_error_without_warnings(self, tmp_path, args, field):
        # finite inputs whose fit overflows: a 1 m Friis loss of inf, or losses of 1.7e308
        if args[-1] == "--input":
            path = tmp_path / "huge.csv"
            path.write_text("distance_m,height_m,rank,path_loss_db\n"
                            + "".join(f"{d},6,,1.7e308\n" for d in (10, 20, 30)))
            args = (*args, str(path))
        result = subprocess.run([sys.executable, "-W", "error", "-m", "a2a60.cli", *args],
                                capture_output=True, text=True, env=src_env())
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert field in result.stderr


# what a numeric flag draws in place of a valid value: ±0, subnormals, huge finite
# values, negatives, nan and ±inf
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1.0, -60.0, 1e200,
                            1e308, -1e308, sys.float_info.max, math.nan, math.inf, -math.inf])
# an integer flag's: those, whose float text argparse rejects, and integers out of range
WHOLE_EXTREMES = st.one_of(st.sampled_from([-1, 10 ** 8 + 1, 2 ** 64, -10 ** 30, 10 ** 400]),
                           EXTREMES).map(repr)


def number(valid):
    """A float flag's (valid, extreme) texts."""
    return valid.map(repr), EXTREMES.map(repr)


def whole(valid):
    """An integer flag's (valid, extreme) texts."""
    return valid.map(repr), WHOLE_EXTREMES


def choice(*values):
    """A flag's texts with no extreme."""
    return st.sampled_from(values), None


def grid():
    """--distances START:STOP:STEP's (valid, extreme) texts: at most 400 points when
    valid; in the extreme, each part valid or extreme."""
    parts = (st.floats(1.0, 200.0), st.floats(1.0, 200.0), st.floats(0.5, 50.0))
    return tuple(st.tuples(*(part.map(repr) for part in each)).map(":".join)
                 for each in (parts, [st.one_of(part, EXTREMES) for part in parts]))


CARRIER = {"--freq-ghz": number(st.sampled_from([0.5, 28.0, 60.0, 60.48, 100.0]))}
TABLE = {**CARRIER, "--format": choice(*FORMATS)}
# each subcommand's required flags, and the (valid, extreme) texts of all of its flags
CONTRACT_FLAGS = {
    "fit": (("--model",), {**TABLE, "--model": choice("ci", "fi"),
                           "--height": (st.sampled_from(["all", "6", "12", "15"]),
                                        EXTREMES.map(repr)),
                           "--rank": (st.sampled_from(["all", "none", "best", "1", "2"]),
                                      WHOLE_EXTREMES)}),
    "compare": ((), {**TABLE, "--oxygen-db-per-km": number(st.floats(0.0, 30.0)),
                     "--distances": grid()}),
    "sample": (("--distance", "--n"),
               {**CARRIER, "--distance": number(st.floats(1.0, 1000.0)),
                "--n": whole(st.integers(0, 3000)), "--model": choice("ci", "fi"),
                "--seed": whole(st.integers(0, 2 ** 64)), "--ple": number(st.floats(0.0, 6.0)),
                "--sigma": number(st.floats(0.0, 20.0)),
                "--intercept": number(st.floats(0.0, 150.0))}),
    "report": (("--which",), {**TABLE, "--which": choice(*sorted(cli._REPORTS))}),
}


@st.composite
def contract_argv(draw):
    """A subcommand and some of its flags, at most two of them extreme, each as
    --flag=value: argparse takes `--ple -1e308` for two options."""
    command = draw(st.sampled_from(sorted(CONTRACT_FLAGS)))
    required, texts = CONTRACT_FLAGS[command]
    flags = [*required, *draw(st.lists(st.sampled_from([f for f in texts if f not in required]),
                                       unique=True))]
    odd = [flag for flag in flags if texts[flag][1] is not None] or [None]
    extreme = draw(st.sets(st.sampled_from(odd), max_size=2))
    return [command, *(f"{flag}={draw(texts[flag][flag in extreme])}" for flag in flags)]


def not_finite(text):
    """Whether `text` reads as a float that is not finite."""
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


class TestCliContract:
    """`main` over every subcommand and format, flags valid and extreme: stdout and
    exit 0, or one `error:` line and exit 1, or argparse's usage error; nothing escapes."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=contract_argv())
    # the extreme-flag probes of earlier changes, which random draws reach rarely
    @example(["fit", "--model=ci", "--freq-ghz=1e200"])
    @example(["fit", "--model=ci", "--freq-ghz=1e-300"])
    @example(["report", "--which=table2", "--freq-ghz=1e308"])
    @example(["sample", "--distance=20", "--n=2", "--sigma=1e308"])
    @example(["sample", "--distance=20", "--n=1000", f"--sigma={sys.float_info.max!r}"])
    @example(["compare", "--oxygen-db-per-km=1e308"])
    @example(["compare", "--oxygen-db-per-km=1e306", "--distances=6:4000:2"])
    @example(["compare", "--distances=1:150:1e-300"])
    def test_exit_code_and_streams(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        stdout, stderr = out.getvalue(), err.getvalue()
        if code == 0:
            assert stderr == ""
            # every cell of csv, json or markdown, and every number of the conclusion's equation
            assert not list(filter(not_finite, re.split(r"[\s,|():]+", stdout)))
        elif code == 1:
            assert stdout == ""
            assert stderr.startswith("error: ") and stderr.endswith("\n")
            assert stderr.count("\n") == 1
        else:
            assert code == 2
            assert stdout == ""
            assert stderr.startswith(f"usage: a2a60 {argv[0]} ")
            assert f"\na2a60 {argv[0]}: error: " in stderr


@pytest.mark.parametrize("argv, message", [  # numbers of 41 to about 300 digits were printed whole
    (["sample", "--distance", "20", "--n", "1" + "0" * 60],
     "--n must be >= 0 and <= 100000000, got 1.0000000000000000e+60"),
    (["compare", "--distances", "1:150:1e-300"], "invalid --distances '1:150:1e-300': grid point "
                                                "count must be <= 1000000, got 1.4899999999999999e+302"),
    (["fit", "--model", "ci", "--rank", "1" + "0" * 40], f"invalid --rank '1{'0' * 40}': rank must "
                                                         "be >= 1 and <= 400, got 1.0000000000000000e+40"),
])
def test_error_line_bounds_a_huge_number(run_cli, argv, message):
    result = run_cli(*argv)
    assert result == (1, "", f"error: {message}\n")
    assert len(result.stderr) < 200


class TestMalformedCsv:
    def test_over_long_field_is_a_row_error(self, run_cli, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("distance_m,height_m,rank,path_loss_db\n6,12,," + "9" * 200_000 + "\n")
        result = run_cli("fit", "--model", "ci", "--input", str(big))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "row 2" in result.stderr

    INPUT_COMMANDS = [("fit", "--model", "ci"), ("compare",), ("report", "--which", "table3")]
    NOT_UTF8 = (1, "", "error: not UTF-8 text: invalid start byte\n")

    @pytest.mark.parametrize("args", INPUT_COMMANDS)
    @pytest.mark.parametrize("at_row", [1, 200, 2002])
    def test_non_utf8_input_is_one_error_line(self, run_cli, tmp_path, with_bad_byte, args,
                                              at_row):
        path = tmp_path / "bad.csv"
        path.write_bytes(with_bad_byte("distance_m,height_m,rank,path_loss_db\n", "6,12,,85.5\n",
                                       at_row))
        assert run_cli(*args, "--input", str(path)) == self.NOT_UTF8

    def test_non_utf8_byte_process_has_no_traceback(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\n")
        for args in self.INPUT_COMMANDS:
            result = run_cli_process(*args, "--input", str(path))
            assert (result.returncode, result.stdout, result.stderr) == self.NOT_UTF8

    def test_byte_order_mark_is_accepted(self, run_cli, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + fixture_path(MEASUREMENTS_FILE).read_bytes())
        result = run_cli("fit", "--model", "ci", "--input", str(path))
        assert result == run_cli("fit", "--model", "ci")
        assert result.returncode == 0


class TestGoldenOutput:
    @pytest.fixture(scope="class")
    def goldens(self):
        return json.loads(GOLDENS.read_text())

    def test_commands_cover_every_golden(self, goldens):
        assert set(GOLDEN_COMMANDS) == set(goldens)

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_stdout_matches_golden(self, goldens, name):
        # a plain StringIO takes sample-dense's 10^6 lines about a second faster than capsys
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(GOLDEN_COMMANDS[name]) == 0
        stdout = buffer.getvalue().encode()
        assert len(stdout) == goldens[name]["bytes"]
        assert hashlib.sha256(stdout).hexdigest() == goldens[name]["sha256"]

    @pytest.mark.parametrize("name", ["fit-ci", "fit-fi-json", "report-table3-markdown-table",
                                      "sample-1000"])
    def test_only_json_output_imports_json(self, goldens, name):
        # every process pays for what `import a2a60.cli` loads; json serves --format json alone
        code = ("import sys\n"
                "import a2a60.cli\n"
                "print(*sys.modules, file=sys.stderr)\n"
                "a2a60.cli.main(sys.argv[1:])\n"
                "print(*sys.modules, file=sys.stderr)\n")
        result = subprocess.run([sys.executable, "-c", code, *GOLDEN_COMMANDS[name]],
                                capture_output=True, env=src_env())
        assert result.returncode == 0, result.stderr
        before, after = (set(line.split()) for line in result.stderr.decode().splitlines())
        assert not before & {"json", "__future__"}
        # bench/child.py's tracer looks each library module up in sys.modules
        assert {f"a2a60.{m}" for m in ("dataset", "beams", "fitting", "pathloss", "tr38901")} <= before
        assert ("json" in after) == name.endswith("-json")
        assert len(result.stdout) == goldens[name]["bytes"]
        assert hashlib.sha256(result.stdout).hexdigest() == goldens[name]["sha256"]

    @pytest.mark.parametrize("rank", ["1", "none"])
    def test_best_pair_rank_prints_fit_ci(self, goldens, run_cli, rank):
        result = run_cli("fit", "--model", "ci", "--rank", rank)
        assert result.returncode == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == goldens["fit-ci"]["sha256"]


class TestDeterminism:
    """Subprocess smoke tests of the `python -m a2a60.cli` entry point."""

    @pytest.mark.parametrize(
        "args",
        [
            ("fit", "--model", "ci"),
            ("compare", "--distances", "6:40:2"),
            ("report", "--which", "table1"),
            ("report", "--which", "table3", "--format", "json"),
            ("sample", "--distance", "20", "--n", "100", "--seed", "3"),
        ],
    )
    def test_two_runs_byte_identical(self, args):
        first, second = run_cli_process(*args), run_cli_process(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def program_env(**preset):
    """`src_env()` without the thread-count variables OpenBLAS reads, then `preset`."""
    return {**{k: v for k, v in src_env().items() if k not in BLAS_THREADS}, **preset}


class TestStartup:
    """numpy loads with a command's first library module; each case in a fresh interpreter."""

    def test_import_loads_no_numpy(self):
        result = subprocess.run([sys.executable, "-c", "import sys, a2a60.cli\n"
                                 "print('numpy' in sys.modules)"],
                                capture_output=True, text=True, env=src_env())
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("args, code", [(("--help",), 0), (("fit",), 2)])
    def test_parsing_loads_no_numpy(self, args, code):
        result = subprocess.run([sys.executable, "-X", "importtime", "-m", "a2a60.cli", *args],
                                capture_output=True, text=True, env=src_env())
        timed, other = [], []
        for line in result.stderr.splitlines():
            if line.startswith("import time:"):
                timed.append(line.rsplit("|", 1)[1].strip())
            else:
                other.append(line)
        assert result.returncode == code
        assert "a2a60" in timed and "numpy" not in timed
        if code:
            assert result.stdout == ""
            assert other[0].startswith("usage: a2a60 fit")
            assert other[-1] == "a2a60 fit: error: the following arguments are required: --model"
        else:
            assert result.stdout.startswith("usage: a2a60") and other == []


class TestBlasThreads:
    """A program run loads numpy with one OpenBLAS thread unless the user chose a count;
    each case in a fresh interpreter."""

    pytestmark = pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                                    reason="reads /proc/self/status and /proc/self/maps")

    def run_fit(self, program=True, first="", **preset):
        """(exit code, the variables `fit --model ci` changed, as {name: new value or None},
        the process's thread count after it, whether OpenBLAS is loaded) of an interpreter
        that runs `first`, then `main()` with sys.argv set, or `main(argv)` if not `program`."""
        code = ("import contextlib, io, json, os, sys\n"
                f"{first}\n"
                "before = dict(os.environ)\n"
                "from a2a60.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = main({'' if program else 'sys.argv[1:]'})\n"
                "changed = {k: os.environ.get(k) for k in before.keys() | os.environ.keys()\n"
                "           if before.get(k) != os.environ.get(k)}\n"
                "status, maps = open('/proc/self/status').read(), open('/proc/self/maps').read()\n"
                "print(json.dumps([code, changed, int(status.split('Threads:')[1].split()[0]),\n"
                "                  'openblas' in maps.lower()]))\n")
        result = subprocess.run([sys.executable, "-c", code, "fit", "--model", "ci"],
                                capture_output=True, text=True, env=program_env(**preset))
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_program_run_pins_one_openblas_thread(self):
        assert self.run_fit()[:2] == [0, {"OPENBLAS_NUM_THREADS": "1"}]

    @pytest.mark.parametrize("name", BLAS_THREADS)
    def test_program_run_keeps_a_preset_count(self, name):
        assert self.run_fit(**{name: "3"})[:2] == [0, {}]

    def test_program_run_after_numpy_loads_changes_nothing(self):
        assert self.run_fit(first="import numpy")[:2] == [0, {}]

    def test_main_with_arguments_changes_nothing(self):
        assert self.run_fit(program=False)[:2] == [0, {}]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no pool on one CPU")
    def test_program_run_starts_no_blas_thread(self):
        code, _, threads, openblas = self.run_fit()
        if not openblas:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert (code, threads) == (0, 1)


def test_main_with_arguments_leaves_the_process_as_it_found_it():
    """In a fresh interpreter, `main(argv)` for `sample`, then for a `compare` whose
    stdout pipe closes after a line: `_hashlib` is not blocked, hashlib offers what it
    offers after a plain `import numpy.random`, and os.environ and fd 1 are unchanged."""
    code = ("import json, os, sys\n"
            "import a2a60.cli\n"
            "environ, pipe = dict(os.environ), os.fstat(1)\n"
            "codes = [a2a60.cli.main(['sample', '--distance', '20', '--n', '5']),\n"
            "         a2a60.cli.main(['compare', '--distances', '1:150:0.01'])]\n"
            "import hashlib\n"
            "fd1 = os.fstat(1)\n"
            "print(json.dumps([codes, sorted(k for k, v in sys.modules.items() if v is None),\n"
            "                  sorted(hashlib.algorithms_available), dict(os.environ) == environ,\n"
            "                  (fd1.st_dev, fd1.st_ino) == (pipe.st_dev, pipe.st_ino)]),\n"
            "      file=sys.stderr, flush=True)\n"
            "os._exit(0)  # the flush at exit would fail on the closed pipe, as in any caller\n")
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=program_env()) as process:
        assert process.stdout.readline()
        process.stdout.close()
        stderr, returncode = process.stderr.read(), process.wait(timeout=120)
    assert returncode == 0, stderr
    codes, blocked, algorithms, same_environ, same_fd1 = json.loads(stderr)
    plain = subprocess.run([sys.executable, "-c", "import json, hashlib, numpy.random\n"
                            "print(json.dumps(sorted(hashlib.algorithms_available)))"],
                           capture_output=True, text=True, env=program_env())
    assert (codes, blocked, same_environ, same_fd1) == ([0, 0], [], True, True)
    assert algorithms == json.loads(plain.stdout)
