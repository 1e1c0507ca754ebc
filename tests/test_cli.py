import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from a2a60 import (
    CiModel,
    FiModel,
    cli,
    free_space_pl,
    mean_pl,
    pl_3gpp_los,
    published,
    sample_pl,
    scenario_defaults,
)
from a2a60.cli import main
from a2a60.dataset import RAW_COLUMNS
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


def run_cli_process(*args):
    """Run `python -m a2a60.cli` with this checkout's sources importable."""
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "a2a60.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


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
        ("--rank", "0", "rank must be >= 1 and <= 400, got 0"),  # 0 is no rank, not the best pair
        ("--rank", "abc", "invalid --rank 'abc': invalid literal for int()"),
        ("--height", "abc", "invalid --height 'abc': could not convert string to float"),
    ])
    def test_bad_selection_flag(self, run_cli, flag, value, message):
        result = run_cli("fit", "--model", "ci", flag, value)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert message in result.stderr
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
        rows = parse_csv(run_cli("compare", "--distances", "1:150:0.25", "--freq-ghz", "0.5").stdout)
        ci = cli.fit_ci(*cli.to_fit_points(cli.load_measurement_points()), 0.5).model
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

        monkeypatch.setattr(cli, "pl_3gpp_los", spy)
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
        cli._emit("json", self.COLUMNS, iter(rows), out)
        expected = io.StringIO()
        json.dump([dict(zip(self.COLUMNS, row)) for row in rows], expected, indent=2)
        assert out.getvalue() == expected.getvalue() + "\n"


def library_lines(model, n, seed):
    """`sample`'s expected stdout lines: the `repr` of each draw of `sample_pl`."""
    pub = published.TABLE1[model]
    law = (CiModel(published.CARRIER_FREQ_GHZ, pub["ple"], pub["sigma"]) if model == "ci"
           else FiModel(pub["intercept_db"], pub["ple"], pub["sigma"]))
    return [repr(value) + "\n" for value in sample_pl(law, 20.0, n, seed).tolist()]


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
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 5000])
    def test_lines_are_the_library_draws(self, run_cli, model, n):
        result = run_cli("sample", "--model", model, "--distance", "20", "--n", str(n),
                         "--seed", "11")
        assert result.returncode == 0
        assert result.stdout.splitlines(keepends=True) == library_lines(model, n, 11)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_memory_does_not_grow_with_n(self):
        # VmHWM, unlike ru_maxrss, starts afresh at exec: the test process's own
        # peak does not leak into the child's
        code = ("import sys\n"
                "from a2a60.cli import main\n"
                "main(sys.argv[1:])\n"
                "status = open('/proc/self/status').read()\n"
                "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr)\n")
        path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))

        def peak_kib(n):
            result = subprocess.run(
                [sys.executable, "-c", code, "sample", "--distance", "20", "--n", str(n)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=path))
            return int(result.stderr)

        assert peak_kib(300_000) - peak_kib(1000) <= 1024

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

        monkeypatch.setattr(cli, "_draw_blocks", refuse)
        result = run_cli("sample", "--distance", "20", "--n", "100000000")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_distance_below_reference_fails(self, run_cli):
        result = run_cli("sample", "--distance", "0.5", "--n", "10", "--seed", "1")
        assert result.returncode != 0
        assert "reference distance" in result.stderr

    @pytest.mark.parametrize("n", ["-1", "100000001", "10000000000000"])
    def test_n_is_checked_before_anything_is_drawn(self, run_cli, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(cli, "_draw_blocks", refuse)
        result = run_cli("sample", "--distance", "20", "--n", n)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"error: --n must be >= 0 and <= 100000000, got {n}\n"


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="the helper needs posix_spawn")
class TestSampleHelper:
    """From 64 blocks of 1024 draws on, a helper interpreter formats every odd block."""

    @pytest.fixture
    def spawns(self, monkeypatch):
        """The argv of every process `sample` spawns."""
        calls, spawn = [], os.posix_spawn

        def counted(path, argv, *args, **kwargs):
            calls.append(argv)
            return spawn(path, argv, *args, **kwargs)

        monkeypatch.setattr(os, "posix_spawn", counted)
        return calls

    @pytest.mark.parametrize("model", ["ci", "fi"])
    @pytest.mark.parametrize("n", [64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1, 64 * 1024 + 1025])
    def test_lines_are_the_library_draws(self, run_cli, spawns, model, n):
        result = run_cli("sample", "--model", model, "--distance", "20", "--n", str(n),
                         "--seed", "11")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines(keepends=True) == library_lines(model, n, 11)
        assert len(spawns) == 1 and spawns[0][1:4] == ["-I", "-S", "-c"]

    @pytest.mark.parametrize("n, helpers", [(1000, 0), (63 * 1024, 0), (63 * 1024 + 1, 1)])
    def test_starts_from_64_blocks(self, run_cli, spawns, n, helpers):
        result = run_cli("sample", "--distance", "20", "--n", str(n), "--seed", "3")
        assert result.stdout.splitlines(keepends=True) == library_lines("ci", n, 3)
        assert len(spawns) == helpers

    def test_falls_back_to_formatting_in_process(self, run_cli, monkeypatch):
        args = ("sample", "--distance", "20", "--n", str(64 * 1024 + 1025), "--seed", "5")
        expected = run_cli(*args)

        def fail(*args, **kwargs):
            raise OSError("no spawn")

        with monkeypatch.context() as patch:
            patch.setattr(sys, "executable", "")
            assert run_cli(*args) == expected
        with monkeypatch.context() as patch:
            patch.setattr(os, "posix_spawn", fail)
            assert run_cli(*args) == expected
        with monkeypatch.context() as patch:
            patch.delattr(os, "posix_spawn")
            assert run_cli(*args) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_that_exits_early_is_a_diagnostic(self, run_cli, monkeypatch, spawns):
        monkeypatch.setattr(cli, "_HELPER", "import os; os._exit(3)")
        result = run_cli("sample", "--distance", "20", "--n", "100000", "--seed", "1")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: the helper process formatting the draws exited early\n"
        assert len(spawns) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_broken_stdout_reaps_the_helper(self, capsys, monkeypatch, spawns):
        class BrokenStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        assert main(["sample", "--distance", "20", "--n", "100000", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert len(spawns) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_runs_where_sigchld_is_ignored(self, run_cli, spawns):
        # the kernel then reaps the helper itself, and waitpid finds no child
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            result = run_cli("sample", "--distance", "20", "--n", "70000", "--seed", "4")
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines(keepends=True) == library_lines("ci", 70000, 4)
        assert len(spawns) == 1

    def test_one_page_pipes_do_not_deadlock(self):
        # a frame of draws (8 KiB) and of lines (about 18 KiB) each overfill such a
        # pipe, and `sample` keeps several blocks at the helper at once
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs F_SETPIPE_SZ")
        code = ("import fcntl, os, sys\n"
                "pipe = os.pipe\n"
                "def one_page_pipe():\n"
                "    fds = pipe()\n"
                "    fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, 4096)\n"
                "    return fds\n"
                "os.pipe = one_page_pipe\n"
                "from a2a60.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-c", code, "sample", "--distance", "20", "--n", "100000",
             "--seed", "8"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines(keepends=True) == library_lines("ci", 100000, 8)


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

    def test_json_report_parses(self, run_cli):
        doc = json.loads(run_cli("report", "--which", "table1", "--format", "json").stdout)
        assert isinstance(doc, list)
        assert {"section", "param", "computed", "published", "abs_delta", "note"} == set(doc[0])


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


class TestMalformedCsv:
    def test_over_long_field_is_a_row_error(self, run_cli, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("distance_m,height_m,rank,path_loss_db\n6,12,," + "9" * 200_000 + "\n")
        result = run_cli("fit", "--model", "ci", "--input", str(big))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "row 2" in result.stderr


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
