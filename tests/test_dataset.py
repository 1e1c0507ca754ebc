import codecs
import copy
import csv
import dataclasses
import gzip
import io
import math
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import tempfile
import urllib.request
import warnings
from collections import Counter
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from a2a60 import dataset
from a2a60 import (
    AggregatedPoint,
    BeamScanRecord,
    CsvFormatError,
    EmptySelectionError,
    aggregate_trials,
    load_csv,
    load_measurement_points,
    load_rank_points,
    save_aggregated_csv,
    to_fit_points,
)
from a2a60.dataset import (
    DATA_DIR_ENV,
    MEASUREMENTS_FILE,
    RAW_COLUMNS,
    fixture_path,
)

RAW_HEADER = "distance_m,height_m,tx_beam_idx,rx_beam_idx,trial_idx,path_loss_db\n"
AGGREGATED_HEADER = "distance_m,height_m,rank,path_loss_db\n"
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def all_f8_rank_2_5():
    """An aggregated-named table whose every field, rank among them, is f8."""
    return np.array([(6.0, 12.0, 2.5, 90.0)], [(n, "f8") for n in dataset.AGGREGATED_COLUMNS])


def raw_csv(*rows):
    return io.StringIO(RAW_HEADER + "".join(r + "\n" for r in rows))


class UnseekableStream(io.StringIO):
    """A stream the bulk parse cannot rewind, so it is always read row by row."""

    def seekable(self):
        return False


class UnseekableBytes(io.BytesIO):
    """Bytes under a text stream that cannot seek, so it decodes as it is read."""

    def seekable(self):
        return False


def load_outcome(source):
    """`load_csv(source)`, or the CsvFormatError message."""
    try:
        return load_csv(source)
    except CsvFormatError as exc:
        return str(exc)


def load_three_ways(text, newline="\n"):
    """`load_csv` of `text` from a path, a seekable stream and an unseekable
    stream, the streams splitting lines as `newline` says: each result, or the
    CsvFormatError message, in that order."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (path, io.StringIO(text, newline), UnseekableStream(text, newline)):
            outcomes.append(load_outcome(source))
    return outcomes


# the canonical text of one valid raw row, as (distance, height, tx, rx, trial, path loss)
VALID_ROW = st.tuples(
    st.integers(1, 500).map(str), st.sampled_from(["6", "12", "15", "12.5"]),
    *(st.integers(0, 19).map(str) for _ in range(2)), st.integers(0, 14).map(str),
    st.floats(40.0, 200.0).map(repr),
)


@st.composite
def spelled(draw, text):
    """`text` as one of the spellings Python's float or int reads as the same
    number; quoted, `1_0` and non-ASCII digits are beyond numpy's parser."""
    variants = [text, "+" + text, "0" + text, f" {text} ", f"\t{text}\u3000", f'"{text}"',
                text.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                                             "\u0664\u0665\u0666\u0667\u0668\u0669"))]
    if len(text) > 1 and text[:2].isdigit():
        variants.append(text[0] + "_" + text[1:])
    return draw(st.sampled_from(variants))


@st.composite
def raw_text(draw, bad=None):
    """A raw CSV of spelled rows with blank lines, in LF or CRLF; `bad`, if
    given, is one more row at a random position."""
    rows = draw(st.lists(VALID_ROW, max_size=12))
    lines = [",".join([draw(spelled(field)) for field in row]) for row in rows]
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([RAW_HEADER.rstrip("\n"), *lines]) + newline


# spellings of a cell that may not read, or may read out of range: exponents, decimal
# points, signs, nan and inf, indices past the scan window or the trials, ASCII padding
MISSPELLINGS = ["{}e0", "{}E-1", "{}.", "{}.5", "-{}", "+-{}", ".", "", "nan", "-NaN", "+inf",
                "Infinity", "-infinity", "20", "15", "-1", "0", "\x0b{}\x0c", "{}\x1c"]


@st.composite
def raw_text_of_any_rows(draw):
    """A raw CSV of rows as written or spelled, a few of them misspelled, a
    field short or a field long, among blank lines and lines of a space; its
    lines end in LF, CRLF or CR, the last one or not."""
    cell = draw(st.sampled_from([st.just, spelled]))
    rows = [[draw(cell(field)) for field in row] for row in draw(st.lists(VALID_ROW, max_size=12))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        change = draw(st.sampled_from(["short", "long", *range(len(row))]))
        if change == "short":
            row.pop()
        elif change == "long":
            row.append(draw(st.sampled_from(row)))
        else:
            row[change] = draw(st.sampled_from(MISSPELLINGS)).format(row[change])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", " "])))
    return raw_lines(lines, draw(st.sampled_from(["\n", "\r\n", "\r"])), final=draw(st.booleans()))


# raw rows for the chunk-boundary tests, each valid and ASCII, of several lengths
CHUNK_ROWS = [f"{d},12,{tx},{rx},{t},{80 + d + rx / 4 + t / 8}"
              for d in (6, 40) for tx, rx in ((0, 0), (19, 7)) for t in range(4)]


def raw_lines(rows, newline, final=True):
    """A raw CSV of `rows`, each line ended by `newline`, the last one only if `final`."""
    return newline.join([RAW_HEADER.rstrip("\n"), *rows]) + (newline if final else "")


@pytest.fixture
def bulk_outcomes(monkeypatch):
    """What each bulk parse of a raw CSV did, "parsed" or "declined", in call order; run on
    any numpy, as the tests are about the parse: one that reads "1.5" as an integer would
    have every raw file read row by row."""
    monkeypatch.setattr(dataset, "_numpy_refuses_float_integers", lambda: True)
    outcomes = []

    def spy(*args, parse=dataset._bulk_raw_table):
        try:
            table = parse(*args)
        except ValueError:
            outcomes.append("declined")
            raise
        outcomes.append("parsed")
        return table

    monkeypatch.setattr(dataset, "_bulk_raw_table", spy)
    return outcomes


class TestBundledFixtures:
    def test_measurement_fixture_shape(self, fig2_points):
        assert len(fig2_points) == 27
        assert fig2_points["rank"].tolist() == [1] * 27  # every point is a best pair
        assert Counter(fig2_points["height_m"].tolist()) == {6.0: 7, 12.0: 12, 15.0: 8}

    @pytest.mark.parametrize("rank", [2, 3, 9])
    def test_rank_fixture_shape(self, rank):
        points = load_rank_points(rank)
        assert len(points) == 27
        assert points["rank"].tolist() == [rank] * 27
        assert Counter(points["height_m"].tolist()) == {6.0: 7, 12.0: 12, 15.0: 8}

    def test_unbundled_rank_is_an_error(self):
        with pytest.raises(ValueError, match="beam-level"):
            load_rank_points(5)

    def test_data_dir_override(self, tmp_path, monkeypatch):
        target = tmp_path / MEASUREMENTS_FILE
        shutil.copy(str(fixture_path(MEASUREMENTS_FILE)), target)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert len(load_measurement_points()) == 27
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "nowhere"))
        with pytest.raises(FileNotFoundError):
            load_measurement_points()

    def test_fixture_path_is_beside_the_package(self, tmp_path, monkeypatch):
        bundled = Path(dataset.__file__).with_name("data") / MEASUREMENTS_FILE
        assert fixture_path(MEASUREMENTS_FILE) == bundled and bundled.is_file()
        monkeypatch.setenv(DATA_DIR_ENV, "")  # empty: unset
        assert fixture_path(MEASUREMENTS_FILE) == bundled
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert fixture_path(MEASUREMENTS_FILE) == tmp_path / MEASUREMENTS_FILE

    def test_data_directory_holds_only_what_a_loader_reads(self):
        # the package ships measurement tables; figure transcriptions that only
        # tests read live in tests/data/
        shipped = {path.name for path in Path(dataset.__file__).with_name("data").iterdir()}
        assert shipped == {MEASUREMENTS_FILE, *dataset.RANK_FILES.values()}


class TestLoadRawCsv:
    def test_well_formed_rows(self):
        records = load_csv(raw_csv(
            "6,12,0,0,0,90.125",
            "6,12,0,0,1,91.5",
            "6,12,0,1,0,93.25",
        ))
        assert len(records) == 3
        assert records.dtype.names == RAW_COLUMNS
        assert records[0].tolist() == (6.0, 12.0, 0, 0, 0, 90.125)

    def test_negative_distance_names_row_and_column(self):
        with pytest.raises(CsvFormatError, match=r"row 2.*distance_m"):
            load_csv(raw_csv("-6,12,0,0,0,90.0"))

    def test_trial_index_range(self):
        with pytest.raises(CsvFormatError, match=r"row 3.*trial_idx"):
            load_csv(raw_csv("6,12,0,0,0,90.0", "6,12,0,0,15,90.0"))

    @pytest.mark.parametrize("row, column", [("6,12,20,0,0,90.0", "tx_beam_idx"),
                                             ("6,12,0,20,0,90.0", "rx_beam_idx")])
    def test_beam_index_outside_scan_window(self, row, column):
        with pytest.raises(CsvFormatError, match=rf"row 3: {column} .*scan window"):
            load_csv(raw_csv("6,12,19,19,0,90.0", row))

    def test_over_long_field_names_row(self):
        with pytest.raises(CsvFormatError, match="row 3: field larger than field limit"):
            load_csv(raw_csv("6,12,0,0,0,90.0", "6,12,0,0,1," + "9" * 200_000))

    def test_non_numeric_field(self):
        with pytest.raises(CsvFormatError, match=r"row 2.*path_loss_db"):
            load_csv(raw_csv("6,12,0,0,0,abc"))

    def test_wrong_field_count(self):
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(raw_csv("6,12,0,0,0"))

    def test_unknown_header_lists_missing_columns(self):
        with pytest.raises(CsvFormatError, match="path_loss_db"):
            load_csv(io.StringIO("distance_m,height_m,rank\n6,12,\n"))

    def test_empty_file(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(io.StringIO(""))

    def test_integer_column_rejects_text(self):
        with pytest.raises(CsvFormatError, match=r"row 3: column tx_beam_idx: .*'abc'"):
            load_csv(raw_csv("6,12,0,0,0,90.0", "6,12,abc,0,1,90.0"))

    def test_index_past_64_bits_names_row_and_column(self):
        with pytest.raises(CsvFormatError,
                           match=r"row 2: column rx_beam_idx: 9{30} exceeds 64 bits"):
            load_csv(raw_csv("6,12,0," + "9" * 30 + ",0,90.0"))

    @pytest.mark.parametrize("index, fits", [
        (str((1 << 63) - 1), True), (str(-(1 << 63)), True),
        (str(1 << 63), False), (str(-(1 << 63) - 1), False),
    ])
    def test_index_bounds_in_the_row_loop(self, index, fits):
        # numpy holds an index that fits 64 bits, so the later row that does not
        # convert is reported before any range; one that does not fit stops the read
        text = RAW_HEADER + f"6,12,0,0,0,90.0\n\n6,12,0,0,{index},90.0\n6,12,0,0,0,abc\n"
        expected = ("row 5: column path_loss_db: could not convert" if fits
                    else f"row 4: column trial_idx: {index} exceeds 64 bits")
        with pytest.raises(CsvFormatError, match="^" + re.escape(expected)):
            load_csv(UnseekableStream(text))

    @pytest.mark.parametrize("bad, message", [
        ("6,12,20,0,0,90.0", r"tx_beam_idx must be >= 0 and <= 19 \(the 20 x 20 scan window\)"),
        ("6,12,0,0,0,abc", r"column path_loss_db: could not convert"),
        ("6,12,0,0,0", "expected 6 fields"),
    ])
    def test_blank_rows_keep_row_numbers(self, bad, message):
        # rows 3, 4 and 6 are blank, so the bad row is CSV row 7 but the 3rd converted one
        rows = ("6,12,0,0,0,90.0", "", "", "6,12,0,0,1,90.0", "", bad)
        with pytest.raises(CsvFormatError, match=f"^row 7: {message}"):
            load_csv(raw_csv(*rows))
        with pytest.raises(CsvFormatError, match=f"^row 3: {message}"):
            load_csv(raw_csv("", bad, "", "6,12,0,0,1,90.0"))

    def test_first_of_two_bad_rows_is_reported(self):
        # range errors: the first bad row in the file, whichever column fails
        with pytest.raises(CsvFormatError, match="^row 3: rx_beam_idx"):
            load_csv(raw_csv("6,12,0,0,0,90.0", "6,12,0,20,0,90.0", "-6,12,0,0,1,90.0"))
        with pytest.raises(CsvFormatError, match="^row 3: distance_m"):
            load_csv(raw_csv("6,12,0,0,0,90.0", "-6,12,0,0,0,90.0", "6,12,0,20,1,90.0"))
        # a row that does not convert stops the stream before any range is
        # checked, so it is reported even after a row out of range
        with pytest.raises(CsvFormatError, match="^row 4: column path_loss_db"):
            load_csv(raw_csv("6,12,0,0,0,90.0", "6,12,0,20,0,90.0", "6,12,0,0,1,abc"))

    def test_path_input(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "6,12,0,0,0,90.0\n")
        assert len(load_csv(path)) == 1


class TestBulkParse:
    """A seekable raw CSV is parsed by numpy in bulk; the row-by-row reader
    runs again only if that fails, and must give the same table or error. The
    bulk parse reads the text twice, a chunk at a time: once to count its line
    breaks, once to parse its lines; where the chunks end changes nothing."""

    @settings(deadline=None)
    @given(text=raw_text())
    def test_sources_agree_on_valid_rows(self, text):
        from_path, from_stream, row_by_row = load_three_ways(text)
        assert not isinstance(row_by_row, str), row_by_row
        for table in (from_path, from_stream):
            assert table.dtype == row_by_row.dtype == dataset._RAW_DTYPE
            assert table.tolist() == row_by_row.tolist()

    @settings(deadline=None)
    @given(text=st.sampled_from([
        "6,12,0,0,0,abc",  # text
        "6,12,0,0,0",  # wrong width
        "6,12,0,20,0,90.0",  # out of range
        "6,12,0,0,0,9" + "0" * 200_000,  # a field past the csv module's limit
    ]).flatmap(lambda bad: raw_text(bad=bad)))
    def test_sources_agree_on_the_error(self, text):
        from_path, from_stream, row_by_row = load_three_ways(text)
        assert isinstance(row_by_row, str)
        assert from_path == from_stream == row_by_row

    @settings(deadline=None)
    @given(text=raw_text_of_any_rows())
    def test_sources_agree(self, text):
        # the path and the stream may be parsed in bulk; the unseekable stream never is
        from_path, from_stream, row_by_row = load_three_ways(text, newline="")
        if isinstance(row_by_row, str):
            assert from_path == from_stream == row_by_row
        else:
            for table in (from_path, from_stream):
                assert table.dtype == row_by_row.dtype == dataset._RAW_DTYPE
                assert table.tolist() == row_by_row.tolist()

    def test_finite_over_long_field_is_still_rejected(self):
        # numpy would read this as 1e-200001 -> 0.0; the csv module refuses the field
        text = RAW_HEADER + "6,12,0,0,0,0." + "0" * 200_000 + "1\n"
        assert load_three_ways(text) == ["row 2: field larger than field limit (131072)"] * 3

    @pytest.mark.parametrize("field", ["3\x1c", "\x1f3", "\U00010d74"])
    def test_text_numpy_alone_reads_is_rejected(self, field):
        # numpy's parser strips \x1c-\x1f as whitespace and reads some
        # non-ASCII letters as integer digits; Python's int reads neither
        text = RAW_HEADER + f"6,12,0,0,{field},90.0\n"
        (message,) = set(load_three_ways(text))
        assert message.startswith("row 2: column trial_idx: invalid literal for int()")

    @pytest.mark.parametrize("row, bulk", [
        ("6,12,0,0,1,91.0", True),
        ("6,12,0,0,1_0,91.0", False),  # Python's int reads the underscore
        ('6,12,0,0,"1",91.0', False),  # the csv module unquotes
        ("6,12,0,0,1,91.0\u3000", False),  # both read this, but only ASCII goes to numpy
    ])
    def test_bulk_parse_declines_what_it_may_misread(self, bulk_outcomes, row, bulk):
        table = load_csv(raw_csv("6,12,0,0,0,90.0", "", row))
        assert bulk_outcomes == ["parsed" if bulk else "declined"]
        trial = 10 if "_" in row else 1
        assert table.tolist() == [(6.0, 12.0, 0, 0, 0, 90.0), (6.0, 12.0, 0, 0, trial, 91.0)]

    @pytest.mark.parametrize("action", ["default", "ignore", "error"])
    def test_numpy_that_reads_a_float_as_an_integer(self, tmp_path, monkeypatch, action):
        # numpy 1.23, until that deprecation expired, reads "1.5" in an integer column as 1
        # and warns of it (an error filter makes the warning a ValueError's cause): one probe
        # per process finds it, under any filter, and every raw file is then read row by row
        calls, loadtxt = [], np.loadtxt

        def lenient_loadtxt(fname, dtype, **kwargs):
            calls.append(fname)
            floats = loadtxt(fname, dtype=float, **kwargs)
            if (floats % 1).any():
                try:
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning, stacklevel=2)
                except DeprecationWarning as exc:
                    raise ValueError("could not convert string to int64") from exc
            return floats.astype(dtype)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        probe = dataset._numpy_refuses_float_integers
        monkeypatch.setattr(dataset, "_numpy_refuses_float_integers", cache(probe.__wrapped__))
        path, loaded = tmp_path / "raw.csv", []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            for rows in (CHUNK_ROWS, ["6,12,0,0,0,90.0", "6,12,1.5,0,0,90.0"], CHUNK_ROWS):
                text = raw_lines(rows, "\n")
                path.write_text(text, encoding="utf-8")
                loaded.append((load_outcome(path), load_outcome(UnseekableStream(text))))
        assert calls == [["1.5"]]  # the probe, once; no bulk parse
        assert [str(w.message) for w in caught] == (
            ["loadtxt(): Parsing an integer via a float is deprecated."] * (action == "default"))
        assert loaded[1] == ("row 3: column tx_beam_idx: invalid literal for int() with base "
                             "10: '1.5'",) * 2
        for table, row_by_row in (loaded[0], loaded[2]):
            assert table.dtype == row_by_row.dtype == dataset._RAW_DTYPE
            assert table.tolist() == row_by_row.tolist()

    def test_probe_of_numpy(self):
        # the probe agrees with numpy's parser, and loads no module
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                reads_one = np.loadtxt(["1.5"], dtype=np.int64).item() == 1
            except ValueError:
                reads_one = False
        assert dataset._numpy_refuses_float_integers() is not reads_one
        code = ("import sys, warnings\n"
                "warnings.simplefilter('ignore', DeprecationWarning)\n"
                "from a2a60.dataset import _numpy_refuses_float_integers as probe\n"
                "before = set(sys.modules)\n"
                "probe()\n"
                "print(sorted(set(sys.modules) - before))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src))
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_file_advanced_by_next_is_read_from_there(self, tmp_path):
        # a text file read by next() cannot tell its position, so it is read row by row
        path = tmp_path / "raw.csv"
        path.write_text("preamble\n" + RAW_HEADER + "6,12,0,0,0,90.0\n")
        with open(path, newline="") as handle:
            next(handle)
            assert load_csv(handle).tolist() == [(6.0, 12.0, 0, 0, 0, 90.0)]

    @pytest.mark.parametrize("text", [RAW_HEADER, RAW_HEADER + "\n\r\n\n"])
    def test_file_without_rows_is_an_empty_table(self, text):
        # numpy warns "input contained no data" on a parse of blank lines alone
        dataset._numpy_refuses_float_integers()  # on a numpy that reads "1.5" as 1, it warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tables = load_three_ways(text)
        assert caught == []
        for table in tables:
            assert len(table) == 0
            assert table.dtype == dataset._RAW_DTYPE

    @pytest.mark.parametrize("chunk", [1, 23, 64])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("layout", ["rows", "blank runs", "no final newline", "header only",
                                        "header only, no final newline"])
    def test_chunks_change_nothing(self, monkeypatch, chunk, newline, layout):
        rows = {"rows": CHUNK_ROWS, "no final newline": CHUNK_ROWS,
                "blank runs": [line for i, row in enumerate(CHUNK_ROWS)
                               for line in [row, *[""] * (3 * (i % 4))]]}.get(layout, [])
        text = raw_lines(rows, newline, final="no final newline" not in layout)
        monkeypatch.setattr(dataset, "_BULK_CHUNK", chunk)
        bulk = dataset._bulk_raw_table(io.StringIO(text, ""))  # parsed, not declined
        from_path, from_stream, row_by_row = load_three_ways(text, newline="")
        assert len(row_by_row) == len(rows) - rows.count("")
        for table in (bulk, from_path, from_stream):
            assert table.dtype == row_by_row.dtype == dataset._RAW_DTYPE
            assert table.tolist() == row_by_row.tolist()

    @pytest.mark.parametrize("chunk", [1, 2, 23, 1 << 18])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("blank", [None, 0, 5, len(CHUNK_ROWS), "only"])
    def test_max_rows_unless_a_blank_line(self, monkeypatch, chunk, newline, blank):
        # numpy warns of a blank line given max_rows, and of a file with no rows: it is
        # given max_rows only where no line is blank, and no call where no row follows
        # the header; a "\r\n" split across two reads is one line break, not a blank line
        rows = ["", "", ""] if blank == "only" else CHUNK_ROWS.copy()
        if isinstance(blank, int):
            rows.insert(blank, "")
        text = raw_lines(rows, newline)
        monkeypatch.setattr(dataset, "_BULK_CHUNK", chunk)
        given, loadtxt = [], np.loadtxt

        def spy(*args, max_rows, **kwargs):
            given.append(max_rows)
            return loadtxt(*args, max_rows=max_rows, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        table = dataset._bulk_raw_table(io.StringIO(text, ""))
        # without a blank line, one more than the line breaks: the header's and each row's
        assert given == {None: [len(rows) + 2], "only": []}.get(blank, [None])
        assert table.tolist() == load_csv(UnseekableStream(text, "")).tolist()

    @settings(deadline=None)
    @given(text=raw_text_of_any_rows())
    def test_no_warning_leaves_the_parse(self, text):
        dataset._numpy_refuses_float_integers()  # on a numpy that reads "1.5" as 1, it warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_three_ways(text, newline="")
        assert caught == []

    @pytest.mark.parametrize("chunk", [1, 23, 64])
    @pytest.mark.parametrize("bad", ["6,12,0,0,0,abc", "6,12,0,0", "6,12,0,20,0,90.0",
                                     "6,12,0,0,0,90.0\u00b5", "6,12,0,0,0,90.0\x1c",
                                     "6,12,0,0,0,9" + "0" * 200_000],
                             ids=["text", "wrong width", "out of range", "not ASCII",
                                  "space to numpy alone", "past the field limit"])
    @pytest.mark.parametrize("at", [0, 9, len(CHUNK_ROWS)])
    def test_errors_past_many_chunks(self, monkeypatch, chunk, bad, at):
        monkeypatch.setattr(dataset, "_BULK_CHUNK", chunk)
        rows = [*CHUNK_ROWS[:at], "", bad, "", *CHUNK_ROWS[at:]]
        from_path, from_stream, row_by_row = load_three_ways(raw_lines(rows, "\r\n"), newline="")
        assert isinstance(row_by_row, str)
        assert row_by_row.startswith(f"row {at + 3}: ")
        assert from_path == from_stream == row_by_row

    @pytest.mark.parametrize("text", [" ", "\t", "6,12,0,0,0,90.0\n \n6,12,0,0,1,90.0"],
                             ids=["space", "tab", "between rows"])
    def test_line_of_spaces_is_a_row(self, text):
        # the csv module reads it as a row of one field, not as a blank line
        (message,) = set(load_three_ways(RAW_HEADER + text + "\n"))
        assert re.match(r"^row \d: expected 6 fields", message)

    @pytest.mark.parametrize("chunk", [1, 23, 1 << 18])
    @pytest.mark.parametrize("length, bulk", [(80, True), (81, False)])
    def test_lines_past_the_field_limit_are_declined(self, monkeypatch, bulk_outcomes, chunk,
                                                     length, bulk):
        # any line longer than the limit is left to the row-by-row reader; this
        # one it reads, as each field is within the limit
        row = "6,12,0,0,1,91." + "0" * (length - 14)
        monkeypatch.setattr(dataset, "_BULK_CHUNK", chunk)
        limit = csv.field_size_limit(80)
        try:
            tables = load_three_ways(raw_lines([CHUNK_ROWS[0], row, CHUNK_ROWS[1]], "\r\n"))
        finally:
            csv.field_size_limit(limit)
        assert bulk_outcomes == ["parsed" if bulk else "declined"] * 2
        for table in tables:
            assert table.tolist() == [(6.0, 12.0, 0, 0, 0, 86.0), (6.0, 12.0, 0, 0, 1, 91.0),
                                      (6.0, 12.0, 0, 0, 1, 86.125)]

    @pytest.mark.parametrize("name", ["raw.csv.gz", "raw.bz2", "raw.xz", "raw.lzma"])
    @pytest.mark.parametrize("rows", [CHUNK_ROWS, [*CHUNK_ROWS[:5], "", "6,12,0,0,0,abc"]],
                             ids=["valid", "bad row"])
    def test_plain_text_named_as_compressed(self, tmp_path, bulk_outcomes, name, rows):
        # numpy's file opener decompresses by suffix: such a file is parsed from its handle
        text = raw_lines(rows, "\n")
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        loaded, row_by_row = load_outcome(path), load_outcome(UnseekableStream(text))
        assert bulk_outcomes == ["parsed" if rows is CHUNK_ROWS else "declined"]
        if isinstance(row_by_row, str):
            assert row_by_row.startswith("row 8: column path_loss_db: ")
            assert loaded == row_by_row
        else:
            assert loaded.dtype == row_by_row.dtype == dataset._RAW_DTYPE
            assert loaded.tolist() == row_by_row.tolist()

    def test_name_read_as_a_url_is_opened_as_a_file(self, tmp_path, monkeypatch):
        # numpy's opener would fetch a relative name such as this one, so it is given
        # the absolute one

        def no_network(*args, **kwargs):
            raise AssertionError("a URL was opened")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        text = raw_lines(CHUNK_ROWS, "\n")
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "raw.csv").write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert load_csv("http://host/raw.csv").tolist() == load_csv(io.StringIO(text)).tolist()


class TestTextEncoding:
    """Files are UTF-8, with or without a byte-order mark. Text is decoded in
    blocks, ahead of the rows, so a byte that is not UTF-8 is reported as
    such, with no row, wherever it lies: at the start, inside the first 8 KiB
    or past them."""

    @pytest.mark.parametrize("at_row", [1, 200, 2002])
    @pytest.mark.parametrize("header, row", [(RAW_HEADER, "6,12,0,0,0,90.0\n"),
                                             (AGGREGATED_HEADER, "6,12,,85.5\n")],
                             ids=["raw", "aggregated"])
    def test_measurements_not_utf8(self, tmp_path, with_bad_byte, header, row, at_row):
        data = with_bad_byte(header, row, at_row)
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        stream = io.TextIOWrapper(UnseekableBytes(data), encoding="utf-8", newline="")
        for source in (path, stream):
            with pytest.raises(CsvFormatError, match="^not UTF-8 text: invalid start byte$"):
                load_csv(source)

    def test_stream_error_names_its_codec(self):
        data = "distance_m,height_m,rank,path_loss_d\u00e9\n".encode()
        with pytest.raises(CsvFormatError, match=r"^not ASCII text: ordinal not in range\(128\)$"):
            load_csv(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))

    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch):
        text = fixture_path(MEASUREMENTS_FILE).read_text(encoding="utf-8")
        (tmp_path / MEASUREMENTS_FILE).write_bytes(codecs.BOM_UTF8 + text.encode())
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        expected = load_csv(io.StringIO(text)).tolist()
        assert load_csv(tmp_path / MEASUREMENTS_FILE).tolist() == expected
        assert load_measurement_points().tolist() == expected

    def test_byte_order_mark_before_a_raw_row_out_of_range(self, tmp_path):
        # the bulk parse fails, and the file is read again row by row from its
        # start, past the mark once more
        path = tmp_path / "raw.csv"
        path.write_bytes(codecs.BOM_UTF8 + (
            RAW_HEADER + "6,12,0,0,0,90.0\n6,12,0,0,1,90.0\n6,12,0,20,0,90.0\n").encode())
        with pytest.raises(CsvFormatError, match=r"^row 4: rx_beam_idx must be >= 0 and <= 19"):
            load_csv(path)

    def test_gzip_compressed_raw_file_is_not_utf8(self, tmp_path):
        path = tmp_path / "raw.csv.gz"
        path.write_bytes(gzip.compress(raw_lines(CHUNK_ROWS, "\n").encode()))
        with pytest.raises(CsvFormatError, match="^not UTF-8 text: invalid start byte$"):
            load_csv(path)

    def test_byte_order_mark_before_raw_rows_is_parsed_in_bulk(self, tmp_path, bulk_outcomes):
        # numpy skips the header, and the mark with it
        text = raw_lines(CHUNK_ROWS, "\r\n")
        path = tmp_path / "raw.csv"
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
        table, row_by_row = load_csv(path), load_csv(UnseekableStream(text))
        assert bulk_outcomes == ["parsed"]
        assert table.dtype == row_by_row.dtype == dataset._RAW_DTYPE
        assert table.tolist() == row_by_row.tolist()

    @pytest.mark.parametrize("start", [b"\xff", b"\xef\xbb", b"\xef\xbb\xbf\xff"],
                             ids=["bad byte", "cut mark", "mark, bad byte"])
    def test_not_utf8_from_the_first_byte(self, tmp_path, monkeypatch, start):
        (tmp_path / MEASUREMENTS_FILE).write_bytes(start + AGGREGATED_HEADER.encode())
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        for load in (lambda: load_csv(tmp_path / MEASUREMENTS_FILE), load_measurement_points):
            with pytest.raises(CsvFormatError, match="^not UTF-8 text: "):
                load()

    def test_paths_load_without_the_utf8_sig_codec(self, tmp_path):
        # Python does not load that codec at start-up: importing it costs memory
        path = tmp_path / "raw.csv"
        path.write_bytes(codecs.BOM_UTF8 + (RAW_HEADER + "6,12,0,0,0,90.0\n").encode())
        code = ("import sys\n"
                "from a2a60 import load_csv, load_measurement_points, load_rank_points\n"
                "assert load_csv(sys.argv[1]).tolist() == [(6.0, 12.0, 0, 0, 0, 90.0)]\n"
                "load_measurement_points(), load_rank_points(2)\n"
                "print(sorted(name for name in sys.modules if 'utf_8_sig' in name))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                                text=True, env=env)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_stream_text_is_read_as_given(self):
        # only the files the reader opens are decoded; a stream's mark stays in its header
        with pytest.raises(CsvFormatError, match=r"^unrecognized header \['\\ufeffdistance_m'"):
            load_csv(io.StringIO("\ufeff" + AGGREGATED_HEADER + "6,12,,85.5\n"))


class TestRecordValidation:
    @given(field=st.sampled_from(RAW_COLUMNS), bad=NON_FINITE)
    def test_raw_trial_rejects_non_finite_field_by_name(self, field, bad):
        values = dict(zip(RAW_COLUMNS, ("6.0", "12.0", "0", "0", "0", "90.0")),
                      **{field: repr(bad)})
        # an integer column cannot convert the text; a float column fails its range check
        message = (f"column {field}: invalid literal for int" if field.endswith("_idx")
                   else f"{field} must be finite")
        with pytest.raises(CsvFormatError, match=f"^row 3: {message}"):
            load_csv(raw_csv("6,12,0,0,0,90.0", ",".join(values.values())))

    @given(field=st.sampled_from(["distance_m", "height_m", "path_loss_db", "rank"]),
           bad=NON_FINITE)
    def test_aggregated_point_rejects_non_finite_field_by_name(self, field, bad):
        values = {"distance_m": 6.0, "height_m": 12.0, "path_loss_db": 90.0, "rank": 2,
                  field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AggregatedPoint(**values)

    @pytest.mark.parametrize("rank", [0, 401])
    def test_rank_outside_scan_window_pairs(self, rank):
        with pytest.raises(ValueError, match="rank must be >= 1 and <= 400"):
            AggregatedPoint(6.0, 12.0, 90.0, rank=rank)


class TestLoadAggregatedCsv:
    def test_rank_column_empty_means_best(self):
        points = load_csv(io.StringIO(
            "distance_m,height_m,rank,path_loss_db\n6,12,,85.5\n9,12,2,90.25\n"
        ))
        assert points.dtype.names == ("distance_m", "height_m", "rank", "path_loss_db")
        assert points.tolist() == [(6.0, 12.0, 1, 85.5), (9.0, 12.0, 2, 90.25)]

    def test_blank_and_written_best_pair_are_one_rank(self):
        points = load_csv(io.StringIO(AGGREGATED_HEADER + "6,12,,85.5\n9,12,1,90.25\n"))
        assert points["rank"].tolist() == [1, 1]
        for rank in (1, None):
            distances, path_loss = to_fit_points(points, rank=rank)
            assert distances.tolist() == [6.0, 9.0]
            assert path_loss.tolist() == [85.5, 90.25]

    def test_bad_rank_value(self):
        with pytest.raises(CsvFormatError, match=r"row 2.*rank"):
            load_csv(io.StringIO("distance_m,height_m,rank,path_loss_db\n6,12,0,85.5\n"))

    def test_rank_past_64_bits_names_row_and_column(self, tmp_path):
        text = AGGREGATED_HEADER + "6,12,99999999999999999999,85.5\n"
        path = tmp_path / "aggregated.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, UnseekableStream(text)):
            with pytest.raises(CsvFormatError,
                               match="^row 2: column rank: 9{20} exceeds 64 bits$"):
                load_csv(source)

    @pytest.mark.parametrize("bad, message", [
        ("6,nan,,85.5", "height_m must be finite"),
        ("6,12,,abc", "column path_loss_db: could not convert"),
        ("6,12,", "expected 4 fields"),
    ])
    def test_blank_rows_keep_row_numbers(self, bad, message):
        # as in the raw schema: rows 3, 4 and 6 are blank, so the bad row is CSV row 7
        rows = ("6,12,,85.5", "", "", "9,12,,90.25", "", bad)
        with pytest.raises(CsvFormatError, match=f"^row 7: {message}"):
            load_csv(io.StringIO(AGGREGATED_HEADER + "".join(r + "\n" for r in rows)))
        with pytest.raises(CsvFormatError, match=f"^row 3: {message}"):
            load_csv(io.StringIO(AGGREGATED_HEADER + f"\n{bad}\n\n9,12,,90.25\n"))

    def test_later_row_that_does_not_convert_comes_before_a_rank_range(self):
        # ranks are range-checked by column, after every row has converted
        with pytest.raises(CsvFormatError, match="^row 3: column rank: invalid literal"):
            load_csv(io.StringIO(AGGREGATED_HEADER + "6,12,0,85.5\n9,12,x,90.25\n"))
        with pytest.raises(CsvFormatError, match=r"^row 2: rank must be >= 1 and <= 400, got 0$"):
            load_csv(io.StringIO(AGGREGATED_HEADER + "6,12,0,85.5\n9,12,2,90.25\n"))


class TestAggregateTrials:
    def test_identical_trials(self):
        records = load_csv(raw_csv(*(f"6.0,12.0,3,4,{t},90.0" for t in range(15))))
        out = aggregate_trials(records)
        assert len(out) == 1
        assert out[0].path_loss_db == 90.0
        assert out[0].trial_count == 15
        assert (out[0].tx_beam_idx, out[0].rx_beam_idx) == (3, 4)

    def test_two_trials_average(self):
        records = load_csv(raw_csv("6.0,12.0,0,0,0,88.0", "6.0,12.0,0,0,1,92.0"))
        assert aggregate_trials(records)[0].path_loss_db == 90.0

    def test_empty_input(self):
        assert aggregate_trials(load_csv(raw_csv())) == []

    def test_full_scan_against_brute_force(self):
        rng = random.Random(5)
        rows = []
        expected = {}
        for tx in range(20):
            for rx in range(20):
                values = [rng.uniform(85, 115) for _ in range(15)]
                expected[(tx, rx)] = sum(values) / len(values)
                rows += [f"12.0,6.0,{tx},{rx},{t},{v!r}" for t, v in enumerate(values)]
        out = aggregate_trials(load_csv(raw_csv(*rows)))
        assert len(out) == 400
        for rec in out:
            assert rec.path_loss_db == pytest.approx(
                expected[(rec.tx_beam_idx, rec.rx_beam_idx)], abs=1e-12
            )
            assert rec.trial_count == 15

    def test_permutation_invariance(self):
        rng = random.Random(9)
        rows = [
            f"6.0,12.0,{tx},{rx},{t},{rng.uniform(85, 115)!r}"
            for tx in range(4) for rx in range(4) for t in range(15)
        ]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert aggregate_trials(load_csv(raw_csv(*rows))) == aggregate_trials(
            load_csv(raw_csv(*shuffled)))

    def test_repeated_trial_rejected(self):
        records = load_csv(raw_csv(*(f"6.0,12.0,0,1,{t},{90.0 + t}" for t in (0, 1, 1))))
        with pytest.raises(ValueError, match=r"duplicate trial 1 of beam pair \(0, 1\) "
                                             r"at \(d=6.0 m, h=12.0 m\)"):
            aggregate_trials(records)

    def test_float_trial_index(self):
        # the CSV's trial column is integer: "+1" and "02" are trials 1 and 2, and
        # every spelling of one whole number is the same trial
        rows = [f"6.0,12.0,0,0,{t},{90.0 + i}" for i, t in enumerate(("0", "+1", "02"))]
        (scan,) = aggregate_trials(load_csv(raw_csv(*rows)))
        assert scan.trial_count == 3
        assert scan.path_loss_db == 91.0
        with pytest.raises(ValueError, match="duplicate trial 1"):
            aggregate_trials(load_csv(raw_csv(*rows, "6.0,12.0,0,0,1,95.0")))
        # a table built from float indices holds them as integers too
        table = np.array([(6.0, 12.0, 0, 0, t, 90.0 + i)
                          for i, t in enumerate((0, 1.0, np.float64(2)))],
                         dtype=load_csv(raw_csv()).dtype)
        assert aggregate_trials(table) == [scan]
        with pytest.raises(CsvFormatError, match=r"row 2: column trial_idx: .*'1\.5'"):
            load_csv(raw_csv("6.0,12.0,0,0,1.5,95.0"))

    def test_missing_trials_tolerated(self):
        records = load_csv(raw_csv(*(f"6.0,12.0,0,0,{t},{90.0 + t}" for t in range(7))))
        out = aggregate_trials(records)
        assert out[0].trial_count == 7
        assert out[0].path_loss_db == 93.0

    def test_overflowing_mean_names_pair_and_point(self):
        rows = ["6.0,12.0,0,0,0,90.0", "6.0,12.0,0,1,0,1e308", "6.0,12.0,0,1,1,1e308",
                "9.0,12.0,0,1,0,1e308", "9.0,12.0,0,1,1,1e308"]
        with pytest.raises(ValueError, match=r"^mean path loss of beam pair \(0, 1\) "
                                             r"at \(d=6\.0 m, h=12\.0 m\) is not finite$"):
            aggregate_trials(load_csv(raw_csv(*rows)))

    def test_records_equal_checked_records(self):
        rows = [f"{d},{h},{tx},{rx},{t},{85.0 + d + h + tx + rx + t / 7}" for d in (6.0, 12.5)
                for h in (6.0, 15.0) for tx in (0, 19) for rx in (3, 4) for t in range(3)]
        out = aggregate_trials(load_csv(raw_csv(*rows)))
        checked = [BeamScanRecord(*dataclasses.astuple(r)) for r in out]
        assert [type(r) for r in out] == [BeamScanRecord] * 16
        assert out == checked
        assert list(map(hash, out)) == list(map(hash, checked))
        assert list(map(repr, out)) == list(map(repr, checked))
        names = [field.name for field in dataclasses.fields(BeamScanRecord)]
        assert [[(name, type(getattr(r, name)), getattr(r, name)) for name in names] for r in out] \
            == [[(name, type(getattr(r, name)), getattr(r, name)) for name in names] for r in checked]
        with pytest.raises(dataclasses.FrozenInstanceError):
            out[0].path_loss_db = 0.0
        assert not hasattr(out[0], "__dict__")  # slotted: vars(record) no longer exists
        # a frozen slotted record pickles and copies through its own state methods
        for twin in (pickle.loads(pickle.dumps(out[0])), copy.copy(out[0]), copy.deepcopy(out[0])):
            assert type(twin) is BeamScanRecord
            assert dataclasses.astuple(twin) == dataclasses.astuple(checked[0])

    @pytest.mark.parametrize("field, bad, message", [
        ("tx_beam_idx", 20, r"tx_beam_idx must be >= 0 and <= 19 \(the 20 x 20 scan window\)"),
        ("rx_beam_idx", 20, r"rx_beam_idx must be >= 0 and <= 19 \(the 20 x 20 scan window\)"),
        ("trial_idx", 15, r"trial_idx must be >= 0 and <= 14, got 15"),
        ("trial_idx", -1, r"trial_idx must be >= 0 and <= 14, got -1"),
        ("distance_m", math.nan, r"distance_m must be finite, got nan"),
        ("height_m", -6.0, r"height_m must be > 0 m, got -6.0 m"),
    ])
    def test_hand_built_table_is_range_checked(self, field, bad, message):
        # an index out of range would alias a neighbouring key: (0, 20) is (1, 0),
        # trial 15 of (0, 0) is trial 0 of (0, 1)
        table = np.array([(6.0, 12.0, 0, 0, 0, 90.0), (6.0, 12.0, 1, 0, 0, 91.0),
                          (6.0, 12.0, 0, 1, 0, 92.0)], dtype=dataset._RAW_DTYPE)
        table[field][0] = bad
        with pytest.raises(ValueError, match=message):
            aggregate_trials(table)

    @pytest.mark.parametrize("batch_rows", [dataset._BATCH_ROWS, 50])
    def test_distinct_distances_and_heights(self, monkeypatch, batch_rows):
        # 600 points of a row or two each, the (distance, height) grid 600 x 600:
        # in one batch, or in batches of at most 50 rows
        monkeypatch.setattr(dataset, "_BATCH_ROWS", batch_rows)
        rng = np.random.default_rng(3)
        n = 600
        table = np.zeros(n, dataset._RAW_DTYPE)
        table["distance_m"] = rng.permutation(n) + 1.5
        table["height_m"] = rng.permutation(n) / 8 + 0.125
        table["tx_beam_idx"], table["rx_beam_idx"] = rng.integers(0, 20, (2, n))
        table["trial_idx"] = rng.integers(0, 15, n)
        table["path_loss_db"] = rng.uniform(80, 120, n)
        table = np.concatenate([table, table[:40]])  # second trials of 40 pairs
        table["trial_idx"][n:] = (table["trial_idx"][:40] + 1) % 15
        expected = {}
        for d, h, tx, rx, trial, pl in sorted(table.tolist(), key=lambda row: row[:5]):
            expected.setdefault((d, h, tx, rx), []).append(pl)
        assert aggregate_trials(table) == [BeamScanRecord(*key, sum(pl) / len(pl), len(pl))
                                           for key, pl in sorted(expected.items())]


def reference_aggregate(rows):
    """`aggregate_trials` of `rows`, (d, h, tx, rx, trial, pl) tuples, as (d, h, tx, rx,
    mean.hex(), count) tuples in pure Python: each pair's trials summed in trial order.
    Errors are the same ValueError: the first repeated trial, else the first mean that
    is not finite, in (point, tx, rx, trial) order."""
    pairs = {}
    for d, h, tx, rx, trial, pl in rows:
        pairs.setdefault((d, h, tx, rx), {}).setdefault(trial, []).append(pl)
    for (d, h, tx, rx), trials in sorted(pairs.items()):
        for trial, values in sorted(trials.items()):
            if len(values) > 1:
                raise ValueError(f"duplicate trial {trial} of beam pair ({tx}, {rx}) "
                                 f"at (d={d} m, h={h} m)")
    out = []
    for (d, h, tx, rx), trials in sorted(pairs.items()):
        total = 0.0
        for _, (pl,) in sorted(trials.items()):
            total += pl
        mean = total / len(trials)
        if not math.isfinite(mean):
            raise ValueError(f"mean path loss of beam pair ({tx}, {rx}) at (d={d} m, h={h} m) "
                             "is not finite")
        out.append((d, h, tx, rx, mean.hex(), len(trials)))
    return out


def outcome(aggregate, rows):
    """The records of `aggregate(rows)` as `reference_aggregate` gives them, or its
    ValueError's message."""
    try:
        return aggregate(rows)
    except ValueError as exc:
        return str(exc)


def aggregated(rows, batch_rows):
    """`aggregate_trials` of `rows`, averaged in batches of at most `batch_rows` rows
    (or of one larger point)."""
    with mock.patch.object(dataset, "_BATCH_ROWS", batch_rows):
        records = aggregate_trials(np.array(rows, dataset._RAW_DTYPE))
    return [(r.distance_m, r.height_m, r.tx_beam_idx, r.rx_beam_idx, r.path_loss_db.hex(),
             r.trial_count) for r in records]


@st.composite
def raw_rows(draw):
    """Shuffled raw rows of a few points: trials missing, points split into runs, and
    at times a repeated trial or a pair whose trials overflow."""
    points = draw(st.lists(st.tuples(st.sampled_from([1.5, 6.0, 12.0, 40.0]),
                                     st.sampled_from([6.0, 15.0])), min_size=1, max_size=4,
                           unique=True))
    keys = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from([0, 19]),
                                   st.sampled_from([0, 2]), st.sampled_from([0, 1, 2, 14])),
                         min_size=2, max_size=40, unique=True))
    loss = st.one_of(st.floats(60.0, 140.0), st.sampled_from([1e308, 1.5e308, -1e308]))
    rows = [(*point, tx, rx, trial, draw(loss)) for point, tx, rx, trial in keys]
    if draw(st.booleans()):  # a trial or two repeated, with another loss
        repeats = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2))
        rows += [(*row[:5], draw(loss)) for row in repeats]
    return draw(st.permutations(rows))


class TestAggregateTrialsInBatches:
    @settings(max_examples=300, deadline=None)
    @given(rows=raw_rows(), batch_rows=st.sampled_from([1, 2, 3, 5, 8, dataset._BATCH_ROWS]))
    def test_matches_the_reference(self, rows, batch_rows):
        assert outcome(lambda r: aggregated(r, batch_rows), rows) \
            == outcome(reference_aggregate, rows)

    @pytest.mark.parametrize("batch_rows", [1, 4, dataset._BATCH_ROWS])
    def test_empty_table(self, batch_rows):
        assert aggregated([], batch_rows) == []

    def test_point_larger_than_a_batch(self):
        # 60 rows at 6 m in three runs, and 3 rows at 12 m in two: batches of at most
        # 4 rows hold one whole point each
        near = [(6.0, 12.0, tx, 0, t, 80.0 + tx + t / 3) for tx in range(4) for t in range(15)]
        far = [(12.0, 12.0, 0, 1, t, 90.0 + t) for t in range(3)]
        rows = near[:20] + far[:2] + near[20:45] + far[2:] + near[45:]
        records = aggregated(rows, 4)
        assert records == reference_aggregate(rows)
        assert [r[5] for r in records] == [15, 15, 15, 15, 3]

    def test_repeated_trial_comes_before_an_earlier_overflow(self):
        # in batches of 1 or 2 rows the overflowing pair is in the first batch and
        # the repeated trial in the last, yet the repeat is reported, as in one batch
        rows = [(6.0, 12.0, 0, 0, 0, 1e308), (6.0, 12.0, 0, 0, 1, 1e308),
                (9.0, 12.0, 0, 0, 0, 90.0), (12.0, 12.0, 3, 4, 2, 90.0),
                (12.0, 12.0, 3, 4, 2, 91.0)]
        message = r"^duplicate trial 2 of beam pair \(3, 4\) at \(d=12\.0 m, h=12\.0 m\)$"
        for batch_rows in (1, 2, dataset._BATCH_ROWS):
            with pytest.raises(ValueError, match=message):
                aggregated(rows, batch_rows)
        with pytest.raises(ValueError, match=r"^mean path loss of beam pair \(0, 0\) "
                                             r"at \(d=6\.0 m, h=12\.0 m\) is not finite$"):
            aggregated(rows[:-1], 1)

    @pytest.mark.parametrize("last, message", [
        ((12.0, 12.0, -1, 0, 0, math.inf),
         r"tx_beam_idx must be >= 0 and <= 19 \(the 20 x 20 scan window\), got -1"),
        ((6.0, math.nan, 0, 0, 0, 90.0), r"height_m must be finite, got nan"),
    ])
    def test_range_error_is_the_whole_tables_and_comes_first(self, last, message):
        # batches check the columns they gather, yet the error is the whole table's first
        # column out of range, at its extreme, and it comes before the repeated trial of an
        # earlier batch; a NaN height opens a run of its own, whose first row is checked
        rows = [(6.0, 12.0, 0, 0, 1, 90.0), (6.0, 12.0, 0, 0, 1, 91.0),
                (9.0, 12.0, 20, 0, 15, 90.0), last]
        for batch_rows in (1, 2, dataset._BATCH_ROWS):
            with pytest.raises(ValueError, match=f"^{message}$"):
                aggregated(rows, batch_rows)

    def test_aggregated_table_names_the_raw_columns(self, fig2_points):
        with pytest.raises(ValueError, match=r"^aggregate_trials expects the raw-trial schema "
                                             r"\(distance_m,height_m,tx_beam_idx,rx_beam_idx,"
                                             r"trial_idx,path_loss_db\)$"):
            aggregate_trials(fig2_points)

    def test_float_trial_index_column_is_rejected(self):
        # an f8 trial_idx of 0.5 failed with numpy's UFuncTypeError
        dtype = [(n, "f8" if n == "trial_idx" else dataset._RAW_DTYPE[n]) for n in RAW_COLUMNS]
        table = np.array([(6.0, 12.0, 0, 0, 0.5, 90.0)], dtype)
        with pytest.raises(ValueError, match=r"^aggregate_trials expects an integer trial_idx "
                                             r"field, got dtype float64$"):
            aggregate_trials(table)


class TestToFitPoints:
    def test_height_filter(self, fig2_points):
        assert len(to_fit_points(fig2_points, height=12.0)[0]) == 12
        assert len(to_fit_points(fig2_points, height="all")[0]) == 27

    def test_rank_filter(self, fig2_points):
        assert len(to_fit_points(fig2_points, rank=None)[0]) == 27
        points = load_rank_points(2)
        assert len(to_fit_points(points, rank=2)[0]) == 27
        with pytest.raises(EmptySelectionError):
            to_fit_points(points, rank=None)
        # the best pair is rank 1, so 0 names no rank
        with pytest.raises(ValueError, match="rank must be >= 1 and <= 400, got 0"):
            to_fit_points(fig2_points, rank=0)

    def test_rank_must_be_whole(self, fig2_points):
        # rank=1.5 selected rank 1
        points = np.concatenate([fig2_points, load_rank_points(2)])
        expected = to_fit_points(points, rank=2)
        for whole in (np.int64(2), 2.0):
            assert [c.tolist() for c in to_fit_points(points, rank=whole)] \
                == [c.tolist() for c in expected]
        for bad in (1.5, 2.5):
            with pytest.raises(ValueError, match=rf"^rank must be a whole number, got {bad}$"):
                to_fit_points(points, rank=bad)

    def test_raw_table_names_the_aggregated_columns(self):
        # it returned every trial as a point
        with pytest.raises(ValueError, match=r"^to_fit_points expects the aggregated schema "
                                             r"\(distance_m,height_m,rank,path_loss_db\); "
                                             r"aggregate raw trials first$"):
            to_fit_points(load_csv(raw_csv("6.0,12.0,0,0,0,90.0")))

    def test_float_rank_column_is_rejected(self):
        # it reported an empty selection
        with pytest.raises(ValueError, match=r"^to_fit_points expects an integer rank field, "
                                             r"got dtype float64$"):
            to_fit_points(all_f8_rank_2_5(), rank=2)

    def test_empty_selection(self, fig2_points):
        with pytest.raises(EmptySelectionError, match="height=99"):
            to_fit_points(fig2_points, height=99.0)

    def test_order_preserved(self, fig2_points):
        distances, path_loss = to_fit_points(fig2_points, height=6.0)
        assert distances.tolist() == [6.0, 12.0, 18.0, 24.0, 30.0, 36.0, 40.0]
        assert path_loss.tolist() == fig2_points["path_loss_db"][:7].tolist()


class TestRoundTrip:
    def test_save_and_reload_is_identical(self, fig2_points, tmp_path):
        path = tmp_path / "out.csv"
        save_aggregated_csv(fig2_points, path)
        assert load_csv(path).tolist() == fig2_points.tolist()

    def test_stream_round_trip_with_ranks(self):
        points = [
            AggregatedPoint(6.123456789012345, 12.0, 90.98765432109876, rank=4),
            AggregatedPoint(9.0, 15.0, 88.5, rank=None),
        ]
        buffer = io.StringIO()
        save_aggregated_csv(points, buffer)
        assert buffer.getvalue().splitlines()[1:] == ["6.123456789012345,12.0,4,90.98765432109876",
                                                      "9.0,15.0,,88.5"]
        assert load_csv(io.StringIO(buffer.getvalue())).tolist() == points

    @pytest.mark.parametrize("rows, message", [
        ([(6.0, 12.0, 1, math.nan)], "path_loss_db must be finite, got nan"),
        ([(6.0, 12.0, 0, 85.5)], "rank must be >= 1 and <= 400, got 0"),
        ([(6.0, 12.0, 1, 85.5), (-6.0, 12.0, 2, 90.0)], "distance_m must be > 0 m, got -6.0 m"),
    ])
    @pytest.mark.parametrize("as_table", [True, False], ids=["table", "rows"])
    def test_what_load_csv_rejects_is_not_written(self, tmp_path, rows, message, as_table):
        # a NaN was written as nan and a rank 0 as 0, each a file load_csv rejects
        points = np.array(rows, dataset._AGGREGATED_DTYPE) if as_table else rows
        dest = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            save_aggregated_csv(points, dest)
        assert not dest.exists()

    def test_raw_table_names_the_aggregated_columns(self, tmp_path):
        # it failed with numpy's TypeError, which names no schema
        dest = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^save_aggregated_csv expects the aggregated schema "
                                             r"\(distance_m,height_m,rank,path_loss_db\); "
                                             r"aggregate raw trials first$"):
            save_aggregated_csv(load_csv(raw_csv("6.0,12.0,0,0,0,90.0")), dest)
        assert not dest.exists()

    def test_float_rank_column_is_not_written(self, tmp_path):
        # rank 2.5 was written as 2.5, which load_csv rejects
        dest = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^save_aggregated_csv expects an integer rank "
                                             r"field, got dtype float64$"):
            save_aggregated_csv(all_f8_rank_2_5(), dest)
        assert not dest.exists()

    def test_bytes_are_what_csv_writer_writes(self, tmp_path):
        # the default dialect's \r\n lines; no cell, a number or a blank, is quoted
        rows = [(6.0, 12.0, 1, 85.5), (5e-324, 1e308, 400, -0.0), (0.1 + 0.2, 15.0, 2, -1e-300)]
        expected = io.StringIO()
        csv.writer(expected).writerows([dataset.AGGREGATED_COLUMNS] + [
            (repr(d), repr(h), "" if rank == 1 else rank, repr(pl)) for d, h, rank, pl in rows])
        save_aggregated_csv(np.array(rows, dataset._AGGREGATED_DTYPE), tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode()

    def test_best_pair_is_written_blank(self):
        points = [AggregatedPoint(6.0, 12.0, 85.5, rank=1), AggregatedPoint(9.0, 12.0, 90.25)]
        buffer = io.StringIO()
        save_aggregated_csv(points, buffer)
        assert buffer.getvalue().splitlines()[1:] == ["6.0,12.0,,85.5", "9.0,12.0,,90.25"]
        assert load_csv(io.StringIO(buffer.getvalue())).tolist() == points
