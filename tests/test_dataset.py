import io
import math
import random
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from a2a60 import dataset
from a2a60 import (
    AggregatedPoint,
    CsvFormatError,
    EmptySelectionError,
    aggregate_trials,
    load_csv,
    load_measurement_points,
    load_rank_points,
    load_reference_curves,
    save_aggregated_csv,
    to_fit_points,
)
from a2a60.dataset import (
    DATA_DIR_ENV,
    MEASUREMENTS_FILE,
    RAW_COLUMNS,
    REFERENCE_CURVES_FILE,
    fixture_path,
)

RAW_HEADER = "distance_m,height_m,tx_beam_idx,rx_beam_idx,trial_idx,path_loss_db\n"
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def raw_csv(*rows):
    return io.StringIO(RAW_HEADER + "".join(r + "\n" for r in rows))


class UnseekableStream(io.StringIO):
    """A stream the bulk parse cannot rewind, so it is always read row by row."""

    def seekable(self):
        return False


def load_three_ways(text):
    """`load_csv` of `text` from a path, a seekable stream and an unseekable
    stream: each result, or the CsvFormatError message, in that order."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (path, io.StringIO(text), UnseekableStream(text)):
            try:
                outcomes.append(load_csv(source))
            except CsvFormatError as exc:
                outcomes.append(str(exc))
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


class TestBundledFixtures:
    def test_measurement_fixture_shape(self, fig2_points):
        assert len(fig2_points) == 27
        counts = {}
        for p in fig2_points:
            counts[p.height_m] = counts.get(p.height_m, 0) + 1
            assert p.rank is None
        assert counts == {6.0: 7, 12.0: 12, 15.0: 8}

    @pytest.mark.parametrize("rank", [2, 3, 9])
    def test_rank_fixture_shape(self, rank):
        points = load_rank_points(rank)
        assert len(points) == 27
        assert all(p.rank == rank for p in points)
        counts = {}
        for p in points:
            counts[p.height_m] = counts.get(p.height_m, 0) + 1
        assert counts == {6.0: 7, 12.0: 12, 15.0: 8}

    def test_unbundled_rank_is_an_error(self):
        with pytest.raises(ValueError, match="beam-level"):
            load_rank_points(5)

    def test_reference_curves_load(self):
        curves = load_reference_curves()
        assert set(curves) == {"umi", "uma", "rma", "inoo", "fspl"}

    def test_data_dir_override(self, tmp_path, monkeypatch):
        target = tmp_path / MEASUREMENTS_FILE
        shutil.copy(str(fixture_path(MEASUREMENTS_FILE)), target)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert len(load_measurement_points()) == 27
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "nowhere"))
        with pytest.raises(FileNotFoundError):
            load_measurement_points()

    def test_reference_curve_rows_are_checked(self, tmp_path, monkeypatch):
        (tmp_path / REFERENCE_CURVES_FILE).write_text(
            "curve,distance_m,path_loss_db\numi,6,84.5\n\numi,nan,85.0\n"
        )
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        with pytest.raises(CsvFormatError, match="row 4: distance_m must be finite"):
            load_reference_curves()


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
    runs again only if that fails, and must give the same table or error."""

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
    def test_bulk_parse_declines_what_it_may_misread(self, monkeypatch, row, bulk):
        outcomes = []

        def spy(handle, parse=dataset._bulk_raw_table):
            try:
                table = parse(handle)
            except ValueError:
                outcomes.append("declined")
                raise
            outcomes.append("parsed")
            return table

        monkeypatch.setattr(dataset, "_bulk_raw_table", spy)
        table = load_csv(raw_csv("6,12,0,0,0,90.0", "", row))
        assert outcomes == ["parsed" if bulk else "declined"]
        trial = 10 if "_" in row else 1
        assert table.tolist() == [(6.0, 12.0, 0, 0, 0, 90.0), (6.0, 12.0, 0, 0, trial, 91.0)]

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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tables = load_three_ways(text)
        assert caught == []
        for table in tables:
            assert len(table) == 0
            assert table.dtype == dataset._RAW_DTYPE


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
        assert points[0].rank is None
        assert points[1].rank == 2

    def test_bad_rank_value(self):
        with pytest.raises(CsvFormatError, match=r"row 2.*rank"):
            load_csv(io.StringIO("distance_m,height_m,rank,path_loss_db\n6,12,0,85.5\n"))


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


class TestToFitPoints:
    def test_height_filter(self, fig2_points):
        assert len(to_fit_points(fig2_points, height=12.0)) == 12
        assert len(to_fit_points(fig2_points, height="all")) == 27

    def test_rank_filter(self, fig2_points):
        assert len(to_fit_points(fig2_points, rank=None)) == 27
        points = load_rank_points(2)
        assert len(to_fit_points(points, rank=2)) == 27
        with pytest.raises(EmptySelectionError):
            to_fit_points(points, rank=None)

    def test_empty_selection(self, fig2_points):
        with pytest.raises(EmptySelectionError, match="height=99"):
            to_fit_points(fig2_points, height=99.0)

    def test_order_preserved(self, fig2_points):
        distances = [p.distance_m for p in to_fit_points(fig2_points, height=6.0)]
        assert distances == [6.0, 12.0, 18.0, 24.0, 30.0, 36.0, 40.0]


class TestRoundTrip:
    def test_save_and_reload_is_identical(self, fig2_points, tmp_path):
        path = tmp_path / "out.csv"
        save_aggregated_csv(fig2_points, path)
        assert load_csv(path) == fig2_points

    def test_stream_round_trip_with_ranks(self):
        points = [
            AggregatedPoint(6.123456789012345, 12.0, 90.98765432109876, rank=4),
            AggregatedPoint(9.0, 15.0, 88.5, rank=None),
        ]
        buffer = io.StringIO()
        save_aggregated_csv(points, buffer)
        assert load_csv(io.StringIO(buffer.getvalue())) == points
