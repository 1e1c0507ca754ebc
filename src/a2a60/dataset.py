"""Measurement ingestion and the bundled fixture datasets.

Two canonical CSV schemas, each of which loads as one numpy structured
array with a field per column, each column range-checked once. Raw sounder
trials (numpy's C parser reads them in bulk, and the row-by-row reader runs
only to locate an error or read text that numpy's parser does not):

    distance_m,height_m,tx_beam_idx,rx_beam_idx,trial_idx,path_loss_db

and aggregated per-point path loss (rank empty or 1 for best-beam data,
which the table holds as rank 1):

    distance_m,height_m,rank,path_loss_db

The bundled files under ``a2a60/data/`` are in aggregated form; they
transcribe the per-point markers and reference curves of the campaign's
published figures (see README for provenance). Set the ``A2A_DATA_DIR``
environment variable to load fixtures from another directory instead.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from collections import deque
from contextlib import nullcontext
from importlib import resources
from itertools import repeat
from pathlib import Path

import numpy as np

from .beams import _FIELD_RANGES, BeamScanRecord, _check_fields

DATA_DIR_ENV = "A2A_DATA_DIR"

RAW_COLUMNS = ("distance_m", "height_m", "tx_beam_idx", "rx_beam_idx",
               "trial_idx", "path_loss_db")
AGGREGATED_COLUMNS = ("distance_m", "height_m", "rank", "path_loss_db")
CURVE_COLUMNS = ("curve", "distance_m", "path_loss_db")

MEASUREMENTS_FILE = "fig2_measurements.csv"
RANK_FILES = {2: "fig6_rank2.csv", 3: "fig6_rank3.csv", 9: "fig6_rank9.csv"}
REFERENCE_CURVES_FILE = "fig5_reference_curves.csv"
_RAW_DTYPE = np.dtype([(name, "i8" if name.endswith("_idx") else "f8") for name in RAW_COLUMNS])
_AGGREGATED_DTYPE = np.dtype([(name, "i8" if name == "rank" else "f8")
                              for name in AGGREGATED_COLUMNS])
_CURVE_DTYPE = np.dtype([(name, object if name == "curve" else "f8") for name in CURVE_COLUMNS])
# the points an int64 key of aggregate_trials tells apart, at one value per trial of a pair
_MAX_POINTS = ((1 << 63) - 1) // math.prod(_FIELD_RANGES[n]["le"] + 1 for n in RAW_COLUMNS[2:5])
_BULK_CHUNK = 1 << 18  # characters per read of the bulk parse's first pass
# ASCII separators numpy's parser strips as whitespace but Python's float and int reject
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


class CsvFormatError(ValueError):
    """Malformed CSV; the message cites the row and column, or says the text is not UTF-8."""


class EmptySelectionError(ValueError):
    """A height/rank filter matched no points."""


def AggregatedPoint(distance_m: float, height_m: float, path_loss_db: float,
                    rank: int | None = None) -> tuple:
    """One checked row of an aggregated table, in its column order: the trial-averaged
    path loss at one (distance, height) of beam-pair `rank`, None (the best pair) held as 1."""
    rank = 1 if rank is None else rank
    _check_fields((("distance_m", distance_m), ("height_m", height_m),
                   ("path_loss_db", path_loss_db), ("rank", rank)))
    return (distance_m, height_m, rank, path_loss_db)


def _rank(text: str) -> int:
    """A rank cell: blank, the best pair, reads as 1."""
    return int(text) if text.strip() else 1


def _table(rows, blank, dtype) -> np.ndarray:
    """The rows as one structured array of `dtype`; if a column is out of range,
    the first row out of range is found and cited; curve names have no range.
    `rows` is a `_converted` generator, which names the row of an integer numpy
    cannot hold."""
    try:
        table = np.fromiter(rows, dtype)
    except OverflowError as exc:  # an integer past 64 bits, in the row `rows` last yielded
        rows.throw(exc)
    names = [name for name in dtype.names if name != "curve"]
    try:
        _check_fields((name, table[name]) for name in names)
    except ValueError:
        for index, values in enumerate(table[names].tolist()):
            try:
                _check_fields(zip(names, values))
            except ValueError as exc:
                row_num = index + 2
                for skipped in blank:
                    row_num += skipped <= row_num
                raise CsvFormatError(f"row {row_num}: {exc}") from None
    return table


def _bulk_raw_table(handle, path=None) -> np.ndarray:
    """The raw trials of `handle`, which stands at its header, in one np.loadtxt call on
    `path`, the file `handle` reads (numpy reads a file it opens in chunks), or else on
    `handle`'s lines; a first pass counts line breaks, which bound the rows. Raises ValueError
    on any text the row-by-row reader might reject or read otherwise: a bad value or quote,
    a wrong width, a value out of range, a line past the csv field limit, or non-ASCII text
    (numpy's integer parser takes some non-ASCII letters for digits)."""
    start, count, line, limit = handle.tell(), 0, 0, csv.field_size_limit()
    # in reads no longer than the csv field limit, only a line open across reads can pass it
    while text := handle.read(max(min(_BULK_CHUNK, limit), 1)):
        if "\r" in text:  # rare, and slow to count where absent; "\r\n" is one break
            count -= text.count("\r\n")
            text = text.replace("\r", "\n")
        count += text.count("\n")
        first, last = text.find("\n"), text.rfind("\n")  # both -1 if the open line goes on
        if (line + (first if first >= 0 else len(text)) > limit or not text.isascii()
                or any(char in text for char in _NUMPY_ONLY_SPACE)):
            raise ValueError("left to the row-by-row reader")
        line = len(text) - last - 1 if last >= 0 else line + len(text)  # the open line's length
    handle.seek(start)
    # numpy's opener fetches a URL (never an absolute name) and decompresses by suffix
    name = isinstance(path, (str, bytes, os.PathLike)) and os.path.abspath(os.fsdecode(path))
    source = name if name and not name.endswith((".gz", ".bz2", ".xz", ".lzma")) else handle
    with warnings.catch_warnings():  # numpy warns of no rows, and of blank lines given max_rows
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.23 on: "1.5" read as 1
        try:
            table = np.loadtxt(source, delimiter=",", dtype=_RAW_DTYPE, comments=None, ndmin=1,
                               skiprows=1, encoding="utf-8", max_rows=count + 1)
        except DeprecationWarning:  # one from numpy's parser comes as a ValueError's cause
            raise ValueError("left to the row-by-row reader") from None
    if len(table) > count:  # numpy split a line the csv module does not
        raise ValueError("left to the row-by-row reader")
    _check_fields((column, table[column]) for column in RAW_COLUMNS)
    return table


def _position(stream):
    """Where `stream` stands, to read it again from there; None if it cannot
    seek, or cannot tell, as a text file advanced by next() cannot."""
    try:
        return stream.tell() if stream.seekable() else None
    except (AttributeError, OSError, ValueError):
        return None


# header -> (one text converter per column, the table's dtype)
_MEASUREMENT_SCHEMAS = {
    RAW_COLUMNS: ((float, float, int, int, int, float), _RAW_DTYPE),
    AGGREGATED_COLUMNS: ((float, float, _rank, float), _AGGREGATED_DTYPE),
}
_CURVE_SCHEMAS = {CURVE_COLUMNS: ((str, float, float), _CURVE_DTYPE)}


def _read(source, schemas, path=None) -> np.ndarray:
    """The table of a CSV whose header is one of `schemas`, built from its non-blank
    rows, converted as they stream in. `source` is a path or an open stream (of the file
    at `path`, if given). Every conversion or range error becomes a CsvFormatError naming the row.

    Raw trials from a seekable source are parsed in bulk; if that fails, the
    source is read again from where it started, row by row, which either
    reads it or locates and reports the error.
    """
    if not hasattr(source, "read"):
        with _open_utf8(source) as handle:
            return _read(handle, schemas, source)
    start = _position(source)
    rows = csv.reader(source)
    try:
        header = tuple(next(rows, ()))
        if not header:
            raise CsvFormatError("missing header row")
        if header not in schemas:
            missing = min((set(columns) - set(header) for columns in schemas), key=len)
            raise CsvFormatError(f"unrecognized header {list(header)}; "
                                 f"missing columns: {sorted(missing)}")
        converters, dtype = schemas[header]
        if header == RAW_COLUMNS and start is not None:
            try:
                source.seek(start)
                return _bulk_raw_table(source, path)
            except (ValueError, OverflowError):  # read again, row by row, to find the error
                source.seek(start)
                rows = csv.reader(source)
                next(rows)
        blank = []  # the numbers of the blank rows skipped
        return _table(_converted(rows, header, converters, blank), blank, dtype)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise CsvFormatError(f"row {rows.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # decoded in blocks, ahead of the rows: no row to cite
        raise CsvFormatError(f"not {exc.encoding.upper()} text: {exc.reason}") from None


def _converted(rows, header, converters, blank):
    """The non-blank rows, each as a tuple of its converted cells; a row that
    does not convert, or whose OverflowError `_table` throws back in, is a
    CsvFormatError naming it. Blank rows are numbered in `blank`."""
    for row_num, row in enumerate(rows, start=2):
        if not row:
            blank.append(row_num)
            continue
        try:  # integer cells convert by plain int: numpy's OverflowError bounds them for free
            yield tuple([convert(text) for convert, text in zip(converters, row, strict=True)])
        except (ValueError, OverflowError):
            raise CsvFormatError(f"row {row_num}: {_unconvertible(header, converters, row)}") from None


def _unconvertible(header, converters, row) -> str:
    """Why `row` fails: its width, or its first column that does not convert
    or, as an integer, overflows numpy's 64 bits."""
    if len(row) != len(header):
        return f"expected {len(header)} fields {list(header)}, got {len(row)}"
    for column, convert, text in zip(header, converters, row):
        try:
            value = convert(text)
        except ValueError as exc:
            return f"column {column}: {exc}"
        if isinstance(value, int) and not -(1 << 63) <= value < 1 << 63:
            return f"column {column}: {text} exceeds 64 bits"


def load_csv(source) -> np.ndarray:
    """Load a measurement CSV (path or open stream) as a structured array whose
    fields are the columns of its header, which picks the schema."""
    return _read(source, _MEASUREMENT_SCHEMAS)


def aggregate_trials(trials: np.ndarray) -> list[BeamScanRecord]:
    """Average the raw-trial table from `load_csv` per (distance, height, tx,
    rx) beam pair, in that order.

    Missing trials are tolerated; `trial_count` reports how many were
    averaged. A trial index repeated within one pair is an error. Each pair's
    trials are summed in trial order, so the result does not depend on row
    order. Each column, and the column of means (a sum of finite trials can
    overflow), is checked once by its extremes; the records trust those checks.
    """
    _check_fields((name, trials[name]) for name in RAW_COLUMNS)
    opens = np.zeros(len(trials), bool)  # where a run of rows at one (distance, height) opens
    opens[:1] = True
    for name in RAW_COLUMNS[:2]:
        opens[1:] |= trials[name][1:] != trials[name][:-1]
    starts = np.flatnonzero(opens)
    del opens
    key = np.zeros(len(starts), np.int64)  # per run, then per row: its point, tx, rx, trial
    for name in RAW_COLUMNS[:2]:  # counts keep np.unique off its hash path, which imports numpy.ma
        runs = trials[name][starts]
        values = np.unique(runs, return_counts=True)[0]
        key *= values.size
        key += np.searchsorted(values, runs)
    if key.max(initial=0) >= _MAX_POINTS:  # number only the points present, to fit int64
        key = np.unique(key, return_inverse=True)[1]
    key = np.repeat(key, np.diff(starts, append=len(trials)))
    for name in RAW_COLUMNS[2:5]:  # each index is in range: a key repeats only with a trial
        key *= _FIELD_RANGES[name]["le"] + 1
        key += trials[name]
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        d, h, tx, rx, trial, _ = trials[order[repeated[0] + 1]].tolist()
        raise ValueError(f"duplicate trial {trial} of beam pair ({tx}, {rx}) at (d={d} m, h={h} m)")
    key //= _FIELD_RANGES["trial_idx"]["le"] + 1  # now per pair
    first = np.ones(len(key), bool)  # opens a pair
    np.not_equal(key[1:], key[:-1], out=first[1:])
    group = np.cumsum(first, out=key)  # key's buffer, no longer needed
    group -= 1
    counts = np.bincount(group)
    means = np.bincount(group, weights=trials["path_loss_db"][order]) / counts
    pairs = trials[order[first]]
    del key, order, first, group
    overflow = np.flatnonzero(~np.isfinite(means))
    if overflow.size:
        d, h, tx, rx, _, _ = pairs[overflow[0]].tolist()
        raise ValueError(f"mean path loss of beam pair ({tx}, {rx}) at (d={d} m, h={h} m) "
                         "is not finite")
    # checked above, by column: a field of every record at a time, in field order, by its slot
    records = list(map(object.__new__, repeat(BeamScanRecord, len(pairs))))
    for name, column in zip(BeamScanRecord.__slots__, (*(pairs[name] for name in RAW_COLUMNS[:4]),
                                                       means, counts)):
        deque(map(getattr(BeamScanRecord, name).__set__, records, column.tolist()), 0)
    return records


def to_fit_points(points: np.ndarray, height="all", rank="all") -> tuple[np.ndarray, np.ndarray]:
    """The (distance_m, path_loss_db) columns of the aggregated points that
    match, in file order.

    `height` is "all" or a height in meters; `rank` is "all" or a rank
    number, None naming the best pair as 1 does. Raises EmptySelectionError
    if nothing matches.
    """
    selected = np.ones(len(points), dtype=bool)
    if height != "all":
        selected &= points["height_m"] == float(height)
    if rank != "all":
        number = 1 if rank is None else int(rank)
        _check_fields((("rank", number),))
        selected &= points["rank"] == number
    if not selected.any():
        raise EmptySelectionError(f"empty selection: no points match height={height}, rank={rank}")
    return points["distance_m"][selected], points["path_loss_db"][selected]


def save_aggregated_csv(points, dest) -> None:
    """Write an aggregated table, or a list of `AggregatedPoint` rows, the best
    pair's rank as a blank cell; repr precision makes a reload bit-identical."""
    rows = np.asarray(points, _AGGREGATED_DTYPE).tolist()  # Python numbers, whose repr is plain
    with (nullcontext(dest) if hasattr(dest, "write")
          else open(dest, "w", newline="", encoding="utf-8")) as handle:
        writer = csv.writer(handle)
        writer.writerow(AGGREGATED_COLUMNS)
        for d, h, rank, pl in rows:
            writer.writerow([repr(d), repr(h), "" if rank == 1 else rank, repr(pl)])


def fixture_path(name: str):
    """Locate a bundled fixture, honoring the A2A_DATA_DIR override."""
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        return Path(root) / name
    return resources.files(__package__) / "data" / name


def _open_utf8(path):
    """`path` (a file name or a Traversable) as UTF-8 text past a leading byte-order
    mark, as the utf-8-sig codec reads it, without importing that codec's module."""
    binary = path.open("rb") if hasattr(path, "open") else open(path, "rb")
    if binary.read(3) != "\ufeff".encode():
        binary.seek(0)
    return io.TextIOWrapper(binary, encoding="utf-8", newline="")


def load_measurement_points(name: str = MEASUREMENTS_FILE) -> np.ndarray:
    """Best-beam aggregated points (27 bundled (distance, height) markers)."""
    return load_csv(fixture_path(name))


def load_rank_points(rank: int) -> np.ndarray:
    """Aggregated points for one beam-pair rank; only ranks 2, 3 and 9 ship
    with the toolkit (other ranks require beam-level data)."""
    if rank not in RANK_FILES:
        raise ValueError(
            f"no bundled fixture for rank {rank}; available: {sorted(RANK_FILES)} "
            "(other ranks require beam-level data)"
        )
    return load_csv(fixture_path(RANK_FILES[rank]))


def load_reference_curves(name: str = REFERENCE_CURVES_FILE) -> dict[str, list[tuple[float, float]]]:
    """Bundled reference curves as {curve: [(distance_m, path_loss_db), ...]}."""
    table = _read(fixture_path(name), _CURVE_SCHEMAS)
    curves: dict[str, list[tuple[float, float]]] = {}
    for curve, distance_m, path_loss_db in table.tolist():
        curves.setdefault(curve, []).append((distance_m, path_loss_db))
    return curves
