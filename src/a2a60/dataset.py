"""Measurement schemas, ingestion and the bundled fixture datasets.

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

import csv
import io
import os
import warnings
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import published
from .pathloss import _check_finite, _Record

DATA_DIR_ENV = "A2A_DATA_DIR"

RAW_COLUMNS = ("distance_m", "height_m", "tx_beam_idx", "rx_beam_idx",
               "trial_idx", "path_loss_db")
AGGREGATED_COLUMNS = ("distance_m", "height_m", "rank", "path_loss_db")
CURVE_COLUMNS = ("curve", "distance_m", "path_loss_db")

MEASUREMENTS_FILE = "fig2_measurements.csv"
RANK_FILES = {2: "fig6_rank2.csv", 3: "fig6_rank3.csv", 9: "fig6_rank9.csv"}
REFERENCE_CURVES_FILE = "fig5_reference_curves.csv"
_CURVE_DTYPE = np.dtype([(name, object if name == "curve" else "f8") for name in CURVE_COLUMNS])
_BATCH_ROWS = 1 << 13  # aggregate_trials averages whole points, at most this many rows at a time
_WINDOW = published.SCAN_WINDOW_BEAMS
_PAIRS_PER_POINT = _WINDOW ** 2  # the (tx, rx) pairs of one scan, ranked 1 to this
_WINDOW_NOTE = f" (the {_WINDOW} x {_WINDOW} scan window)"
_BULK_CHUNK = 1 << 18  # characters per read of the bulk parse's first pass
# ASCII separators numpy's parser strips as whitespace but Python's float and int reject
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _rank(text: str) -> int:
    """A rank cell: blank, the best pair, reads as 1."""
    return int(text) if text.strip() else 1


# each measurement field's CSV converter (float: an f8 column, else i8) and `_check_finite` range
_FIELDS = {
    "distance_m": (float, dict(gt=0.0, unit="m")),
    "height_m": (float, dict(gt=0.0, unit="m")),
    "path_loss_db": (float, {}),
    "tx_beam_idx": (int, dict(ge=0, le=_WINDOW - 1, whole=True, note=_WINDOW_NOTE)),
    "rx_beam_idx": (int, dict(ge=0, le=_WINDOW - 1, whole=True, note=_WINDOW_NOTE)),
    "trial_idx": (int, dict(ge=0, le=published.TRIALS_PER_SCAN - 1, whole=True)),
    "trial_count": (int, dict(ge=1, le=published.TRIALS_PER_SCAN, whole=True)),
    "rank": (_rank, dict(ge=1, le=_PAIRS_PER_POINT, whole=True)),
}
_RAW_DTYPE, _AGGREGATED_DTYPE = (np.dtype([(n, "f8" if _FIELDS[n][0] is float else "i8") for n in cols])
                                 for cols in (RAW_COLUMNS, AGGREGATED_COLUMNS))
# header -> (one text converter per column, the table's dtype)
_MEASUREMENT_SCHEMAS = {dtype.names: (tuple(_FIELDS[n][0] for n in dtype.names), dtype)
                        for dtype in (_RAW_DTYPE, _AGGREGATED_DTYPE)}
_CURVE_SCHEMAS = {CURVE_COLUMNS: ((str, float, float), _CURVE_DTYPE)}


def _check_fields(items) -> None:
    """Check each (field, value or column) of a measurement against the field's range."""
    for name, value in items:
        _check_finite(name, value, **_FIELDS[name][1])


class CsvFormatError(ValueError):
    """Malformed CSV; the message cites the row and column, or says the text is not UTF-8."""


class EmptySelectionError(ValueError):
    """A height/rank filter matched no points."""


@dataclass(init=False, repr=False, eq=False, slots=True)
class BeamScanRecord(_Record):
    """Trial-averaged path loss of one (tx, rx) beam pair at one point."""

    distance_m: float
    height_m: float
    tx_beam_idx: int
    rx_beam_idx: int
    path_loss_db: float
    trial_count: int = 1

    def __post_init__(self):
        _check_fields((name, getattr(self, name)) for name in self.__slots__)


def AggregatedPoint(distance_m: float, height_m: float, path_loss_db: float,
                    rank: int | None = None) -> tuple:
    """One checked row of an aggregated table, in its column order: the trial-averaged
    path loss at one (distance, height) of beam-pair `rank`, None (the best pair) held as 1."""
    rank = 1 if rank is None else rank
    _check_fields((("distance_m", distance_m), ("height_m", height_m),
                   ("path_loss_db", path_loss_db), ("rank", rank)))
    return (distance_m, height_m, rank, path_loss_db)


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
    """Average the raw-trial table from `load_csv` per (distance, height, tx, rx) beam
    pair, in that order, a batch of whole points at a time. Missing trials are tolerated;
    `trial_count` reports how many were averaged. A trial index repeated within one pair
    is an error, raised before that of any mean that is not finite (a sum of finite trials
    can overflow). Each pair's trials are summed in trial order, whatever the row order."""
    _check_schema(trials, RAW_COLUMNS, "aggregate_trials")

    def checked(name, rows):  # trials[name][rows] in range; if not, the whole table's error
        try:
            _check_fields(((name, column := trials[name][rows]),))
        except ValueError:
            _check_fields((field, trials[field]) for field in RAW_COLUMNS)
            raise
        return column

    d, h = (trials[name] for name in RAW_COLUMNS[:2])  # starts: where each run at one point opens
    starts = np.flatnonzero(np.append(True, (d[1:] != d[:-1]) | (h[1:] != h[:-1]))[:len(trials)])
    # checked at the run starts alone: a run's rows share them, and a NaN opens a run of its own
    d, h = (checked(name, starts) for name in RAW_COLUMNS[:2])
    by_point = np.lexsort((h, d))  # d, then h
    starts, lengths = starts[by_point], np.diff(starts, append=len(trials))[by_point]
    d, h = d[by_point], h[by_point]  # per run, in point order from here on
    opens = np.append(True, (d[1:] != d[:-1]) | (h[1:] != h[:-1]))[:len(starts)]  # a point's first run
    point, heads = np.cumsum(opens) - 1, np.flatnonzero(opens)  # point: 0, 1, ... per run
    shared = [trials[n][starts[heads]].astype(object) for n in RAW_COLUMNS[:2]]  # a float per point
    before = np.cumsum(lengths) - lengths  # the rows before each run
    # per point, its first run and the rows before it; then the end of both
    heads, ahead = np.append(heads, len(opens)), np.append(before[heads], len(trials))
    records, duplicate, overflow, a = [], None, None, 0
    while a < len(heads) - 1:  # a batch: points a to b - 1, and their runs r
        b = max(np.searchsorted(ahead, ahead[a] + _BATCH_ROWS, "right") - 1, a + 1)
        r = slice(heads[a], heads[b])
        rows = np.repeat(starts[r] - before[r], lengths[r])
        rows += np.arange(ahead[a], ahead[b])
        key = np.repeat(point[r] - a, lengths[r])  # per row: its point in the batch, tx, rx, trial
        for name in RAW_COLUMNS[2:5]:  # each index is in range: a key repeats only with a trial
            key *= _FIELDS[name][1]["le"] + 1
            key += checked(name, rows)
        order = np.argsort(key)  # keys repeat only in an error, whose message they share
        key, rows = key[order], rows[order]
        repeated = np.flatnonzero(key[1:] == key[:-1])
        if repeated.size and not duplicate:  # raised once every batch is in range
            d, h, tx, rx, trial, _ = trials[rows[repeated[0] + 1]].tolist()
            duplicate = f"duplicate trial {trial} of beam pair ({tx}, {rx}) at (d={d} m, h={h} m)"
        key //= _FIELDS["trial_idx"][1]["le"] + 1  # now per pair
        first = np.concatenate(([True], key[1:] != key[:-1]))  # opens a pair
        group = np.cumsum(first) - 1
        counts = np.bincount(group)
        means = np.bincount(group, weights=checked("path_loss_db", rows)) / counts
        pairs = rows[first]  # a row of each pair
        bad = np.flatnonzero(~np.isfinite(means))
        if bad.size and not overflow:  # raised once no later batch repeats a trial
            d, h, tx, rx, _, _ = trials[pairs[bad[0]]].tolist()
            overflow = f"mean path loss of beam pair ({tx}, {rx}) at (d={d} m, h={h} m) is not finite"
        place = key[first] // _PAIRS_PER_POINT + a
        # checked above, by column: a field of every record at a time, in field order, by its slot
        batch = list(map(object.__new__, repeat(BeamScanRecord, len(pairs))))
        columns = (*(f[place] for f in shared), *(trials[name][pairs] for name in RAW_COLUMNS[2:4]),
                   means, counts)
        for name, column in zip(BeamScanRecord.__slots__, columns):
            deque(map(getattr(BeamScanRecord, name).__set__, batch, column.tolist()), 0)
        records += batch
        a = b
    if duplicate or overflow:
        raise ValueError(duplicate or overflow)
    return records


def _check_schema(table: np.ndarray, columns, user: str) -> np.ndarray:
    """`table`, if `columns` are its fields, integer ones of an integer dtype; else a ValueError."""
    if table.dtype.names != columns:
        raw = columns == RAW_COLUMNS
        raise ValueError(f"{user} expects the {'raw-trial' if raw else 'aggregated'} schema "
                         f"({','.join(columns)}){'' if raw else '; aggregate raw trials first'}")
    for name in columns:
        if _FIELDS[name][0] is not float and table.dtype[name].kind not in "iu":
            raise ValueError(f"{user} expects an integer {name} field, got dtype {table.dtype[name]}")
    return table


def to_fit_points(points: np.ndarray, height="all", rank="all") -> tuple[np.ndarray, np.ndarray]:
    """The (distance_m, path_loss_db) columns of the aggregated points that
    match, in file order.

    `height` is "all" or a height in meters; `rank` is "all" or a rank
    number, None naming the best pair as 1 does. Raises EmptySelectionError
    if nothing matches.
    """
    _check_schema(points, AGGREGATED_COLUMNS, "to_fit_points")
    selected = np.ones(len(points), dtype=bool)
    for name, value in (("height_m", height), ("rank", 1 if rank is None else rank)):
        if value != "all":
            _check_fields(((name, value),))
            selected &= points[name] == value
    if not selected.any():
        raise EmptySelectionError(f"empty selection: no points match height={height}, rank={rank}")
    return points["distance_m"][selected], points["path_loss_db"][selected]


def save_aggregated_csv(points, dest) -> None:
    """Write an aggregated table, or a list of `AggregatedPoint` rows, the best
    pair's rank as a blank cell; repr precision makes a reload bit-identical.
    A table `load_csv` would reject is a ValueError, raised before `dest` is opened."""
    table = points if isinstance(points, np.ndarray) else np.array(points, _AGGREGATED_DTYPE)
    _check_schema(table, AGGREGATED_COLUMNS, "save_aggregated_csv")
    _check_fields((name, table[name]) for name in AGGREGATED_COLUMNS)
    with (nullcontext(dest) if hasattr(dest, "write")
          else open(dest, "w", newline="", encoding="utf-8")) as handle:
        handle.write(",".join(AGGREGATED_COLUMNS) + "\r\n")  # csv.writer's lines: nothing to quote
        for d, h, rank, pl in table.tolist():  # Python numbers, whose repr is plain
            handle.write(f"{d!r},{h!r},{'' if rank == 1 else rank},{pl!r}\r\n")


def fixture_path(name: str) -> Path:
    """Locate a bundled fixture, in the package's data directory or the A2A_DATA_DIR override."""
    return Path(os.environ.get(DATA_DIR_ENV) or Path(__file__).with_name("data")) / name


def _open_utf8(path):
    """The file `path` as UTF-8 text past a leading byte-order mark, as the
    utf-8-sig codec reads it, without importing that codec's module."""
    binary = open(path, "rb")
    if binary.read(3) != "\ufeff".encode():
        binary.seek(0)
    return io.TextIOWrapper(binary, encoding="utf-8", newline="")


def load_measurement_points() -> np.ndarray:
    """Best-beam aggregated points (27 bundled (distance, height) markers)."""
    return load_csv(fixture_path(MEASUREMENTS_FILE))


def load_rank_points(rank: int) -> np.ndarray:
    """Aggregated points for one beam-pair rank; only ranks 2, 3 and 9 ship
    with the toolkit (other ranks require beam-level data)."""
    if rank not in RANK_FILES:
        raise ValueError(
            f"no bundled fixture for rank {rank}; available: {sorted(RANK_FILES)} "
            "(other ranks require beam-level data)"
        )
    return load_csv(fixture_path(RANK_FILES[rank]))


def load_reference_curves() -> dict[str, list[tuple[float, float]]]:
    """Bundled reference curves as {curve: [(distance_m, path_loss_db), ...]}."""
    table = _read(fixture_path(REFERENCE_CURVES_FILE), _CURVE_SCHEMAS)
    curves: dict[str, list[tuple[float, float]]] = {}
    for curve, distance_m, path_loss_db in table.tolist():
        curves.setdefault(curve, []).append((distance_m, path_loss_db))
    return curves
