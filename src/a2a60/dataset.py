"""Measurement ingestion and the bundled fixture datasets.

Two canonical CSV schemas. Raw sounder trials, which load as one numpy
structured array (a field per column, each column range-checked once;
numpy's C parser reads them in bulk, and the row-by-row reader runs only
to locate an error or read text that numpy's parser does not):

    distance_m,height_m,tx_beam_idx,rx_beam_idx,trial_idx,path_loss_db

and aggregated per-point path loss (rank empty for best-beam data), which
loads as `AggregatedPoint` records:

    distance_m,height_m,rank,path_loss_db

The bundled files under ``a2a60/data/`` are in aggregated form; they
transcribe the per-point markers and reference curves of the campaign's
published figures (see README for provenance). Set the ``A2A_DATA_DIR``
environment variable to load fixtures from another directory instead.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .beams import BeamScanRecord, _check_fields
from .fitting import FitPoint

DATA_DIR_ENV = "A2A_DATA_DIR"

RAW_COLUMNS = ("distance_m", "height_m", "tx_beam_idx", "rx_beam_idx",
               "trial_idx", "path_loss_db")
AGGREGATED_COLUMNS = ("distance_m", "height_m", "rank", "path_loss_db")
CURVE_COLUMNS = ("curve", "distance_m", "path_loss_db")

MEASUREMENTS_FILE = "fig2_measurements.csv"
RANK_FILES = {2: "fig6_rank2.csv", 3: "fig6_rank3.csv", 9: "fig6_rank9.csv"}
REFERENCE_CURVES_FILE = "fig5_reference_curves.csv"
_RAW_DTYPE = np.dtype([(name, "i8" if name.endswith("_idx") else "f8") for name in RAW_COLUMNS])
_BULK_CHUNK = 1 << 20  # characters of raw rows per np.loadtxt call
# ASCII separators numpy's parser strips as whitespace but Python's float and int reject
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


class CsvFormatError(ValueError):
    """Malformed measurement CSV; the message cites the row and column."""


class EmptySelectionError(ValueError):
    """A height/rank filter matched no points."""


@dataclass(frozen=True)
class AggregatedPoint:
    """Trial-averaged path loss at one (distance, height); `rank` says which
    beam-pair rank the value belongs to, None meaning the best pair."""

    distance_m: float
    height_m: float
    path_loss_db: float
    rank: int | None = None

    def __post_init__(self):
        _check_fields(vars(self).items())


def _curves(rows, _) -> dict[str, list[tuple[float, float]]]:
    """Reference-curve rows as {curve: [(distance_m, path_loss_db), ...]}."""
    curves: dict[str, list[tuple[float, float]]] = {}
    for curve, distance_m, path_loss_db in rows:
        _check_fields((("distance_m", distance_m), ("path_loss_db", path_loss_db)))
        curves.setdefault(curve, []).append((distance_m, path_loss_db))
    return curves


def _check_columns(table) -> None:
    """Range-check the raw-trial table by column. Each field's valid values
    form an interval, so a column passes if its extremes (NaN among them) do."""
    _check_fields((name, extreme(table[name]).item()) for name in RAW_COLUMNS
                  for extreme in (np.min, np.max) if len(table))


def _raw_table(rows, blank) -> np.ndarray:
    """The raw trials as one structured array; if a column is out of range,
    the first row out of range is found and cited."""
    table = np.fromiter(rows, _RAW_DTYPE)
    try:
        _check_columns(table)
    except ValueError:
        for index, values in enumerate(row.tolist() for row in table):
            try:
                _check_fields(zip(RAW_COLUMNS, values))
            except ValueError as exc:
                row_num = index + 2
                for skipped in blank:
                    row_num += skipped <= row_num
                raise CsvFormatError(f"row {row_num}: {exc}") from None
    return table


def _bulk_raw_table(handle) -> np.ndarray:
    """The raw trials left in `handle`, parsed by numpy's C tokenizer a chunk
    of lines at a time and range-checked by column. Raises ValueError on any
    text the row-by-row reader might reject or read otherwise: a bad value or
    quote, a wrong width, a value out of range, a line past the csv field
    limit, or non-ASCII text (numpy's integer parser takes some non-ASCII
    letters for digits)."""
    limit, chunks = csv.field_size_limit(), []
    while lines := handle.readlines(_BULK_CHUNK):
        text = "".join(lines)
        if (not text.isascii() or max(map(len, lines)) > limit
                or any(char in text for char in _NUMPY_ONLY_SPACE)):
            raise ValueError("left to the row-by-row reader")
        if text.strip("\r\n"):  # numpy warns on a chunk of blank lines alone
            chunks.append(np.loadtxt(lines, delimiter=",", dtype=_RAW_DTYPE, comments=None,
                                     ndmin=1))
    table = np.concatenate(chunks) if chunks else np.empty(0, _RAW_DTYPE)
    _check_columns(table)
    return table


def _loadtxt_is_strict() -> bool:
    """Whether np.loadtxt refuses a float in an integer column, as Python's int
    does; numpy versions from 1.23 on read "1.5" as 1 with a DeprecationWarning
    until that deprecation expired."""
    try:
        np.loadtxt(["1.5"], dtype="i8")
    except ValueError:
        return True
    except DeprecationWarning:  # raised where warnings are errors
        pass
    return False


_BULK_PARSE = _loadtxt_is_strict()


def _position(stream):
    """Where `stream` stands, to read it again from there; None if it cannot
    seek, or cannot tell, as a text file advanced by next() cannot."""
    try:
        return stream.tell() if stream.seekable() else None
    except (AttributeError, OSError, ValueError):
        return None


# header -> (one text converter per column, build(converted rows, numbers of the blank rows))
_MEASUREMENT_SCHEMAS = {
    RAW_COLUMNS: ((float, float, int, int, int, float), _raw_table),
    AGGREGATED_COLUMNS: ((float, float, lambda text: int(text) if text.strip() else None, float),
                         lambda rows, _: [AggregatedPoint(d, h, pl, rank)
                                          for d, h, rank, pl in rows]),
}
_CURVE_SCHEMAS = {CURVE_COLUMNS: ((str, float, float), _curves)}


def _read(source, schemas):
    """Build the result of a CSV whose header is one of `schemas` from its
    non-blank rows, converted as they stream in. `source` is a path or an open
    stream. Every conversion or range error becomes a CsvFormatError naming the row.

    Raw trials from a seekable source are parsed in bulk; if that fails, the
    source is read again from where it started, row by row, which either
    reads it or locates and reports the error.
    """
    if not hasattr(source, "read"):
        with open(source, newline="", encoding="utf-8") as handle:
            return _read(handle, schemas)
    start = _position(source) if _BULK_PARSE else None
    rows = csv.reader(source)
    row_num, row, blank = 1, [], []  # the row being converted; the blank rows skipped

    def converted():
        nonlocal row_num, row
        for row_num, row in enumerate(rows, start=2):
            if row:
                yield tuple([convert(text) for convert, text in zip(converters, row, strict=True)])
            else:
                blank.append(row_num)

    try:
        header = tuple(next(rows, ()))
        if not header:
            raise CsvFormatError("missing header row")
        if header not in schemas:
            missing = min((set(columns) - set(header) for columns in schemas), key=len)
            raise CsvFormatError(
                f"unrecognized header {list(header)}; missing columns: {sorted(missing)}"
            )
        converters, build = schemas[header]
        if build is _raw_table and start is not None:
            try:
                return _bulk_raw_table(source)
            except (ValueError, OverflowError):  # read again, row by row, to find the error
                source.seek(start)
                rows = csv.reader(source)
                next(rows)
        return build(converted(), blank)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise CsvFormatError(f"row {rows.line_num}: {exc}") from None
    except CsvFormatError:
        raise
    except (ValueError, OverflowError) as exc:  # a record's own check names its field;
        # a converter's error, or a raw index past numpy's 64 bits, needs the column
        raise CsvFormatError(f"row {row_num}: {_unconvertible(header, converters, row) or exc}"
                             ) from None


def _unconvertible(header, converters, row) -> str:
    """Why `row` fails to convert: its width, or its first column that does not
    convert or, as a raw index, overflows numpy's 64 bits; "" if it converts."""
    if len(row) != len(header):
        return f"expected {len(header)} fields {list(header)}, got {len(row)}"
    for column, convert, text in zip(header, converters, row):
        try:
            value = convert(text)
        except ValueError as exc:
            return f"column {column}: {exc}"
        if column.endswith("_idx") and not -(1 << 63) <= value < 1 << 63:
            return f"column {column}: {text} exceeds 64 bits"
    return ""


def load_csv(source) -> np.ndarray | list[AggregatedPoint]:
    """Load a measurement CSV (path or open stream), dispatching on header."""
    return _read(source, _MEASUREMENT_SCHEMAS)


def aggregate_trials(trials: np.ndarray) -> list[BeamScanRecord]:
    """Average the raw-trial table from `load_csv` per (distance, height, tx,
    rx) beam pair, in that order.

    Missing trials are tolerated; `trial_count` reports how many were
    averaged. A trial index repeated within one pair is an error. Each pair's
    trials are summed in trial order, so the result does not depend on row
    order.
    """
    keys = [trials[name] for name in RAW_COLUMNS[:5]]  # point, beam pair, trial
    order = np.lexsort(keys[::-1])
    keys = [key[order] for key in keys]
    first = np.ones(len(order), dtype=bool)  # the row opens a beam pair
    first[1:] = np.any([key[1:] != key[:-1] for key in keys[:4]], axis=0)
    repeated = np.flatnonzero(~first[1:] & (keys[4][1:] == keys[4][:-1]))
    if repeated.size:
        d, h, tx, rx, trial = (key[repeated[0] + 1].item() for key in keys)
        raise ValueError(f"duplicate trial {trial} of beam pair ({tx}, {rx}) at (d={d} m, h={h} m)")
    group = np.cumsum(first) - 1
    counts = np.bincount(group)
    means = np.bincount(group, weights=trials["path_loss_db"][order]) / counts
    return [BeamScanRecord(*fields) for fields in zip(
        *(key[first].tolist() for key in keys[:4]), means.tolist(), counts.tolist())]


def to_fit_points(points: list[AggregatedPoint], height="all", rank="all") -> list[FitPoint]:
    """Project aggregated points to (distance, path loss) fit inputs.

    `height` is "all" or a height in meters; `rank` is "all", None (best
    pair) or a rank number. Raises EmptySelectionError if nothing matches.
    """
    selected = []
    for p in points:
        if height != "all" and p.height_m != float(height):
            continue
        if rank != "all" and p.rank != (None if rank is None else int(rank)):
            continue
        selected.append(FitPoint(p.distance_m, p.path_loss_db))
    if not selected:
        raise EmptySelectionError(f"empty selection: no points match height={height}, rank={rank}")
    return selected


def save_aggregated_csv(points: list[AggregatedPoint], dest) -> None:
    """Write aggregated points; repr precision makes a reload bit-identical."""

    def _write(handle):
        writer = csv.writer(handle)
        writer.writerow(AGGREGATED_COLUMNS)
        for p in points:
            writer.writerow([repr(p.distance_m), repr(p.height_m),
                             "" if p.rank is None else p.rank, repr(p.path_loss_db)])

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with open(dest, "w", newline="", encoding="utf-8") as handle:
            _write(handle)


def fixture_path(name: str):
    """Locate a bundled fixture, honoring the A2A_DATA_DIR override."""
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        return Path(root) / name
    return resources.files(__package__) / "data" / name


def _open_fixture(name: str):
    return fixture_path(name).open("r", newline="", encoding="utf-8")


def load_measurement_points(name: str = MEASUREMENTS_FILE) -> list[AggregatedPoint]:
    """Best-beam aggregated points (27 bundled (distance, height) markers)."""
    with _open_fixture(name) as handle:
        return load_csv(handle)


def load_rank_points(rank: int) -> list[AggregatedPoint]:
    """Aggregated points for one beam-pair rank; only ranks 2, 3 and 9 ship
    with the toolkit (other ranks require beam-level data)."""
    if rank not in RANK_FILES:
        raise ValueError(
            f"no bundled fixture for rank {rank}; available: {sorted(RANK_FILES)} "
            "(other ranks require beam-level data)"
        )
    with _open_fixture(RANK_FILES[rank]) as handle:
        return load_csv(handle)


def load_reference_curves(name: str = REFERENCE_CURVES_FILE) -> dict[str, list[tuple[float, float]]]:
    """Bundled reference curves as {curve: [(distance_m, path_loss_db), ...]}."""
    with _open_fixture(name) as handle:
        return _read(handle, _CURVE_SCHEMAS)
