"""Measurement ingestion and the bundled fixture datasets.

Two canonical CSV schemas. Raw sounder trials:

    distance_m,height_m,tx_beam_idx,rx_beam_idx,trial_idx,path_loss_db

and aggregated per-point path loss (rank empty for best-beam data):

    distance_m,height_m,rank,path_loss_db

The bundled files under ``a2a60/data/`` are in aggregated form; they
transcribe the per-point markers and reference curves of the campaign's
published figures (see README for provenance). Set the ``A2A_DATA_DIR``
environment variable to load fixtures from another directory instead.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import published
from .beams import _BEAM_PAIR_BOUNDS, _POINT_BOUNDS, SCAN_WINDOW_BEAMS, BeamScanRecord
from .fitting import FitPoint
from .pathloss import _bounds, _check_fields, _check_finite

DATA_DIR_ENV = "A2A_DATA_DIR"

RAW_COLUMNS = ("distance_m", "height_m", "tx_beam_idx", "rx_beam_idx",
               "trial_idx", "path_loss_db")
AGGREGATED_COLUMNS = ("distance_m", "height_m", "rank", "path_loss_db")
CURVE_COLUMNS = ("curve", "distance_m", "path_loss_db")

MEASUREMENTS_FILE = "fig2_measurements.csv"
RANK_FILES = {2: "fig6_rank2.csv", 3: "fig6_rank3.csv", 9: "fig6_rank9.csv"}
REFERENCE_CURVES_FILE = "fig5_reference_curves.csv"

_RAW_BOUNDS = _BEAM_PAIR_BOUNDS + (_bounds("trial_idx", ge=0, le=published.TRIALS_PER_SCAN - 1),)


class CsvFormatError(ValueError):
    """Malformed measurement CSV; the message cites the row and column."""


class EmptySelectionError(ValueError):
    """A height/rank filter matched no points."""


@dataclass(frozen=True)
class RawTrialRecord:
    """One sounder trial for one beam pair at one measurement point."""

    distance_m: float
    height_m: float
    tx_beam_idx: int
    rx_beam_idx: int
    trial_idx: int
    path_loss_db: float

    def __post_init__(self):
        _check_fields(self, _RAW_BOUNDS)
        if self.trial_idx % 1:  # aggregate_trials files each trial under its index
            raise ValueError(f"trial_idx must be a whole number, got {self.trial_idx}")


@dataclass(frozen=True)
class AggregatedPoint:
    """Trial-averaged path loss at one (distance, height); `rank` says which
    beam-pair rank the value belongs to, None meaning the best pair."""

    distance_m: float
    height_m: float
    path_loss_db: float
    rank: int | None = None

    def __post_init__(self):
        _check_fields(self, _POINT_BOUNDS)
        if self.rank is not None:
            _check_finite("rank", self.rank, ge=1, le=SCAN_WINDOW_BEAMS ** 2)


def _curve_sample(curve: str, distance_m: float, path_loss_db: float):
    _check_finite("distance_m", distance_m, gt=0.0, unit="m")
    _check_finite("path_loss_db", path_loss_db)
    return curve, distance_m, path_loss_db


# header -> (one text converter per column, constructor of a converted row)
_MEASUREMENT_SCHEMAS = {
    RAW_COLUMNS: ((float, float, int, int, int, float), RawTrialRecord),
    AGGREGATED_COLUMNS: ((float, float, lambda text: int(text) if text.strip() else None, float),
                         lambda d, h, rank, pl: AggregatedPoint(d, h, pl, rank)),
}
_CURVE_SCHEMAS = {CURVE_COLUMNS: ((str, float, float), _curve_sample)}


def _read(source, schemas) -> list:
    """Build one record per non-blank row of a CSV whose header is one of `schemas`.

    `source` is a path or an open stream. Every conversion or range error
    becomes a CsvFormatError naming the row.
    """
    if not hasattr(source, "read"):
        with open(source, newline="", encoding="utf-8") as handle:
            return _read(handle, schemas)
    rows = csv.reader(source)
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
        records = []
        for row_num, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"row {row_num}: expected {len(header)} fields {list(header)}, got {len(row)}"
                )
            try:
                records.append(build(*[convert(text) for convert, text in zip(converters, row)]))
            except ValueError as exc:
                # a constructor error names its field; a converter error needs the column
                reason = _unconvertible(header, converters, row) or exc
                raise CsvFormatError(f"row {row_num}: {reason}") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise CsvFormatError(f"row {rows.line_num}: {exc}") from None
    return records


def _unconvertible(header, converters, row) -> str:
    """Name the first column whose text fails to convert; "" if every field converts."""
    for column, convert, text in zip(header, converters, row):
        try:
            convert(text)
        except ValueError as exc:
            return f"column {column}: {exc}"
    return ""


def load_csv(source) -> list[RawTrialRecord] | list[AggregatedPoint]:
    """Load a measurement CSV (path or open stream), dispatching on header."""
    return _read(source, _MEASUREMENT_SCHEMAS)


def aggregate_trials(records: list[RawTrialRecord]) -> list[BeamScanRecord]:
    """Average trials per (distance, height, tx, rx) beam pair.

    Missing trials are tolerated; `trial_count` reports how many were
    averaged. A trial index repeated within one pair is an error. Exact
    summation keeps the result independent of row order.
    """
    groups: dict = {}  # beam pair -> its path losses, one slot per trial index
    for r in records:
        key = (r.distance_m, r.height_m, r.tx_beam_idx, r.rx_beam_idx)
        trials = groups.get(key)
        if trials is None:
            trials = groups[key] = [None] * published.TRIALS_PER_SCAN
        slot = int(r.trial_idx)
        if trials[slot] is not None:
            raise ValueError(
                f"duplicate trial {r.trial_idx} of beam pair ({r.tx_beam_idx}, {r.rx_beam_idx}) "
                f"at (d={r.distance_m} m, h={r.height_m} m)"
            )
        trials[slot] = r.path_loss_db
    scans = []
    for key, trials in sorted(groups.items()):
        values = [v for v in trials if v is not None]
        scans.append(BeamScanRecord(*key, path_loss_db=math.fsum(values) / len(values),
                                    trial_count=len(values)))
    return scans


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
    curves: dict[str, list[tuple[float, float]]] = {}
    with _open_fixture(name) as handle:
        for curve, distance_m, path_loss_db in _read(handle, _CURVE_SCHEMAS):
            curves.setdefault(curve, []).append((distance_m, path_loss_db))
    return curves
