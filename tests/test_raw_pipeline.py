"""The benchmark's raw-trial pipeline at campaign scale, checked against the
independent numpy reference of `bench/campaign.py` (read, never changed)."""

import csv
import importlib.util
import io
import sys
import tracemalloc
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from a2a60 import (
    AggregatedPoint,
    aggregate_trials,
    fit_misalignment_table,
    load_csv,
    rank_beam_pairs,
    save_aggregated_csv,
)
from a2a60 import dataset
from a2a60.beams import BEAM_SPACING_DEG
from a2a60.dataset import MEASUREMENTS_FILE, fixture_path

CAMPAIGN = Path(__file__).resolve().parents[1] / "bench" / "campaign.py"
SEED = 601
TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def campaign():
    spec = importlib.util.spec_from_file_location("bench_campaign", CAMPAIGN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def campaign_raw(campaign, tmp_path_factory):
    """The seeded campaign and the path of its raw-trial CSV."""
    c = campaign.generate(SEED, Path(str(fixture_path(MEASUREMENTS_FILE))))
    raw = tmp_path_factory.mktemp("campaign") / "raw.csv"
    campaign.write_raw_csv(c, raw)
    return c, raw


def test_campaign_pipeline_matches_reference(campaign, campaign_raw, tmp_path):
    c, raw = campaign_raw
    points = c.distance_m.size
    pairs = campaign.WINDOW ** 2

    # the chain of bench/child.py run_pipeline
    trials = load_csv(raw)
    assert len(trials) == points * pairs * campaign.TRIALS == 162_000
    scans = aggregate_trials(trials)
    rankings = [rank_beam_pairs(list(group))
                for _, group in groupby(scans, key=lambda s: (s.distance_m, s.height_m))]
    table = fit_misalignment_table(rankings, campaign.FREQ_GHZ, max_rank=campaign.MAX_RANK)
    saved = [AggregatedPoint(r.distance_m, r.height_m, r.pair_at(rank)[2],
                             None if rank == 1 else rank)
             for rank in range(1, campaign.MAX_RANK + 1) for r in rankings]
    save_aggregated_csv(saved, tmp_path / "aggregated.csv")

    index = {pt: i for i, pt in enumerate(zip(c.distance_m.tolist(), c.height_m.tolist()))}
    assert len(scans) == points * pairs == 10_800
    assert all(s.trial_count == campaign.TRIALS for s in scans)
    flat = [index[(s.distance_m, s.height_m)] * pairs + s.tx_beam_idx * campaign.WINDOW
            + s.rx_beam_idx for s in scans]
    assert sorted(flat) == list(range(points * pairs))
    means = np.array([s.path_loss_db for s in scans])
    assert np.abs(means - c.means_db.ravel()[flat]).max() <= TOLERANCE

    assert len(rankings) == points
    for ranking in rankings:
        order = [tx * campaign.WINDOW + rx for tx, rx, _ in ranking.pairs]
        assert order == c.order[index[(ranking.distance_m, ranking.height_m)]].tolist()
    assert abs(table.model_for(1).ple - c.rank1_ple) <= TOLERANCE
    for rank in range(2, campaign.MAX_RANK + 1):
        model, expected = table.model_for(rank), campaign.fi_fit(c.distance_m, c.rank_points(rank))
        for field in ("intercept_db", "ple", "sigma_db"):
            assert abs(getattr(model, field) - expected[field]) <= TOLERANCE, (rank, field)
    # delta: the summed tx and rx index offsets from the best pair, times the
    # beam spacing, averaged over the points; pair p is (p // WINDOW, p % WINDOW)
    tx, rx = np.divmod(c.order[:, :campaign.MAX_RANK], campaign.WINDOW)
    offsets = np.abs(tx - tx[:, :1]) + np.abs(rx - rx[:, :1])
    delta = (offsets * BEAM_SPACING_DEG).mean(axis=0)
    assert len(table.delta_deg) == campaign.MAX_RANK
    assert np.abs(np.array(table.delta_deg) - delta).max() <= TOLERANCE

    with open(tmp_path / "aggregated.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == points * campaign.MAX_RANK == 243
    for row in rows:
        i = index[(float(row["distance_m"]), float(row["height_m"]))]
        expected = c.rank_points(int(row["rank"] or 1))[i]
        assert abs(float(row["path_loss_db"]) - expected) <= TOLERANCE


@pytest.fixture(scope="module")
def warm(campaign):
    """numpy's lazy imports, made by a small load and aggregation outside any trace."""
    aggregate_trials(load_csv(io.StringIO(campaign.RAW_HEADER + "\n6,12,0,0,0,90.0\n")))


def traced(call, *args):
    """The result of `call(*args)`, and the memory it allocated: what the result
    holds and the peak, its arguments not counted."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_parse_holds_one_table(campaign_raw, warm, monkeypatch):
    # the bulk parse is one np.loadtxt call, its table sized by a count of line
    # breaks (a "\r\n" is one): numpy reads a path in chunks, and a stream a line
    # at a time; on any numpy, as on one that reads "1.5" as 1 the parse is not used
    monkeypatch.setattr(dataset, "_numpy_refuses_float_integers", lambda: True)
    text = campaign_raw[1].read_text(encoding="utf-8")
    with open(campaign_raw[1], newline="", encoding="utf-8") as stream:
        for source in (campaign_raw[1], stream, io.StringIO(text.replace("\n", "\r\n"), "")):
            table, (_, peak) = traced(load_csv, source)
            assert len(table) == 162_000
            assert peak <= 1.10 * table.nbytes, peak / table.nbytes


class UnseekableStream(io.StringIO):
    """A stream the bulk parse cannot rewind, so it is read row by row."""

    def seekable(self):
        return False


def test_row_by_row_reader_loads_the_campaign_as_the_bulk_parse_does(campaign_raw):
    text = campaign_raw[1].read_text(encoding="utf-8")
    table, row_by_row = load_csv(campaign_raw[1]), load_csv(UnseekableStream(text, ""))
    assert table.dtype == row_by_row.dtype
    assert table.tobytes() == row_by_row.tobytes()


def test_aggregation_holds_no_copy_of_the_trials(campaign_raw, warm):
    # whole points are averaged a batch at a time: the peak is what the result
    # holds and one batch's arrays, not a sort key as long as the table
    table = load_csv(campaign_raw[1])
    _, (held, peak) = traced(aggregate_trials, table)
    assert peak <= 0.21 * table.nbytes, peak / table.nbytes
    # 10,800 slotted records of 80 bytes and their mean floats; one distance and
    # one height float per point
    assert held <= 0.17 * table.nbytes, held / table.nbytes


def test_aggregation_peak_is_bounded_by_a_batch(campaign_raw, warm):
    # the campaign and a copy of it at shifted distances: twice the rows and
    # records, and the same peak above what the records hold
    table = load_csv(campaign_raw[1])
    doubled = np.concatenate([table, table])
    doubled["distance_m"][len(table):] += 1000.0
    once, (held, peak) = traced(aggregate_trials, table)
    twice, (twice_held, twice_peak) = traced(aggregate_trials, doubled)
    assert len(twice) == 2 * len(once)
    assert twice_held > 1.9 * held
    assert twice_peak - twice_held <= peak - held + 16 * 1024, (peak - held, twice_peak - twice_held)


@pytest.mark.parametrize("order", ["split point", "shuffled"])
def test_aggregation_does_not_depend_on_row_order(campaign_raw, order):
    # numbered once per run of rows, a point split into runs A, B, A, or a run
    # per row, is still one point, its trials summed in trial order
    c, raw = campaign_raw
    table = load_csv(raw)
    if order == "split point":  # rows are in acquisition order, point by point
        per_point = len(table) // c.distance_m.size
        a, b = np.arange(per_point), np.arange(per_point, 2 * per_point)
        rows = np.concatenate([a[: per_point // 2], b, a[per_point // 2:],
                               np.arange(2 * per_point, len(table))])
    else:
        rows = np.random.default_rng(SEED).permutation(len(table))
    expected, reordered = aggregate_trials(table), aggregate_trials(table[rows])
    assert reordered == expected
    assert [(s.path_loss_db.hex(), s.trial_count) for s in reordered] \
        == [(s.path_loss_db.hex(), s.trial_count) for s in expected]
