import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from a2a60 import (
    PUBLISHED_TABLE,
    BeamPairRanking,
    BeamScanRecord,
    CiModel,
    FiModel,
    MisalignmentTable,
    beam_angle,
    fit_misalignment_table,
    friis_reference_pl,
    misalignment_loss,
    rank_beam_pairs,
)
from a2a60.beams import BEAM_SPACING_DEG
from a2a60 import published


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SCAN_FIELDS = ("distance_m", "height_m", "tx_beam_idx", "rx_beam_idx", "path_loss_db",
               "trial_count")


def record(d, h, tx, rx, pl):
    return BeamScanRecord(d, h, tx, rx, pl)


def synthetic_ranking(d, h, pair_losses):
    """pair_losses: {(tx, rx): path_loss_db}"""
    return rank_beam_pairs([record(d, h, tx, rx, pl) for (tx, rx), pl in pair_losses.items()])


class TestBeamAngle:
    def test_center_of_odd_window_is_boresight(self):
        assert beam_angle(10, window_size=21) == 0.0

    def test_adjacent_beams_differ_by_spacing(self):
        for idx in range(19):
            delta = beam_angle(idx + 1) - beam_angle(idx)
            assert delta == pytest.approx(BEAM_SPACING_DEG, abs=1e-12)

    def test_window_edges(self):
        assert beam_angle(0, window_size=20) == pytest.approx(-13.3, abs=1e-12)
        assert beam_angle(19, window_size=20) == pytest.approx(13.3, abs=1e-12)

    @pytest.mark.parametrize("idx", [-1, 20, 100])
    def test_out_of_window_rejected(self, idx):
        with pytest.raises(ValueError):
            beam_angle(idx, window_size=20)

    @pytest.mark.parametrize("window_size, message", [
        (math.nan, "window_size must be finite, got nan"),
        (math.inf, "window_size must be finite, got inf"),
        (0, "window_size must be >= 1, got 0"),
    ])
    def test_window_size_checked_before_the_index(self, window_size, message):
        # a NaN window blamed beam_idx 0; whole windows only: test_integer_input_must_be_whole
        with pytest.raises(ValueError, match=rf"^{message}$"):
            beam_angle(0, window_size=window_size)


class TestRankBeamPairs:
    def test_two_records(self):
        ranking = synthetic_ranking(6.0, 12.0, {(0, 0): 90.0, (1, 1): 88.0})
        assert [p[2] for p in ranking.pairs] == [88.0, 90.0]
        assert ranking.pair_at(1) == (1, 1, 88.0)

    def test_single_record(self):
        ranking = synthetic_ranking(6.0, 12.0, {(3, 4): 92.5})
        assert len(ranking) == 1
        assert ranking.pair_at(1) == (3, 4, 92.5)

    def test_full_window_against_brute_force_sort(self):
        rng = np.random.default_rng(42)
        records = [
            record(12.0, 6.0, tx, rx, float(90.0 + rng.uniform(0, 20)))
            for tx in range(20)
            for rx in range(20)
        ]
        ranking = rank_beam_pairs(records)
        oracle = sorted(
            ((r.tx_beam_idx, r.rx_beam_idx, r.path_loss_db) for r in records),
            key=lambda t: (t[2], t[0], t[1]),
        )
        assert list(ranking.pairs) == oracle
        assert len(ranking) == 400

    def test_ties_break_on_beam_indices(self):
        # quantized losses force ties; order must be (loss, tx, rx)
        rng = np.random.default_rng(3)
        records = [
            record(12.0, 6.0, tx, rx, 90.0 + round(float(rng.uniform(0, 3))))
            for tx in range(20)
            for rx in range(20)
        ]
        ranking = rank_beam_pairs(records)
        oracle = sorted(
            ((r.tx_beam_idx, r.rx_beam_idx, r.path_loss_db) for r in records),
            key=lambda t: (t[2], t[0], t[1]),
        )
        assert list(ranking.pairs) == oracle

    def test_ascending_by_construction(self):
        rng = np.random.default_rng(11)
        records = [
            record(6.0, 6.0, tx, rx, float(rng.uniform(85, 110)))
            for tx in range(20)
            for rx in range(20)
        ]
        losses = [p[2] for p in rank_beam_pairs(records).pairs]
        assert losses == sorted(losses)

    def test_rejects_empty_mixed_and_duplicates(self):
        with pytest.raises(ValueError):
            rank_beam_pairs([])
        with pytest.raises(ValueError, match="mixed"):
            rank_beam_pairs([record(6.0, 12.0, 0, 0, 90.0), record(9.0, 12.0, 1, 1, 91.0)])
        with pytest.raises(ValueError, match="duplicate"):
            rank_beam_pairs([record(6.0, 12.0, 2, 2, 90.0), record(6.0, 12.0, 2, 2, 91.0)])

    def test_errors_name_the_first_offending_point_or_pair(self):
        # the set checks only detect a mixed or repeated scan; the messages still
        # name the first record that differs from the first one, or repeats a pair
        scan = [record(6.0, 12.0, tx, 0, 90.0 + tx) for tx in range(5)]
        with pytest.raises(ValueError, match=r"^duplicate beam pair \(3, 0\) "
                                             r"at \(d=6\.0 m, h=12\.0 m\)$"):
            rank_beam_pairs(scan + [record(6.0, 12.0, 3, 0, 80.0), record(9.0, 12.0, 1, 1, 91.0)])
        with pytest.raises(ValueError, match=r"^mixed measurement points in one scan: "
                                             r"\(6\.0, 12\.0\) and \(6\.0, 15\.0\)$"):
            rank_beam_pairs(scan + [record(6.0, 15.0, 3, 0, 80.0), record(9.0, 12.0, 1, 1, 91.0)])

    def test_rejects_indices_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            rank_beam_pairs([record(6.0, 12.0, 20, 0, 90.0)])

    def test_record_validation(self):
        with pytest.raises(ValueError):
            BeamScanRecord(-6.0, 12.0, 0, 0, 90.0)
        with pytest.raises(ValueError):
            BeamScanRecord(6.0, 12.0, 0, 0, float("inf"))

    @given(field=st.sampled_from(SCAN_FIELDS), bad=NON_FINITE)
    def test_record_rejects_non_finite_field_by_name(self, field, bad):
        values = dict(zip(SCAN_FIELDS, (6.0, 12.0, 0, 0, 90.0, 15)), **{field: bad})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BeamScanRecord(**values)

    @pytest.mark.parametrize("count", [0, 16])
    def test_trial_count_outside_one_scan(self, count):
        with pytest.raises(ValueError, match="trial_count"):
            BeamScanRecord(6.0, 12.0, 0, 0, 90.0, trial_count=count)


class TestDisplacement:
    """Table 3's delta column, `fit_misalignment_table(...).delta_deg`. Its FI fits
    need two distinct distances, so each ranking is also fitted at twice its
    distance with the same losses; delta does not depend on distance."""

    def base_losses(self, best=(10, 10), second=(11, 10)):
        losses = {best: 80.0, second: 82.0}
        pl = 84.0
        for tx in range(8, 14):
            for rx in range(8, 14):
                if (tx, rx) not in losses:
                    losses[(tx, rx)] = pl
                    pl += 0.25
        return losses

    def deltas(self, points, max_rank=9):
        """delta_deg of the table fitted on a ranking of each (d, h, {(tx, rx): loss})
        at d and at 2d."""
        rankings = [synthetic_ranking(k * d, h, losses) for d, h, losses in points
                    for k in (1, 2)]
        return fit_misalignment_table(rankings, 60.48, max_rank=max_rank).delta_deg

    def test_rank_one_is_zero(self):
        assert self.deltas([(6.0, 6.0, self.base_losses())])[0] == 0.0

    def test_constant_offset_across_rankings(self):
        points = [(d, 6.0, {(5, 5): 80.0 + d, (6, 7): 83.0 + d}) for d in (6.0, 12.0)]
        # rank 2 is (6, 7) everywhere: offset of 1 tx + 2 rx beams
        assert self.deltas(points, max_rank=2)[1] == pytest.approx(3 * BEAM_SPACING_DEG,
                                                                   abs=1e-12)

    def test_adjacent_beam_displacement(self):
        points = [(d, h, self.base_losses()) for d in (6.0, 12.0, 18.0) for h in (6.0, 12.0)]
        assert self.deltas(points, max_rank=2)[1] == pytest.approx(1.4, abs=1e-12)

    def test_single_ranking_multiples_of_spacing(self):
        deltas = self.deltas([(6.0, 6.0, self.base_losses(second=(13, 8)))])
        for rank in range(2, 10):
            value = deltas[rank - 1]
            assert value >= 0.0
            assert value / BEAM_SPACING_DEG == pytest.approx(round(value / BEAM_SPACING_DEG), abs=1e-9)

    def test_invariant_under_uniform_relabeling(self):
        base = self.base_losses()
        shifted = {(tx + 4, rx + 4): pl for (tx, rx), pl in base.items()}
        d1 = self.deltas([(6.0, 6.0, base)])
        d2 = self.deltas([(6.0, 6.0, shifted)])
        for rank in (2, 3, 5):
            assert d1[rank - 1] == pytest.approx(d2[rank - 1], abs=1e-12)

    def test_short_ranking_names_the_key(self):
        with pytest.raises(ValueError, match="33"):
            self.deltas([(33.0, 15.0, {(0, 0): 90.0, (1, 0): 91.0})], max_rank=3)

    def test_invalid_rank_and_empty_input(self):
        with pytest.raises(ValueError):
            self.deltas([(6.0, 6.0, {(0, 0): 90.0})], max_rank=0)
        with pytest.raises(ValueError):
            fit_misalignment_table([], 60.48, max_rank=2)


class TestPublishedTable:
    def test_parameters_round_to_published_values(self):
        assert PUBLISHED_TABLE.max_rank == 9
        rank1 = PUBLISHED_TABLE.model_for(1)
        assert isinstance(rank1, CiModel)
        assert round(rank1.ple, 2) == published.TABLE3_PLE[1]
        for rank in range(2, 10):
            model = PUBLISHED_TABLE.model_for(rank)
            assert isinstance(model, FiModel)
            assert round(model.ple, 2) == published.TABLE3_PLE[rank]
            assert round(model.intercept_db, 2) == published.TABLE3_INTERCEPT_DB[rank]
            assert model.sigma_db == pytest.approx(math.sqrt(published.TABLE3_SIGMA[rank]), abs=1e-12)
        assert PUBLISHED_TABLE.delta_deg == tuple(
            published.TABLE3_DELTA_DEG[r] for r in range(1, 10)
        )

    def test_reproduces_rank_fit_curves(self, rank_curves):
        for rank, samples in rank_curves.items():
            tolerance = 1e-5 if rank == 1 else 1e-9
            for d, expected in samples:
                assert misalignment_loss(PUBLISHED_TABLE, rank, d) == pytest.approx(
                    expected, abs=tolerance
                ), (rank, d)

    def test_best_pair_values(self):
        assert abs(misalignment_loss(PUBLISHED_TABLE, 1, 6.0) - 85.60) <= 0.01
        assert abs(misalignment_loss(PUBLISHED_TABLE, 9, 6.0) - 95.53) <= 0.01
        assert abs(misalignment_loss(PUBLISHED_TABLE, 2, 40.0) - 106.27) <= 0.01

    def test_lower_ranks_never_cross_below_best(self):
        for rank in range(2, 10):
            for d in range(6, 41):
                assert misalignment_loss(PUBLISHED_TABLE, rank, float(d)) > misalignment_loss(
                    PUBLISHED_TABLE, 1, float(d)
                )

    def test_rank_range_enforced(self):
        with pytest.raises(ValueError):
            misalignment_loss(PUBLISHED_TABLE, 0, 6.0)
        with pytest.raises(ValueError):
            misalignment_loss(PUBLISHED_TABLE, 10, 6.0)

    def test_distance_floor_enforced(self):
        with pytest.raises(ValueError):
            misalignment_loss(PUBLISHED_TABLE, 1, 0.5)


class TestTableValidation:
    def test_rank_one_must_be_close_in(self):
        with pytest.raises(ValueError):
            MisalignmentTable((FiModel(70.0, 2.0),), (0.0,))

    def test_rank_one_delta_must_be_zero(self):
        with pytest.raises(ValueError):
            MisalignmentTable((CiModel(60.48, 2.25),), (1.4,))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            MisalignmentTable((CiModel(60.48, 2.25),), (0.0, 1.4))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="^table must cover at least rank 1$"):
            MisalignmentTable((), ())

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            MisalignmentTable((CiModel(60.48, 2.25), FiModel(70.0, 2.0)), (0.0, -1.0))


class TestFitMisalignmentTable:
    def make_rankings(self):
        # rank-i law: close-in with exponent 2.2, plus 2 dB per rank step;
        # best at (2,2), then one extra tx step per rank
        friis = friis_reference_pl(60.48)
        rankings = []
        for d in (6.0, 12.0, 24.0, 40.0):
            losses = {}
            base = friis + 22.0 * math.log10(d)
            for i in range(9):
                losses[(2 + i, 2)] = base + 2.0 * i
            rankings.append(synthetic_ranking(d, 6.0, losses))
        return rankings

    def test_recovers_generating_models(self):
        table = fit_misalignment_table(self.make_rankings(), 60.48, max_rank=3)
        assert table.max_rank == 3
        rank1 = table.model_for(1)
        assert isinstance(rank1, CiModel)
        assert rank1.ple == pytest.approx(2.2, abs=1e-9)
        friis = friis_reference_pl(60.48)
        for rank in (2, 3):
            model = table.model_for(rank)
            assert isinstance(model, FiModel)
            assert model.intercept_db == pytest.approx(friis + 2.0 * (rank - 1), abs=1e-8)
            assert model.ple == pytest.approx(2.2, abs=1e-9)
        assert table.delta_deg[0] == 0.0
        assert table.delta_deg[1] == pytest.approx(1.4, abs=1e-12)
        assert table.delta_deg[2] == pytest.approx(2.8, abs=1e-12)

    def test_requires_enough_ranked_pairs(self):
        rankings = [synthetic_ranking(6.0, 6.0, {(0, 0): 90.0, (1, 0): 92.0}),
                    synthetic_ranking(12.0, 6.0, {(0, 0): 95.0, (1, 0): 97.0})]
        with pytest.raises(ValueError):
            fit_misalignment_table(rankings, 60.48, max_rank=3)

    def test_rejects_bad_max_rank(self):
        with pytest.raises(ValueError):
            fit_misalignment_table(self.make_rankings(), 60.48, max_rank=0)


# two rankings of three pairs, at two distances (the FI fits need two)
WHOLE_RANKINGS = [synthetic_ranking(d, 6.0, {(0, 0): 60.0 + d, (1, 0): 62.0 + d, (2, 1): 65.0 + d})
                  for d in (6.0, 12.0)]


@pytest.mark.parametrize("call, name", [
    (lambda v: WHOLE_RANKINGS[0].pair_at(v), "rank"),
    (lambda v: PUBLISHED_TABLE.model_for(v), "rank"),
    (lambda v: misalignment_loss(PUBLISHED_TABLE, v, 20.0), "rank"),
    (lambda v: fit_misalignment_table(WHOLE_RANKINGS, 60.48, max_rank=v), "max_rank"),
    (lambda v: beam_angle(v), "beam_idx"),
    (lambda v: beam_angle(0, window_size=v), "window_size"),
    (lambda v: BeamScanRecord(6.0, 12.0, v, 0, 90.0), "tx_beam_idx"),
    (lambda v: BeamScanRecord(6.0, 12.0, 0, v, 90.0), "rx_beam_idx"),
    (lambda v: BeamScanRecord(6.0, 12.0, 0, 0, 90.0, v), "trial_count"),
], ids=["pair_at", "model_for", "misalignment_loss", "fit_misalignment_table", "beam_angle",
        "beam_angle_window_size", "record_tx_beam_idx", "record_rx_beam_idx", "record_trial_count"])
def test_integer_input_must_be_whole(call, name):
    # a numpy integer or a whole float gives what the Python int gives; any other
    # number is a ValueError naming the input, not a TypeError or a truncation
    expected = call(2)
    for whole in (np.int64(2), 2.0, np.float64(2.0)):
        assert call(whole) == expected
    for bad in (1.5, 2.5, np.float64(1.25)):
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got {bad}$"):
            call(bad)
