"""Beam-pair ranking and misalignment-loss modeling.

Per measurement point the sounders scan a 20 x 20 window of (TX, RX) beam
pairs; sorting those by measured path loss gives rank 1 = best pair. Fitting
a path-loss law per rank turns suboptimal beam choices into a distance law
whose raised intercept absorbs the lost beamforming gain, and the angular
displacement metric says how far off boresight-best those choices were.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import published
from .fitting import FitPoint, fit_ci, fit_fi
from .pathloss import CiModel, FiModel, mean_pl

BEAM_SPACING_DEG = published.BEAM_SPACING_DEG
SCAN_WINDOW_BEAMS = published.SCAN_WINDOW_BEAMS


@dataclass(frozen=True)
class BeamScanRecord:
    """Trial-averaged path loss of one (tx, rx) beam pair at one point."""

    distance_m: float
    height_m: float
    tx_beam_idx: int
    rx_beam_idx: int
    path_loss_db: float
    trial_count: int = 1

    def __post_init__(self):
        if self.distance_m <= 0 or self.height_m <= 0:
            raise ValueError("distance and height must be positive")
        if not math.isfinite(self.path_loss_db):
            raise ValueError(f"path loss must be finite, got {self.path_loss_db}")


@dataclass(frozen=True)
class BeamPairRanking:
    """Beam pairs at one (distance, height), ascending by path loss.

    `pairs` holds (tx_beam_idx, rx_beam_idx, path_loss_db) tuples; rank 1 is
    `pairs[0]`. Ties are broken by ascending (tx, rx) so the order is
    deterministic.
    """

    distance_m: float
    height_m: float
    pairs: tuple[tuple[int, int, float], ...]

    def __len__(self):
        return len(self.pairs)

    def pair_at(self, rank: int) -> tuple[int, int, float]:
        """1-based access: pair_at(1) is the best beam pair."""
        if not 1 <= rank <= len(self.pairs):
            raise ValueError(
                f"rank {rank} out of range at (d={self.distance_m} m, h={self.height_m} m): "
                f"only {len(self.pairs)} pairs ranked"
            )
        return self.pairs[rank - 1]


def rank_beam_pairs(records: list[BeamScanRecord]) -> BeamPairRanking:
    """Sort one point's beam-scan records ascending by path loss."""
    records = list(records)
    if not records:
        raise ValueError("cannot rank an empty beam scan")
    key = (records[0].distance_m, records[0].height_m)
    seen = set()
    for r in records:
        if (r.distance_m, r.height_m) != key:
            raise ValueError(
                f"mixed measurement points in one scan: {key} and {(r.distance_m, r.height_m)}"
            )
        if not (0 <= r.tx_beam_idx < SCAN_WINDOW_BEAMS and 0 <= r.rx_beam_idx < SCAN_WINDOW_BEAMS):
            raise ValueError(
                f"beam index ({r.tx_beam_idx}, {r.rx_beam_idx}) outside the "
                f"[0, {SCAN_WINDOW_BEAMS}) scan window"
            )
        pair = (r.tx_beam_idx, r.rx_beam_idx)
        if pair in seen:
            raise ValueError(f"duplicate beam pair {pair} at (d={key[0]} m, h={key[1]} m)")
        seen.add(pair)
    ordered = sorted(records, key=lambda r: (r.path_loss_db, r.tx_beam_idx, r.rx_beam_idx))
    return BeamPairRanking(key[0], key[1],
                           tuple((r.tx_beam_idx, r.rx_beam_idx, r.path_loss_db) for r in ordered))


def beam_angle(beam_idx: int, window_size: int = SCAN_WINDOW_BEAMS) -> float:
    """Beam direction in degrees relative to boresight, window centered on 0."""
    if not 0 <= beam_idx < window_size:
        raise ValueError(f"beam index {beam_idx} outside the [0, {window_size}) scan window")
    return (beam_idx - (window_size - 1) / 2.0) * BEAM_SPACING_DEG


def displacement(rankings: list[BeamPairRanking], rank: int) -> float:
    """Mean summed TX+RX angular offset of the rank-i pair from the best pair.

    Offsets are index differences times the beam spacing, so the result does
    not depend on where the scan window sits in the full codebook. Rank 1 is
    0 by definition.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank == 1:
        return 0.0
    if not rankings:
        raise ValueError("no rankings supplied")
    total = 0.0
    for ranking in rankings:
        tx1, rx1, _ = ranking.pair_at(1)
        txi, rxi, _ = ranking.pair_at(rank)
        total += (abs(tx1 - txi) + abs(rx1 - rxi)) * BEAM_SPACING_DEG
    return total / len(rankings)


@dataclass(frozen=True)
class MisalignmentTable:
    """Per-rank mean path-loss models plus each rank's angular displacement.

    Index 0 of both tuples is rank 1 (best pair, close-in model); later ranks
    carry floating-intercept models whose raised intercepts absorb the
    beamforming-gain loss.
    """

    models: tuple[CiModel | FiModel, ...]
    delta_deg: tuple[float, ...]

    def __post_init__(self):
        if len(self.models) != len(self.delta_deg):
            raise ValueError("models and delta_deg must have one entry per rank")
        if not self.models:
            raise ValueError("table must cover at least rank 1")
        if not isinstance(self.models[0], CiModel):
            raise ValueError("rank 1 must carry a close-in model")
        if self.delta_deg[0] != 0.0:
            raise ValueError("rank 1 displacement must be 0")
        if any(d < 0 for d in self.delta_deg):
            raise ValueError("displacements must be nonnegative")

    @property
    def max_rank(self) -> int:
        return len(self.models)

    def model_for(self, rank: int) -> CiModel | FiModel:
        if not 1 <= rank <= self.max_rank:
            raise ValueError(f"rank must be in 1..{self.max_rank}, got {rank}")
        return self.models[rank - 1]


def misalignment_loss(table: MisalignmentTable, rank: int, distance_m: float) -> float:
    """Combined mean path loss and gain reduction of the rank-i pair, in dB."""
    return mean_pl(table.model_for(rank), distance_m)


def fit_misalignment_table(rankings: list[BeamPairRanking], freq_ghz: float,
                           max_rank: int = 9) -> MisalignmentTable:
    """Build a misalignment table from beam-level rankings: a close-in fit of
    the best-pair losses, floating-intercept fits of ranks 2..max_rank, and
    displacement averages over all supplied rankings."""
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    models: list[CiModel | FiModel] = []
    deltas = [0.0]
    best = [FitPoint(r.distance_m, r.pair_at(1)[2]) for r in rankings]
    models.append(fit_ci(best, freq_ghz).model)
    for rank in range(2, max_rank + 1):
        pts = [FitPoint(r.distance_m, r.pair_at(rank)[2]) for r in rankings]
        models.append(fit_fi(pts).model)
        deltas.append(displacement(rankings, rank))
    return MisalignmentTable(tuple(models), tuple(deltas))


# As-fitted parameters of the published per-rank models, recovered at full
# precision from the published fit curves; each pair rounds to the
# two-decimal entries in published.TABLE3_*. Rank 1 is the close-in exponent
# fitted on the bundled best-beam points.
_RANK1_PLE = 2.2514435250769367
_RANK_FI_PARAMS = {
    2: (69.68200128551088, 2.2835034204036724),
    3: (74.09900279025089, 2.074367368243841),
    4: (76.79189146958387, 1.9585623788024151),
    5: (77.2581188638847, 2.014492594452874),
    6: (79.30616261267802, 1.9321172845915673),
    7: (79.34652367419802, 1.9904222635954707),
    8: (79.52060216750448, 2.0152931481817484),
    9: (79.7269721078079, 2.031410658185437),
}


def _published_table() -> MisalignmentTable:
    # published dispersion values are mean-square residuals (dB^2): sqrt
    # turns them into the Gaussian sigma each model carries
    models: list[CiModel | FiModel] = [
        CiModel(published.CARRIER_FREQ_GHZ, _RANK1_PLE,
                math.sqrt(published.TABLE3_SIGMA[1]))
    ]
    for rank in range(2, 10):
        intercept, ple = _RANK_FI_PARAMS[rank]
        models.append(FiModel(intercept, ple, math.sqrt(published.TABLE3_SIGMA[rank])))
    deltas = tuple(published.TABLE3_DELTA_DEG[rank] for rank in range(1, 10))
    return MisalignmentTable(tuple(models), deltas)


PUBLISHED_TABLE = _published_table()
