"""Beam-pair ranking and misalignment-loss modeling.

Per measurement point the sounders scan a 20 x 20 window of (TX, RX) beam
pairs; sorting those by measured path loss gives rank 1 = best pair. Fitting
a path-loss law per rank turns suboptimal beam choices into a distance law
whose raised intercept absorbs the lost beamforming gain, and each rank's
mean angular offset from the best pair says how far off those choices were.
"""

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import published
from .dataset import BeamScanRecord
from .fitting import fit_ci, fit_fi
from .pathloss import CiModel, FiModel, _check_finite, _Record, mean_pl

BEAM_SPACING_DEG = published.BEAM_SPACING_DEG
SCAN_WINDOW_BEAMS = published.SCAN_WINDOW_BEAMS


@dataclass(init=False, repr=False, eq=False)
class BeamPairRanking(_Record):
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
        _check_finite("rank", rank, ge=1, le=len(self.pairs), whole=True,
                      note=f" (the pairs ranked at d={self.distance_m} m, h={self.height_m} m)")
        return self.pairs[int(rank) - 1]


def rank_beam_pairs(records: list[BeamScanRecord]) -> BeamPairRanking:
    """Sort one point's beam-scan records ascending by path loss."""
    records = list(records)
    if not records:
        raise ValueError("cannot rank an empty beam scan")
    point, pair = attrgetter("distance_m", "height_m"), attrgetter("tx_beam_idx", "rx_beam_idx")
    key = point(records[0])
    if len(set(map(point, records))) > 1 or len(set(map(pair, records))) < len(records):
        seen = set()  # find the first record off the point, or repeating a pair
        for r in records:
            if point(r) != key:
                raise ValueError(f"mixed measurement points in one scan: {key} and {point(r)}")
            if pair(r) in seen:
                raise ValueError(f"duplicate beam pair {pair(r)} at (d={key[0]} m, h={key[1]} m)")
            seen.add(pair(r))
    ordered = sorted(records, key=attrgetter("path_loss_db", "tx_beam_idx", "rx_beam_idx"))
    return BeamPairRanking(*key, tuple(map(attrgetter("tx_beam_idx", "rx_beam_idx",
                                                      "path_loss_db"), ordered)))


def beam_angle(beam_idx: int, window_size: int = SCAN_WINDOW_BEAMS) -> float:
    """Beam direction in degrees relative to boresight, window centered on 0."""
    _check_finite("window_size", window_size, ge=1, whole=True)
    _check_finite("beam_idx", beam_idx, ge=0, le=window_size - 1, whole=True,
                  note=" (the scan window)")
    return (beam_idx - (window_size - 1) / 2.0) * BEAM_SPACING_DEG


@dataclass(init=False, repr=False, eq=False)
class MisalignmentTable(_Record):
    """Per-rank mean path-loss models plus each rank's mean offset from the best pair.

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
            raise ValueError("rank 1 delta_deg must be 0")
        for delta in self.delta_deg:
            _check_finite("delta_deg", delta, ge=0.0, unit="deg")

    @property
    def max_rank(self) -> int:
        return len(self.models)

    def model_for(self, rank: int) -> CiModel | FiModel:
        _check_finite("rank", rank, ge=1, le=self.max_rank, whole=True)
        return self.models[int(rank) - 1]


def misalignment_loss(table: MisalignmentTable, rank: int, distance_m: float) -> float:
    """Combined mean path loss and gain reduction of the rank-i pair, in dB."""
    return mean_pl(table.model_for(rank), distance_m)


def fit_misalignment_table(rankings: list[BeamPairRanking], freq_ghz: float,
                           max_rank: int = 9) -> MisalignmentTable:
    """Build a misalignment table from beam-level rankings: a close-in fit of
    the best-pair losses, floating-intercept fits of ranks 2..max_rank, and each
    rank's delta, the mean summed TX+RX offset of its pair from the best pair.
    Offsets are beam-index differences times the beam spacing, so delta does not
    depend on where the scan window sits in the full codebook."""
    _check_finite("max_rank", max_rank, ge=1, whole=True)
    max_rank = int(max_rank)
    for r in rankings:
        r.pair_at(max_rank)  # a short ranking is an error naming its point
    # (tx, rx, loss) of each ranking's best max_rank pairs, in rank order
    pairs = np.array([r.pairs[:max_rank] for r in rankings], float).reshape(-1, max_rank, 3)
    distances = [r.distance_m for r in rankings]
    models = [fit_ci(distances, pairs[:, 0, 2], freq_ghz).model]
    models += [fit_fi(distances, pairs[:, i, 2]).model for i in range(1, max_rank)]
    deltas = np.abs(pairs[:, :, :2] - pairs[:, :1, :2]).sum(axis=2) * BEAM_SPACING_DEG
    return MisalignmentTable(tuple(models), tuple(deltas.mean(axis=0).tolist()))


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
        CiModel(published.CARRIER_FREQ_GHZ, _RANK1_PLE, math.sqrt(published.TABLE3_SIGMA[1]))]
    for rank in range(2, 10):
        intercept, ple = _RANK_FI_PARAMS[rank]
        models.append(FiModel(intercept, ple, math.sqrt(published.TABLE3_SIGMA[rank])))
    deltas = tuple(published.TABLE3_DELTA_DEG[rank] for rank in range(1, 10))
    return MisalignmentTable(tuple(models), deltas)


PUBLISHED_TABLE = _published_table()
