"""Seeded synthetic raw-trial campaign and its independent numpy reference.

The campaign has the paper's shape: the 27 bundled best-beam points, a
20 x 20 window of (tx, rx) beam pairs per point and 15 trials per pair,
which is 162,000 raw rows. Keep this generator fixed across changes to the
program, so that every benchmark result is measured on the same inputs.

Per point, a seeded best pair carries the bundled best-beam path loss. Every
other pair adds an excess loss of STEP_DB per unit of beam-index offset
(|dtx| + |drx|) from the best pair, plus a fixed per-pair spread. Each
trial adds Gaussian noise. Rows are written in acquisition order: point,
then trial, then pair (tx-major).

The reference (per-pair trial means, per-point rank order, per-rank points
and the rank-1 close-in exponent) is computed here with numpy alone, without
importing the program, so that it can check the program's output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FREQ_GHZ = 60.48
SPEED_OF_LIGHT_M_S = 299_792_458.0
WINDOW = 20
TRIALS = 15
MAX_RANK = 9
STEP_DB = 1.0      # excess loss per unit of beam-index offset
SPREAD_DB = 1.5    # scale of the fixed per-pair spread (half-normal)
NOISE_DB = 1.0     # per-trial Gaussian noise
MIN_GAP_DB = 1e-9  # smallest allowed gap between two means of one point

RAW_HEADER = "distance_m,height_m,tx_beam_idx,rx_beam_idx,trial_idx,path_loss_db"
AGGREGATED_HEADER = "distance_m,height_m,rank,path_loss_db"


@dataclass(frozen=True)
class Campaign:
    """One seeded campaign: its raw trials and the reference results."""

    distance_m: np.ndarray  # (points,)
    height_m: np.ndarray    # (points,)
    trials_db: np.ndarray   # (points, trials, pairs), pair index = tx * WINDOW + rx
    means_db: np.ndarray    # (points, pairs), trial mean per pair
    order: np.ndarray       # (points, pairs), pair indices ascending by (mean, tx, rx)
    rank1_ple: float        # close-in exponent fitted on the best-pair means

    def rank_points(self, rank: int) -> np.ndarray:
        """Path loss of the rank-th best pair at each point."""
        return np.take_along_axis(self.means_db, self.order[:, rank - 1:rank], axis=1)[:, 0]


def load_best_points(fixture: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bundled best-beam points as (distance, height, path loss) arrays."""
    with open(fixture, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return tuple(np.array([float(r[k]) for r in rows])
                 for k in ("distance_m", "height_m", "path_loss_db"))


def generate(seed: int, fixture: Path) -> Campaign:
    distance, height, best_pl = load_best_points(fixture)
    points = distance.size
    rng = np.random.default_rng(seed)
    pair = np.arange(WINDOW * WINDOW)
    tx, rx = pair // WINDOW, pair % WINDOW
    best_tx = rng.integers(0, WINDOW, size=(points, 1))
    best_rx = rng.integers(0, WINDOW, size=(points, 1))
    offset = np.abs(tx - best_tx) + np.abs(rx - best_rx)
    excess = STEP_DB * offset + np.abs(rng.normal(0.0, SPREAD_DB, size=offset.shape))
    excess[offset == 0] = 0.0
    trials = (best_pl[:, None, None] + excess[:, None, :]
              + rng.normal(0.0, NOISE_DB, size=(points, TRIALS, pair.size)))

    means = trials.mean(axis=1)
    order = np.stack([np.lexsort((rx, tx, m)) for m in means])
    gaps = np.diff(np.take_along_axis(means, order, axis=1), axis=1)
    if gaps.min() < MIN_GAP_DB:
        raise ValueError(f"seed {seed} gives two beam pairs with near-equal means")

    x = 10.0 * np.log10(distance)
    friis = 20.0 * math.log10(4.0 * math.pi * FREQ_GHZ * 1e9 / SPEED_OF_LIGHT_M_S)
    best = np.take_along_axis(means, order[:, :1], axis=1)[:, 0]
    ple = float(np.dot(x, best - friis) / np.dot(x, x))
    return Campaign(distance, height, trials, means, order, ple)


def write_raw_csv(campaign: Campaign, dest: Path) -> None:
    """Write the raw trials in acquisition order, at repr precision."""
    pairs = [f"{p // WINDOW},{p % WINDOW}" for p in range(WINDOW * WINDOW)]
    lines = [RAW_HEADER]
    for d, h, point in zip(campaign.distance_m.tolist(), campaign.height_m.tolist(),
                           campaign.trials_db.tolist()):
        for t, values in enumerate(point):
            prefix = f"{d!r},{h!r},"
            suffix = f",{t},"
            lines.extend(prefix + p + suffix + repr(v) for p, v in zip(pairs, values))
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_aggregated_csv(campaign: Campaign, dest: Path) -> None:
    """Write the reference 9-rank aggregated points (rank 1 as the best pair)."""
    lines = [AGGREGATED_HEADER]
    for rank in range(1, MAX_RANK + 1):
        label = "" if rank == 1 else str(rank)
        for d, h, pl in zip(campaign.distance_m.tolist(), campaign.height_m.tolist(),
                            campaign.rank_points(rank).tolist()):
            lines.append(f"{d!r},{h!r},{label},{pl!r}")
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fi_fit(distance_m: np.ndarray, path_loss_db: np.ndarray) -> dict:
    """Closed-form floating-intercept fit, the reference for `fit --model fi`."""
    x = 10.0 * np.log10(distance_m)
    xc = x - x.mean()
    ple = float(np.dot(xc, path_loss_db - path_loss_db.mean()) / np.dot(xc, xc))
    intercept = float(path_loss_db.mean() - ple * x.mean())
    resid = path_loss_db - (intercept + ple * x)
    mse = float(np.mean(resid ** 2))
    return {"points": distance_m.size, "intercept_db": intercept, "ple": ple,
            "sigma_db": math.sqrt(mse), "mse_db2": mse}
