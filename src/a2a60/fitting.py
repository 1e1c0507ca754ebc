"""Least-squares estimation of path-loss laws from measured points.

The regression variable is 10*log10(distance), so the fitted slope is the
path-loss exponent directly. The close-in fit is a regression through the
origin on the Friis-referenced excess loss; the floating-intercept fit is
ordinary least squares with a free intercept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pathloss import REFERENCE_DISTANCE_M, CiModel, FiModel, _check_finite, friis_reference_pl


class DegenerateFitError(ValueError):
    """The requested fit has no unique least-squares solution."""


@dataclass(frozen=True)
class FitPoint:
    """One (distance, path loss) measurement used for fitting."""

    distance_m: float
    path_loss_db: float

    def __post_init__(self):
        _check_finite("distance_m", self.distance_m, ge=REFERENCE_DISTANCE_M, unit="m")
        _check_finite("path_loss_db", self.path_loss_db)


@dataclass(frozen=True)
class FitReport:
    """Fitted model plus the per-point residuals (measured minus predicted).

    `model.sigma_db` is the root-mean-square residual (divisor N). `mse_db2`
    is its square; published campaign dispersion values follow that
    mean-square convention (see published.py).
    """

    model: CiModel | FiModel
    residuals_db: tuple[float, ...]
    point_count: int

    @property
    def sigma_db(self) -> float:
        return self.model.sigma_db

    @property
    def mse_db2(self) -> float:
        return float(np.mean(np.square(self.residuals_db)))


def _columns(points: list[FitPoint]) -> tuple[np.ndarray, np.ndarray]:
    d = np.array([p.distance_m for p in points], dtype=float)
    pl = np.array([p.path_loss_db for p in points], dtype=float)
    return 10.0 * np.log10(d), pl


def fit_ci(points: list[FitPoint], freq_ghz: float) -> FitReport:
    """Fit the close-in exponent: least squares through the origin on the
    excess loss over the 1 m Friis reference."""
    points = list(points)
    if not points:
        raise DegenerateFitError("cannot fit an empty point set")
    x, pl = _columns(points)
    y = pl - friis_reference_pl(freq_ghz)
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise DegenerateFitError(
            "all points lie at the 1 m reference distance; the exponent is unconstrained"
        )
    ple = float(np.dot(x, y) / sxx)
    resid = y - ple * x
    sigma = float(np.sqrt(np.mean(resid**2)))
    return FitReport(CiModel(freq_ghz, ple, sigma), tuple(resid.tolist()), len(points))


def fit_fi(points: list[FitPoint]) -> FitReport:
    """Fit intercept and exponent by ordinary least squares on log-distance."""
    points = list(points)
    if len(points) < 2 or np.unique([p.distance_m for p in points]).size < 2:
        raise DegenerateFitError("need at least two points at two distinct distances")
    x, pl = _columns(points)
    ple, intercept = np.polyfit(x, pl, 1)
    resid = pl - (intercept + ple * x)
    sigma = float(np.sqrt(np.mean(resid**2)))
    return FitReport(
        FiModel(float(intercept), float(ple), sigma), tuple(resid.tolist()), len(points)
    )


def fit_grouped(points, kind: str, freq_ghz: float | None = None) -> dict:
    """Fit each group independently; `points` is an iterable of
    (FitPoint, group_key) pairs and `kind` is "ci" or "fi".

    Groups with degenerate data are not dropped: a single error is raised
    naming every offending group key.
    """
    if kind not in ("ci", "fi"):
        raise ValueError(f'fit kind must be "ci" or "fi", got {kind!r}')
    if kind == "ci" and freq_ghz is None:
        raise ValueError("the close-in fit needs the carrier frequency")
    groups: dict = {}
    for point, key in points:
        groups.setdefault(key, []).append(point)
    reports, failures = {}, []
    for key, members in groups.items():
        try:
            reports[key] = fit_ci(members, freq_ghz) if kind == "ci" else fit_fi(members)
        except DegenerateFitError as exc:
            failures.append(f"group {key!r}: {exc}")
    if failures:
        raise DegenerateFitError("; ".join(failures))
    return reports
