"""Least-squares estimation of path-loss laws from measured points.

The regression variable is 10*log10(distance), so the fitted slope is the
path-loss exponent directly. The close-in fit is a regression through the
origin on the Friis-referenced excess loss; the floating-intercept fit is
ordinary least squares with a free intercept.
"""

from dataclasses import dataclass

import numpy as np

from .pathloss import REFERENCE_DISTANCE_M, CiModel, FiModel, _check_finite, _Record, friis_reference_pl


class DegenerateFitError(ValueError):
    """The requested fit has no unique least-squares solution."""


@dataclass(init=False, repr=False, eq=False)
class FitReport(_Record):
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


def _log_distance(distance_m, path_loss_db) -> tuple[np.ndarray, np.ndarray]:
    """10*log10(distance) and path loss as checked float columns: distances
    from the 1 m reference, finite losses."""
    d = np.asarray(distance_m, dtype=float)
    pl = np.asarray(path_loss_db, dtype=float)
    if d.ndim != 1 or d.shape != pl.shape:
        raise ValueError(f"expected two columns of one length, got shapes {d.shape}, {pl.shape}")
    _check_finite("distance_m", d, ge=REFERENCE_DISTANCE_M, unit="m")
    _check_finite("path_loss_db", pl)
    return 10.0 * np.log10(d), pl


def _rms(resid, *fitted) -> float:
    """The root-mean-square residual, once it and the `fitted` parameters are finite:
    losses that are each finite can still overflow a fit."""
    sigma = float(np.sqrt(np.mean(resid**2)))
    if not np.isfinite([sigma, *fitted]).all():
        raise ValueError("path_loss_db values are too large to fit without overflow")
    return sigma


def fit_ci(distance_m, path_loss_db, freq_ghz: float) -> FitReport:
    """Fit the close-in exponent: least squares through the origin on the
    excess loss over the 1 m Friis reference."""
    x, pl = _log_distance(distance_m, path_loss_db)
    if not x.size:
        raise DegenerateFitError("cannot fit an empty point set")
    intercept = friis_reference_pl(freq_ghz)
    _check_finite(f"the 1 m Friis loss at freq_ghz={freq_ghz}", intercept)
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise DegenerateFitError(
            "all points lie at the 1 m reference distance; the exponent is unconstrained"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails in _rms instead
        y = pl - intercept
        ple = float(np.dot(x, y) / sxx)
        resid = y - ple * x
        sigma = _rms(resid, ple)
    return FitReport(CiModel(freq_ghz, ple, sigma), tuple(resid.tolist()), x.size)


def fit_fi(distance_m, path_loss_db) -> FitReport:
    """Fit intercept and exponent by ordinary least squares on log-distance."""
    x, pl = _log_distance(distance_m, path_loss_db)
    if not x.size or x.min() == x.max():  # np.unique would import numpy.ma on numpy >= 2.3
        raise DegenerateFitError("need at least two points at two distinct distances")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails in _rms instead
        ple, intercept = np.polyfit(x, pl, 1)
        resid = pl - (intercept + ple * x)
        sigma = _rms(resid, ple, intercept)
    return FitReport(FiModel(float(intercept), float(ple), sigma), tuple(resid.tolist()), x.size)
