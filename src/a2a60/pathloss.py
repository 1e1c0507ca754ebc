"""Closed-form path-loss laws and shadow-fading sampling.

Two single-slope laws in log-distance: the close-in (CI) form, anchored to
the free-space loss at a 1 m reference distance, and the floating-intercept
(FI) form, where the intercept is a free fit parameter. The CI law is the FI
law with its intercept fixed, so one evaluator, `mean_pl`, serves both. Both
carry a zero-mean Gaussian shadowing term in the dB domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
REFERENCE_DISTANCE_M = 1.0


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_model(model) -> None:
    """Constructor check shared by both laws: finite fields, nonnegative sigma."""
    for field in fields(model):
        _check_finite(field.name, getattr(model, field.name))
    if model.sigma_db < 0:
        raise ValueError(f"shadowing sigma must be nonnegative, got {model.sigma_db} dB")


@dataclass(frozen=True)
class CiModel:
    """Close-in path-loss law: Friis intercept at 1 m plus a fitted exponent.

    The intercept is never stored; it is always recomputed from the carrier
    frequency, which is what anchors the model to free-space physics at the
    reference distance.
    """

    freq_ghz: float
    ple: float
    sigma_db: float = 0.0

    def __post_init__(self):
        _check_model(self)
        if self.freq_ghz <= 0:
            raise ValueError(f"carrier frequency must be positive, got {self.freq_ghz} GHz")

    @property
    def intercept_db(self) -> float:
        """The 1 m Friis loss at this carrier: the FI intercept the CI law fixes."""
        return friis_reference_pl(self.freq_ghz)


@dataclass(frozen=True)
class FiModel:
    """Floating-intercept path-loss law: intercept and exponent both fitted.

    For single-frequency data the frequency-dependent terms of the full
    alpha-beta-gamma family collapse into `intercept_db`.
    """

    intercept_db: float
    ple: float
    sigma_db: float = 0.0

    def __post_init__(self):
        _check_model(self)


def friis_reference_pl(freq_ghz: float) -> float:
    """Free-space path loss at the 1 m reference distance, in dB."""
    _check_finite("freq_ghz", freq_ghz)
    if freq_ghz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {freq_ghz} GHz")
    return 20.0 * math.log10(4.0 * math.pi * freq_ghz * 1e9 / SPEED_OF_LIGHT_M_S)


def mean_pl(model: CiModel | FiModel, distance_m: float) -> float:
    """Mean path loss at `distance_m` (shadowing excluded), in dB, under either
    law: the intercept at 1 m plus 10*ple dB per decade of distance."""
    if not isinstance(model, (CiModel, FiModel)):
        raise TypeError(f"expected CiModel or FiModel, got {type(model).__name__}")
    _check_finite("distance_m", distance_m)
    if distance_m < REFERENCE_DISTANCE_M:
        raise ValueError(
            f"distance {distance_m} m is below the {REFERENCE_DISTANCE_M:g} m reference distance"
        )
    return model.intercept_db + 10.0 * model.ple * math.log10(distance_m)


# the CI law is the FI law with its intercept fixed, so both names are one evaluator
ci_mean_pl = fi_mean_pl = mean_pl


def free_space_pl(freq_ghz: float, distance_m: float) -> float:
    """Friis free-space path loss in dB; valid for any positive distance."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m} m")
    return friis_reference_pl(freq_ghz) + 20.0 * math.log10(distance_m)


def sample_pl(model: CiModel | FiModel, distance_m: float, n: int, seed: int) -> np.ndarray:
    """Draw `n` shadowed path-loss values around the model mean, in dB.

    Shadowing is i.i.d. Gaussian(0, sigma_db^2) from a PCG64 generator owned
    by this call and seeded with `seed`, so identical arguments always return
    bit-identical output.
    """
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n}")
    mu = mean_pl(model, distance_m)
    rng = np.random.default_rng(seed)
    return mu + rng.normal(0.0, model.sigma_db, size=int(n))
