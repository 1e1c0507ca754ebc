"""TR 38.901 line-of-sight path-loss curves used as terrestrial references.

Covers the UMi street-canyon, UMa, RMa and indoor-open-office LOS laws for
carriers between 0.5 and 100 GHz, plus a linear-in-distance oxygen absorption
add-on for the 60 GHz band. Both link ends are assumed at the same altitude,
so a single distance serves as d2D and d3D.

The default geometries are the usual calibration values (UMi 10/1.5 m,
UMa 25/1.5 m, RMa 35/1.5 m with 5 m average building height, indoor 3/1 m)
and the default oxygen coefficient is 15 dB/km. These defaults are
reverse-engineered: together they reproduce the bundled 60.48 GHz reference
curves to better than 0.01 dB at 6 m (see tests), they are not given
anywhere with the measurement data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The standard's breakpoint formulas fix the propagation constant at 3e8 m/s.
BREAKPOINT_C_M_S = 3.0e8
DEFAULT_OXYGEN_ALPHA_DB_PER_KM = 15.0
ENVIRONMENT_HEIGHT_M = 1.0  # effective environment height h_E for UMi/UMa

SCENARIOS = ("umi", "uma", "rma", "inoo")

# LOS applicability limit on distance, per scenario
_MAX_DISTANCE_M = {"umi": 5_000.0, "uma": 5_000.0, "rma": 10_000.0, "inoo": 150.0}

# (constant, pre-breakpoint slope, breakpoint-correction factor) of the one UMi/UMa law
_UMI_UMA_COEFFICIENTS = {"umi": (32.4, 21.0, 9.5), "uma": (28.0, 22.0, 9.0)}

_DEFAULT_HEIGHTS_M = {  # (BS height, UT height)
    "umi": (10.0, 1.5),
    "uma": (25.0, 1.5),
    "rma": (35.0, 1.5),
    "inoo": (3.0, 1.0),
}


@dataclass(frozen=True)
class ScenarioParams:
    """Deployment geometry for one LOS scenario.

    `avg_building_height_m` only matters for RMa (its LOS law has no street
    width term); `oxygen_alpha_db_per_km` is the linear atmospheric
    absorption applied on top of the standard's loss.
    """

    scenario: str
    bs_height_m: float
    ut_height_m: float
    avg_building_height_m: float = 5.0
    oxygen_alpha_db_per_km: float = DEFAULT_OXYGEN_ALPHA_DB_PER_KM

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        for name in ("bs_height_m", "ut_height_m", "avg_building_height_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.oxygen_alpha_db_per_km < 0:
            raise ValueError("oxygen absorption coefficient must be nonnegative")


def scenario_defaults(scenario: str,
                      oxygen_alpha_db_per_km: float = DEFAULT_OXYGEN_ALPHA_DB_PER_KM,
                      ) -> ScenarioParams:
    """Calibration-default parameters for `scenario` (see module docstring)."""
    key = scenario.lower()
    if key not in _DEFAULT_HEIGHTS_M:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    bs, ut = _DEFAULT_HEIGHTS_M[key]
    return ScenarioParams(key, bs, ut, oxygen_alpha_db_per_km=oxygen_alpha_db_per_km)


def oxygen_loss(distance_m: float, alpha_db_per_km: float) -> float:
    """Distance-proportional atmospheric absorption, in dB."""
    if distance_m < 0:
        raise ValueError(f"distance must be nonnegative, got {distance_m} m")
    if alpha_db_per_km < 0:
        raise ValueError(f"absorption coefficient must be nonnegative, got {alpha_db_per_km}")
    return alpha_db_per_km * distance_m / 1000.0


def _pl_umi_uma(params, freq_ghz, d):
    const, slope, bp_coeff = _UMI_UMA_COEFFICIENTS[params.scenario]
    h_bs = params.bs_height_m - ENVIRONMENT_HEIGHT_M
    h_ut = params.ut_height_m - ENVIRONMENT_HEIGHT_M
    if h_bs <= 0 or h_ut <= 0:
        raise ValueError(
            f"antenna heights must exceed the {ENVIRONMENT_HEIGHT_M:g} m environment height"
        )
    d_bp = 4.0 * h_bs * h_ut * freq_ghz * 1e9 / BREAKPOINT_C_M_S
    if d <= d_bp:
        return const + slope * math.log10(d) + 20.0 * math.log10(freq_ghz)
    return (const + 40.0 * math.log10(d) + 20.0 * math.log10(freq_ghz)
            - bp_coeff * math.log10(d_bp ** 2 + (params.bs_height_m - params.ut_height_m) ** 2))


def _pl_rma(params, freq_ghz, d):
    h = params.avg_building_height_m

    def before_breakpoint(dd):
        return (20.0 * math.log10(40.0 * math.pi * dd * freq_ghz / 3.0)
                + min(0.03 * h**1.72, 10.0) * math.log10(dd)
                - min(0.044 * h**1.72, 14.77)
                + 0.002 * math.log10(h) * dd)

    d_bp = (2.0 * math.pi * params.bs_height_m * params.ut_height_m
            * freq_ghz * 1e9 / BREAKPOINT_C_M_S)
    if d <= d_bp:
        return before_breakpoint(d)
    return before_breakpoint(d_bp) + 40.0 * math.log10(d / d_bp)


def _pl_inoo(params, freq_ghz, d):
    return 32.4 + 17.3 * math.log10(d) + 20.0 * math.log10(freq_ghz)


_DISPATCH = {"umi": _pl_umi_uma, "uma": _pl_umi_uma, "rma": _pl_rma, "inoo": _pl_inoo}


def pl_3gpp_los(params: ScenarioParams, freq_ghz: float, distance_m: float) -> float:
    """LOS path loss for the scenario, plus the oxygen term, in dB."""
    if freq_ghz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {freq_ghz} GHz")
    if distance_m < 1.0:
        raise ValueError(f"distance {distance_m} m is below the 1 m model floor")
    limit = _MAX_DISTANCE_M[params.scenario]
    if distance_m > limit:
        raise ValueError(
            f"distance {distance_m} m exceeds the {params.scenario} LOS range (max {limit:g} m)"
        )
    bare = _DISPATCH[params.scenario](params, freq_ghz, distance_m)
    return bare + oxygen_loss(distance_m, params.oxygen_alpha_db_per_km)
