"""TR 38.901 line-of-sight path-loss curves used as terrestrial references.

Covers the UMi street-canyon, UMa, RMa and indoor-open-office LOS laws for
carriers between 0.5 and 100 GHz, plus a linear-in-distance oxygen absorption
add-on for the 60 GHz band. Both link ends are assumed at the same altitude,
so a single distance serves as d2D and d3D. `pl_3gpp_los` and `oxygen_loss`
take a float distance or a 1-D array of them.

The default geometries are the usual calibration values (UMi 10/1.5 m,
UMa 25/1.5 m, RMa 35/1.5 m with 5 m average building height, indoor 3/1 m)
and the default oxygen coefficient is 15 dB/km. These defaults are
reverse-engineered: together they reproduce the bundled 60.48 GHz reference
curves to better than 0.01 dB at 6 m (see tests), they are not given
anywhere with the measurement data.
"""

import math
from dataclasses import dataclass

import numpy as np

from .pathloss import _check_finite, _check_result, _log10, _Record

# The standard's breakpoint formulas fix the propagation constant at 3e8 m/s.
BREAKPOINT_C_M_S = 3.0e8
DEFAULT_OXYGEN_ALPHA_DB_PER_KM = 15.0
ENVIRONMENT_HEIGHT_M = 1.0  # effective environment height h_E for UMi/UMa

# (constant, pre-breakpoint slope, breakpoint-correction factor) of the one UMi/UMa law
_UMI_UMA_COEFFICIENTS = {"umi": (32.4, 21.0, 9.5), "uma": (28.0, 22.0, 9.0)}


@dataclass(init=False, repr=False, eq=False)
class ScenarioParams(_Record):
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
            _check_finite(name, getattr(self, name), gt=0.0, unit="m")
        _check_finite("oxygen_alpha_db_per_km", self.oxygen_alpha_db_per_km, ge=0.0)


def scenario_defaults(scenario: str,
                      oxygen_alpha_db_per_km: float = DEFAULT_OXYGEN_ALPHA_DB_PER_KM,
                      ) -> ScenarioParams:
    """Calibration-default parameters for `scenario` (see module docstring)."""
    key = scenario.lower()
    if key not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    return ScenarioParams(key, *_SCENARIOS[key][2], oxygen_alpha_db_per_km=oxygen_alpha_db_per_km)


def oxygen_loss(distance_m, alpha_db_per_km: float):
    """Distance-proportional atmospheric absorption, in dB."""
    _check_finite("distance_m", distance_m, ge=0.0, unit="m")
    _check_finite("alpha_db_per_km", alpha_db_per_km, ge=0.0)
    return alpha_db_per_km * distance_m / 1000.0


def _breakpoint(d, d_bp, near, far):
    """near(d) up to the breakpoint `d_bp` and far(d) past it, a float for a float d;
    `far`, which overflows at absurd heights, runs only if some d is past d_bp."""
    if not np.any(d > d_bp):
        return near(d)
    value = np.where(d > d_bp, far(d), near(d))
    return value if value.ndim else value.item()


def _pl_umi_uma(params, freq_ghz, d):
    const, slope, bp_coeff = _UMI_UMA_COEFFICIENTS[params.scenario]
    for name in ("bs_height_m", "ut_height_m"):
        _check_finite(name, getattr(params, name), gt=ENVIRONMENT_HEIGHT_M, unit="m",
                      note=" (the environment height)")
    h_bs = params.bs_height_m - ENVIRONMENT_HEIGHT_M
    h_ut = params.ut_height_m - ENVIRONMENT_HEIGHT_M
    d_bp = 4.0 * h_bs * h_ut * freq_ghz * 1e9 / BREAKPOINT_C_M_S
    h_diff = params.bs_height_m - params.ut_height_m
    return _breakpoint(d, d_bp, lambda d: const + slope * _log10(d) + 20.0 * math.log10(freq_ghz),
                       lambda d: const + 40.0 * _log10(d) + 20.0 * math.log10(freq_ghz)
                       - bp_coeff * math.log10(d_bp ** 2 + h_diff ** 2))


def _pl_rma(params, freq_ghz, d):
    h = params.avg_building_height_m
    _check_finite("avg_building_height_m", h, le=1e179, unit="m", note=" (where h**1.72 overflows)")

    def before_breakpoint(dd):
        return (20.0 * _log10(40.0 * math.pi * dd * freq_ghz / 3.0)
                + min(0.03 * h**1.72, 10.0) * _log10(dd)
                - min(0.044 * h**1.72, 14.77)
                + 0.002 * math.log10(h) * dd)

    d_bp = (2.0 * math.pi * params.bs_height_m * params.ut_height_m
            * freq_ghz * 1e9 / BREAKPOINT_C_M_S)
    return _breakpoint(d, d_bp, before_breakpoint,
                       lambda d: before_breakpoint(d_bp) + 40.0 * _log10(d / d_bp))


def _pl_inoo(params, freq_ghz, d):
    return 32.4 + 17.3 * _log10(d) + 20.0 * math.log10(freq_ghz)


# per scenario: (its law, its LOS limit on distance, its default (BS height, UT height))
_SCENARIOS = {
    "umi": (_pl_umi_uma, 5_000.0, (10.0, 1.5)),
    "uma": (_pl_umi_uma, 5_000.0, (25.0, 1.5)),
    "rma": (_pl_rma, 10_000.0, (35.0, 1.5)),
    "inoo": (_pl_inoo, 150.0, (3.0, 1.0)),
}
SCENARIOS = tuple(_SCENARIOS)


def pl_3gpp_los(params: ScenarioParams, freq_ghz: float, distance_m):
    """LOS path loss for the scenario, plus the oxygen term, in dB."""
    _check_finite("freq_ghz", freq_ghz, ge=0.5, le=100.0, unit="GHz")
    law, max_distance_m, _ = _SCENARIOS[params.scenario]
    _check_finite("distance_m", distance_m, ge=1.0, le=max_distance_m, unit="m",
                  note=f" (the {params.scenario} LOS range)")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming the distance
        pl = (law(params, freq_ghz, distance_m)
              + oxygen_loss(distance_m, params.oxygen_alpha_db_per_km))
    return _check_result(pl, distance_m, f"LOS path loss of the {params.scenario} scenario")
