"""60 GHz UAV-to-UAV path-loss modeling toolkit.

Close-in and floating-intercept distance fits of aerial channel-sounder
measurements, TR 38.901 LOS reference curves with 60 GHz oxygen absorption,
beam-pair ranking with misalignment-loss models, and the bundled campaign
datasets that regenerate the published results.
"""

from .beams import (
    PUBLISHED_TABLE,
    BeamPairRanking,
    MisalignmentTable,
    beam_angle,
    fit_misalignment_table,
    misalignment_loss,
    rank_beam_pairs,
)
from .dataset import (
    AggregatedPoint,
    BeamScanRecord,
    CsvFormatError,
    EmptySelectionError,
    aggregate_trials,
    load_csv,
    load_measurement_points,
    load_rank_points,
    load_reference_curves,
    save_aggregated_csv,
    to_fit_points,
)
from .fitting import DegenerateFitError, FitReport, fit_ci, fit_fi
from .pathloss import (
    CiModel,
    FiModel,
    free_space_pl,
    friis_reference_pl,
    mean_pl,
    sample_pl,
)
from .tr38901 import ScenarioParams, oxygen_loss, pl_3gpp_los, scenario_defaults

__version__ = "0.1.0"

__all__ = [
    "AggregatedPoint",
    "BeamPairRanking",
    "BeamScanRecord",
    "CiModel",
    "CsvFormatError",
    "DegenerateFitError",
    "EmptySelectionError",
    "FiModel",
    "FitReport",
    "MisalignmentTable",
    "PUBLISHED_TABLE",
    "ScenarioParams",
    "aggregate_trials",
    "beam_angle",
    "fit_ci",
    "fit_fi",
    "fit_misalignment_table",
    "free_space_pl",
    "friis_reference_pl",
    "load_csv",
    "load_measurement_points",
    "load_rank_points",
    "load_reference_curves",
    "mean_pl",
    "misalignment_loss",
    "oxygen_loss",
    "pl_3gpp_los",
    "rank_beam_pairs",
    "sample_pl",
    "save_aggregated_csv",
    "scenario_defaults",
    "to_fit_points",
]
