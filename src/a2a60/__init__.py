"""60 GHz UAV-to-UAV path-loss modeling toolkit.

Close-in and floating-intercept distance fits of aerial channel-sounder
measurements, TR 38.901 LOS reference curves with 60 GHz oxygen absorption,
beam-pair ranking with misalignment-loss models, and the bundled campaign
datasets that regenerate the published results. Each library module runs on
first use, from any thread: `import a2a60` runs none of them and imports no
numpy; a public name resolves from its module.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

_MODULES = {  # each library module, in registration order, and the public names it defines
    "published": "",
    "pathloss": "CiModel FiModel free_space_pl friis_reference_pl mean_pl sample_pl",
    "dataset": "AggregatedPoint BeamScanRecord CsvFormatError EmptySelectionError aggregate_trials "
               "load_csv load_measurement_points load_rank_points save_aggregated_csv to_fit_points",
    "fitting": "DegenerateFitError FitReport fit_ci fit_fi",
    "tr38901": "ScenarioParams oxygen_loss pl_3gpp_los scenario_defaults",
    "beams": "PUBLISHED_TABLE BeamPairRanking MisalignmentTable beam_angle fit_misalignment_table "
             "misalignment_loss rank_beam_pairs",
}
_HOMES = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_HOMES)
_LOCK = threading.RLock()  # others wait out a run; its own thread re-enters, to read __dict__
_UNRUN = {}  # each deferred module not run yet, and the namespace it starts from


class _Deferred(types.ModuleType):
    """A library module that runs on its first attribute access, then is a plain module."""

    def __getattribute__(self, name):
        with _LOCK:
            if (start := _UNRUN.pop(self, None)) is not None:
                try:
                    start["__loader__"].exec_module(self)
                except BaseException:  # left unrun, to run again on next use, as a failed import
                    (namespace := vars(self)).clear()  # self is not in _UNRUN: a plain read
                    namespace.update(start)
                    _UNRUN[self] = start
                    raise
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


for _name in _MODULES:
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{_name}"))
    globals()[_name] = sys.modules[_module.__name__] = _module
    _UNRUN[_module], _module.__class__ = dict(vars(_module)), _Deferred
del _name, _module


def __getattr__(name):
    """A public name, read from the module that defines it."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOMES[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
