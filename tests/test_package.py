import copy
import dataclasses
import inspect
import pickle
import pydoc
import subprocess
import sys
import types
from pathlib import Path

import pytest

import a2a60
import a2a60.beams
import a2a60.dataset
from a2a60 import (
    BeamPairRanking,
    BeamScanRecord,
    CiModel,
    FiModel,
    FitReport,
    MisalignmentTable,
    ScenarioParams,
)


def test_all_lists_every_public_name():
    # pydoc documents the names in __all__, re-exports included; without it, none of them
    public = {name for name, value in vars(a2a60).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(a2a60.__all__) == public
    assert len(a2a60.__all__) == len(public)


def test_help_renders_every_record_signature():
    text = pydoc.render_doc(a2a60, renderer=pydoc.plaintext)
    assert "CiModel(freq_ghz: float, ple: float, sigma_db: float = 0.0) -> None" in text
    assert "BeamScanRecord(distance_m: float, height_m: float, tx_beam_idx: int" in text


def test_scan_record_is_one_class():
    assert a2a60.BeamScanRecord is a2a60.dataset.BeamScanRecord is a2a60.beams.BeamScanRecord


def modules_loaded_by(module):
    """The a2a60 modules that importing `a2a60.<module>` loads, a stub package
    standing in for a2a60 so that its __init__, which imports every module, does not run."""
    code = ("import sys, types\n"
            "package = sys.modules['a2a60'] = types.ModuleType('a2a60')\n"
            f"package.__path__ = [{str(Path(a2a60.__file__).parent)!r}]\n"
            f"import a2a60.{module}\n"
            "print(*(name for name in sys.modules if name.startswith('a2a60.')))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_dataset_imports_no_layer_above_it():
    # it loaded beams, and through it fitting
    assert modules_loaded_by("dataset") == {"a2a60.dataset", "a2a60.pathloss", "a2a60.published"}


def test_cli_does_not_load_beams():
    assert "a2a60.beams" not in modules_loaded_by("cli")


# each record class, valid arguments, and a change of field its checks reject (None: it has no checks)
RECORDS = [
    (CiModel, (60.48, 2.25, 1.88), {"freq_ghz": -1.0}),
    (FiModel, (67.0, 2.33), {"sigma_db": -0.5}),
    (FitReport, (CiModel(60.48, 2.25), (0.5, -0.5), 2), None),
    (ScenarioParams, ("umi", 10.0, 1.5), {"scenario": "mars"}),
    (BeamPairRanking, (20.0, 12.0, ((1, 2, 90.0), (2, 2, 91.0))), None),
    (MisalignmentTable, ((CiModel(60.48, 2.25), FiModel(70.0, 2.3)), (0.0, 5.0)),
     {"delta_deg": (1.0, 5.0)}),
    (BeamScanRecord, (20.0, 12.0, 3, 4, 90.5, 15), {"tx_beam_idx": 20}),
]


def frozen_twin(cls):
    """What `@dataclass(frozen=True)` builds from the fields and checks of `cls`."""
    specs = [(f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
             for f in dataclasses.fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True,
                                      slots=cls is BeamScanRecord)


def raised(error, call, *args, **kwargs):
    """The message of the `error` that `call(*args, **kwargs)` raises."""
    with pytest.raises(error) as caught:
        call(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize("cls, args, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaves_as_its_frozen_dataclass_twin(cls, args, bad):
    twin = frozen_twin(cls)
    record, twin_record = cls(*args), twin(*args)
    assert dataclasses.is_dataclass(record)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    assert repr(record) == repr(twin_record)
    assert record == cls(*args) and not record != cls(*args)
    assert hash(record) == hash(cls(*args)) == hash(twin_record)
    assert record != twin_record and twin_record != record and not record == twin_record
    assert dataclasses.astuple(record) == dataclasses.astuple(twin_record)
    assert dataclasses.asdict(record) == dataclasses.asdict(twin_record)
    assert hasattr(record, "__dict__") == hasattr(twin_record, "__dict__")
    name = dataclasses.fields(cls)[0].name
    assert raised(dataclasses.FrozenInstanceError, setattr, record, name, 0.0) \
        == raised(dataclasses.FrozenInstanceError, setattr, twin_record, name, 0.0)
    assert raised(dataclasses.FrozenInstanceError, delattr, record, name) \
        == raised(dataclasses.FrozenInstanceError, delattr, twin_record, name)
    # the slotted twin raises a TypeError here on Python 3.11, from a super() call
    raised(dataclasses.FrozenInstanceError, setattr, record, "not_a_field", 0.0)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*copies, copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == repr(record)
    assert copy.copy(twin_record) == copy.deepcopy(twin_record) == twin_record
    for call in (lambda c: c(), lambda c: c(*args, not_a_field=0), lambda c: c(*args, *args),
                 lambda c: c(*args, **{name: args[0]})):  # missing, unknown, too many, repeated
        raised(TypeError, call, cls)
        raised(TypeError, call, twin)
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
    for replace in (dataclasses.replace, getattr(copy, "replace", dataclasses.replace)):
        assert replace(record) == record and type(replace(record)) is cls
        if bad:
            message = raised(ValueError, cls, **{**values, **bad})
            assert raised(ValueError, replace, record, **bad) == message
            assert raised(ValueError, replace, twin_record, **bad) == message


def test_import_compiles_no_method_from_source():
    # @dataclass(frozen=True) compiles six methods from source text per class, 42 for the
    # seven record classes; the shared record methods leave each build none to compile
    code = ("import builtins, re, sys\n"
            f"sys.path.insert(0, {str(Path(a2a60.__file__).parents[1])!r})\n"
            "import numpy\n"
            "real, compiled = builtins.exec, []\n"
            "def exec(source, *args, **kwargs):\n"
            "    if isinstance(source, str):\n"
            "        compiled.extend(re.findall(r'^ *def (?!__create_fn__\\b)(\\w+)', source, re.M))\n"
            "    return real(source, *args, **kwargs)\n"
            "builtins.exec = exec\n"
            "import a2a60\n"
            "builtins.exec = real\n"
            "print(*compiled)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
