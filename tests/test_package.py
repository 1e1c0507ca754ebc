import copy
import dataclasses
import inspect
import json
import pickle
import pydoc
import shutil
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
    # pydoc documents the names in __all__, re-exports included; without it, none of them.
    # dir() lists each public name before its module has run, and each one resolves
    public = {name for name in dir(a2a60)
              if not name.startswith("_") and not isinstance(getattr(a2a60, name), types.ModuleType)}
    assert set(a2a60.__all__) == public
    assert len(a2a60.__all__) == len(public)


def test_every_public_name_lives_in_its_home_module():
    # a name filed under a module that only re-imports it would resolve, but run that module too
    for name, home in a2a60._HOMES.items():
        value = getattr(a2a60, name)
        if isinstance(value, type) or inspect.isfunction(value):
            assert value.__module__ == f"a2a60.{home}", name


def test_help_renders_every_record_signature():
    text = pydoc.render_doc(a2a60, renderer=pydoc.plaintext)
    assert "CiModel(freq_ghz: float, ple: float, sigma_db: float = 0.0) -> None" in text
    assert "BeamScanRecord(distance_m: float, height_m: float, tx_beam_idx: int" in text


def test_scan_record_is_one_class():
    assert a2a60.BeamScanRecord is a2a60.dataset.BeamScanRecord is a2a60.beams.BeamScanRecord


def modules_loaded_by(module):
    """The a2a60 modules that importing `a2a60.<module>` loads, a stub package
    standing in for a2a60 so that its __init__, which registers every module, does not run."""
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
    # seven record classes; the shared record methods leave each build none to compile.
    # Every public name is resolved, so that every library module runs
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
            "for name in a2a60.__all__:\n"
            "    getattr(a2a60, name)\n"
            "builtins.exec = real\n"
            "print(*compiled)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


SRC = Path(a2a60.__file__).parents[1]
LIBRARY = ("published", "pathloss", "dataset", "fitting", "tr38901", "beams")


def run_python(code, *args, path=SRC, options=()):
    """The stdout of a fresh interpreter, started with `options`, running `code` with `path`
    first on sys.path, as JSON; it must exit 0."""
    result = subprocess.run([sys.executable, *options, "-c",
                             f"import sys; sys.path.insert(0, {str(path)!r})\n" + code, *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_registers_every_module_and_runs_none():
    ran, numpy = run_python("import json, types, a2a60\n"
                            f"ran = [name for name in {LIBRARY!r}\n"
                            "       if type(sys.modules['a2a60.' + name]) is types.ModuleType]\n"
                            "print(json.dumps([ran, 'numpy' in sys.modules]))\n")
    assert ran == [] and numpy is False


# (arguments, the library modules the subcommand runs, whether it loads csv)
SUBCOMMANDS = [
    (["fit", "--model", "ci"], {"published", "pathloss", "dataset", "fitting"}, True),
    (["report", "--which", "table3", "--format", "json"],
     {"published", "pathloss", "dataset", "fitting"}, True),
    (["compare", "--format", "markdown-table"],
     {"published", "pathloss", "dataset", "fitting", "tr38901"}, True),
    (["sample", "--distance", "20", "--n", "10"], {"published", "pathloss"}, False),
]


@pytest.mark.parametrize("args, runs, loads_csv", SUBCOMMANDS, ids=[s[0][0] for s in SUBCOMMANDS])
def test_subcommand_runs_only_the_modules_it_uses(args, runs, loads_csv):
    # `sample` runs neither dataset, fitting, tr38901, beams nor csv; no subcommand runs beams
    ran, csv = run_python("import io, json, contextlib, types\n"
                          "from a2a60.cli import main\n"
                          "with contextlib.redirect_stdout(io.StringIO()):\n"
                          "    assert main(sys.argv[1:]) == 0\n"
                          "print(json.dumps([sorted(name[6:] for name, module in sys.modules.items()\n"
                          "                         if name.startswith('a2a60.') and name != 'a2a60.cli'\n"
                          "                         and type(module) is types.ModuleType),\n"
                          "                  'csv' in sys.modules]))\n", *args)
    assert set(ran) == runs
    assert csv is loads_csv


@pytest.mark.parametrize("entry", ["a2a60", "a2a60.cli"])
def test_every_traced_module_is_registered_on_import(entry):
    # bench/child.py's tracer looks each module it traces up in sys.modules after this import
    child = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    missing, unresolved = run_python(
        "import importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('child', {str(child)!r})\n"
        "child = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(child)\n"
        f"import {entry}\n"
        "missing = [m for m, *_ in child.TARGETS if 'a2a60.' + m not in sys.modules]\n"
        "print(json.dumps([missing, [f'{m}.{f}' for m, f, *_ in child.TARGETS\n"
        "                            if not callable(getattr(sys.modules['a2a60.' + m], f, None))]]))\n")
    assert missing == [] and unresolved == []


def test_threads_first_touching_a_module_all_see_it_run():
    # 8 threads behind a barrier read names of beams, which has not run, at once; in 3
    # fresh interpreters, as each runs the module once
    code = ("import json, threading, a2a60\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier, errors = threading.Barrier(8), []\n"
            "def touch(name):\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        getattr(a2a60.beams, name)\n"
            "    except BaseException as exc:\n"
            "        errors.append(repr(exc))\n"
            "names = ['rank_beam_pairs', 'PUBLISHED_TABLE', 'fit_misalignment_table', 'beam_angle']\n"
            "threads = [threading.Thread(target=touch, args=(names[i % 4],)) for i in range(8)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(60)\n"
            "print(json.dumps([errors, sum(thread.is_alive() for thread in threads)]))\n")
    for _ in range(3):
        assert run_python(code) == [[], 0]


# 8 threads at once, each running every call, from a different first one: the first call
# into each module runs it, so the threads first-touch the modules together; each result
# is compared with the same call's serial result, taken after the threads finish
SHARED_USE = """\
import json, os, threading, time, warnings
import numpy as np
import a2a60
raw, blank, header_only = sys.argv[1:]
filters, environ = warnings.filters, dict(os.environ)
snapshot = list(filters)
distances = np.linspace(1.0, 150.0, 301)
calls = [
    lambda: a2a60.load_csv(raw).tolist(),
    lambda: a2a60.load_csv(blank).tolist(),
    lambda: a2a60.load_csv(header_only).tolist(),
    lambda: a2a60.load_measurement_points().tolist(),
    lambda: a2a60.aggregate_trials(a2a60.load_csv(raw)),
    lambda: a2a60.fit_ci(*a2a60.to_fit_points(a2a60.load_measurement_points()), 60.48),
    lambda: a2a60.fit_fi(*a2a60.to_fit_points(a2a60.load_rank_points(2), rank=2)),
    lambda: a2a60.sample_pl(a2a60.CiModel(60.48, 2.25, 3.56), 20.0, 1000, 7).tolist(),
    lambda: a2a60.mean_pl(a2a60.FiModel(67.03, 2.33), distances).tolist(),
    lambda: a2a60.pl_3gpp_los(a2a60.scenario_defaults("umi"), 60.48, distances).tolist(),
]
barrier, done, results, errors, seen = threading.Barrier(9), threading.Event(), [], [], []

def use(first):
    barrier.wait()
    for _ in range(3):
        for i in range(first, first + len(calls)):
            try:
                results.append((i % len(calls), calls[i % len(calls)]()))
            except BaseException as exc:
                errors.append(repr(exc))

def watch():  # the filters as other threads see them while the calls run
    barrier.wait()
    while not done.is_set():
        if warnings.filters is not filters or warnings.filters != snapshot:
            seen.append(repr(warnings.filters[:3]))
        time.sleep(1e-4)

threads = [threading.Thread(target=use, args=(i,)) for i in range(8)]
watcher = threading.Thread(target=watch)
for thread in (*threads, watcher):
    thread.start()
for thread in threads:
    thread.join(120)
done.set()
watcher.join(60)
serial = [call() for call in calls]
print(json.dumps({
    "errors": errors, "alive": sum(thread.is_alive() for thread in threads),
    "calls": len(results), "different": sorted({i for i, result in results if result != serial[i]}),
    "filters seen": seen[:3], "filters after": warnings.filters is filters and filters == snapshot,
    "environ after": dict(os.environ) == environ,
}))
"""


def test_threads_sharing_the_library_leave_the_process_as_it_was(tmp_path):
    # under -W error, no call warns; every result equals the serial one, and no call
    # changes warnings.filters or os.environ, even for a moment
    rows = [f"{d},{h},{tx},{rx},{t},{60 + d / 2 + tx / 8 + rx / 16 + t / 32}"
            for d in (6, 10, 20, 40) for h in (6, 12) for tx in range(20) for rx in range(20)
            for t in range(5)]
    header = "distance_m,height_m,tx_beam_idx,rx_beam_idx,trial_idx,path_loss_db"
    files = {"raw.csv": "\n".join([header, *rows]) + "\n",
             "blank.csv": "\r\n".join([header, *("\r\n" * (i % 1000 == 0) + row
                                                 for i, row in enumerate(rows))]) + "\r\n",
             "header_only.csv": header + "\r\n\r\n\r\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    assert run_python(SHARED_USE, *(str(tmp_path / name) for name in files),
                      options=("-W", "error")) == {
        "errors": [], "alive": 0, "calls": 8 * 3 * 10, "different": [], "filters seen": [],
        "filters after": True, "environ after": True}


def test_module_whose_first_run_raises_is_left_unrun(tmp_path):
    # as a failed import runs the module again on the next import, the next use runs it
    # again: no half-run module is left behind, in sys.modules or the package
    package = tmp_path / "a2a60"
    shutil.copytree(Path(a2a60.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    flag = tmp_path / "fail"
    flag.touch()
    (package / "beams.py").write_text("import os\n"
                                      f"if os.path.exists({str(flag)!r}):\n"
                                      "    half_run = True\n"
                                      "    raise RuntimeError('first run fails')\n"
                                      "rank_beam_pairs = 'ran'\n")
    outcomes = run_python(
        "import json, os, types, a2a60\n"
        "beams, outcomes = a2a60.beams, []\n"
        "for read in (lambda: beams.half_run, lambda: a2a60.rank_beam_pairs,\n"
        "             lambda: __import__('a2a60.beams').beams.half_run):\n"
        "    try:\n"
        "        outcomes.append(read())\n"
        "    except RuntimeError as exc:\n"
        "        outcomes.append(str(exc))\n"
        "outcomes.append([type(beams) is types.ModuleType, sys.modules['a2a60.beams'] is beams])\n"
        f"os.remove({str(flag)!r})\n"
        "outcomes.append([a2a60.rank_beam_pairs, hasattr(beams, 'half_run'),\n"
        "                 type(beams) is types.ModuleType,\n"
        "                 sys.modules['a2a60.beams'] is beams is a2a60.beams])\n"
        "print(json.dumps(outcomes))\n", path=tmp_path)
    assert outcomes == ["first run fails"] * 3 + [[False, True], ["ran", False, True, True]]
