import subprocess
import sys
import types
from pathlib import Path

import a2a60
import a2a60.beams
import a2a60.dataset


def test_all_lists_every_public_name():
    # pydoc documents the names in __all__, re-exports included; without it, none of them
    public = {name for name, value in vars(a2a60).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(a2a60.__all__) == public
    assert len(a2a60.__all__) == len(public)


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
