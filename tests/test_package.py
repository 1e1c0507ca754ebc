import types

import a2a60


def test_all_lists_every_public_name():
    # pydoc documents the names in __all__, re-exports included; without it, none of them
    public = {name for name, value in vars(a2a60).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(a2a60.__all__) == public
    assert len(a2a60.__all__) == len(public)
