import importlib
import pkgutil

import modunits


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(modunits.__path__):
        module = importlib.import_module(f"modunits.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    for name in modunits.__all__:
        assert hasattr(modunits, name), name
