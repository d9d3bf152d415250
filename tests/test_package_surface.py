"""The package surface: ``chiralattice`` re-exports exactly the public names
its modules declare, so a deleted name cannot leave a stale export behind."""

import importlib
import pkgutil
import types

import chiralattice
from chiralattice import errors


def test_module_all_lists_equal_the_package_reexports():
    declared = {}
    for info in pkgutil.iter_modules(chiralattice.__path__):
        module = importlib.import_module(f"chiralattice.{info.name}")
        for name in getattr(module, "__all__", ()):
            declared[name] = getattr(module, name)
    # errors declares no __all__: its public names are its exception types
    for name, value in vars(errors).items():
        if isinstance(value, type) and value.__module__ == errors.__name__:
            declared[name] = value
    exported = {
        name: value for name, value in vars(chiralattice).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == set(declared)
    for name, value in exported.items():
        assert value is declared[name], name
