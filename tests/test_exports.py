"""The package root exports every public name of its library modules."""

import importlib
import pkgutil

import pytest

import latreg

# The command-line front end's ``main`` is an entry point, not library API.
MODULES = sorted(m.name for m in pkgutil.iter_modules(latreg.__path__)
                 if m.name not in ("cli", "__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_exported_by_package(name):
    module = importlib.import_module(f"latreg.{name}")
    for public in getattr(module, "__all__", ()):
        assert public in latreg.__all__, public
        assert getattr(latreg, public) is getattr(module, public)
