"""The package root exports every public name of its library modules."""

import importlib
import inspect
import pkgutil

import pytest

import latreg
from latreg import errors

# The command-line front end's ``main`` is an entry point, not library API.
MODULES = sorted(m.name for m in pkgutil.iter_modules(latreg.__path__)
                 if m.name not in ("cli", "__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_exported_by_package(name):
    module = importlib.import_module(f"latreg.{name}")
    for public in getattr(module, "__all__", ()):
        assert public in latreg.__all__, public
        assert getattr(latreg, public) is getattr(module, public)


def test_every_error_class_is_declared():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.LatregError)
               and obj.__module__ == errors.__name__}
    assert defined <= set(errors.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from latreg import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(latreg.__all__)


def test_fit_is_solve():
    assert latreg.fit is latreg.solve
