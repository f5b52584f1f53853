"""The package's public names: every `__all__` entry exists, and every name
the package re-exports is public in the module that defines it."""

import importlib
import inspect
import pkgutil

import pytest

import ulmc

MODULES = [importlib.import_module(f"ulmc.{info.name}")
           for info in pkgutil.iter_modules(ulmc.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_reexport_is_listed_in_its_home_module():
    unlisted = []
    for name, obj in vars(ulmc).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        if hasattr(home, "__all__") and name not in home.__all__:  # errors has none
            unlisted.append(f"{home.__name__}.{name}")
    assert unlisted == []


def test_the_checks_see_every_module():
    names = {module.__name__ for module in MODULES}
    assert {"ulmc.analysis", "ulmc.brownian", "ulmc.samplers", "ulmc.targets"} <= names
