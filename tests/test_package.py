"""The package root: each name has one import path, its own module's."""

import importlib
import pkgutil
from types import ModuleType

import gracecolor


def test_the_root_holds_only_its_modules():
    # importing a submodule binds it on the package; nothing else may be bound
    modules = [info.name for info in pkgutil.iter_modules(gracecolor.__path__)
               if info.name != "__main__"]  # importing __main__ runs the CLI
    for name in modules:
        importlib.import_module(f"gracecolor.{name}")
    public = {name: value for name, value in vars(gracecolor).items()
              if not name.startswith("_")}
    assert {name: isinstance(value, ModuleType) for name, value in public.items()} \
        == dict.fromkeys(modules, True)
