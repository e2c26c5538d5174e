"""Every name a ulsim module lists in __all__ exists, so a deletion cannot
leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import ulsim

MODULES = ["ulsim"] + [f"ulsim.{m.name}"
                       for m in pkgutil.iter_modules(ulsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing
