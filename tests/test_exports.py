"""Every name a ulsim module lists in __all__ exists, so a deletion cannot
leave a dangling export behind; config.py reads no layer but the topology
(and the dB helper in units.py, which holds no parameter)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ulsim
from ulsim import config

MODULES = ["ulsim"] + [f"ulsim.{m.name}"
                       for m in pkgutil.iter_modules(ulsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def ulsim_imports(path):
    """The ulsim modules a source file imports, as absolute names."""
    found = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "ulsim" + ("." + module if module else "")
            found.update([module] if module != "ulsim" else
                         (f"ulsim.{a.name}" for a in node.names))
    return {m for m in found if m.split(".")[0] == "ulsim"}


def test_config_imports_only_topology():
    # Every default lives on SimConfig, so none can come from another layer;
    # units.py is the one dB conversion and holds no parameter.
    assert ulsim_imports(config.__file__) == {"ulsim.topology", "ulsim.units"}
