"""Every name a ulsim module lists in __all__ exists, and every source or
test file and every ulsim name README.md quotes exists, so a deletion or a
rename cannot leave a dangling export or reference behind; config.py reads
no layer but the topology (and the dB helper in units.py, which holds no
parameter)."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ulsim
from ulsim import config

MODULES = ["ulsim"] + [f"ulsim.{m.name}"
                       for m in pkgutil.iter_modules(ulsim.__path__)]
ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


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


def readme_references():
    """The src/ulsim and tests files README quotes as paths (the modules its
    layout block lists under src/ulsim/ too), and the dotted
    ulsim.<module>[.<name>] references it quotes."""
    paths = set(re.findall(r"\b(?:src/ulsim|tests)/\w+\.py\b", README))
    block = re.search(r"^src/ulsim/\n((?:  .*\n)+)", README, re.M).group(1)
    paths |= {f"src/ulsim/{name}"
              for name in re.findall(r"^  (\w+\.py) ", block, re.M)}
    return sorted(paths), sorted(set(re.findall(r"\bulsim(?:\.\w+)+",
                                                README)))


def resolves(dotted):
    """Whether a dotted ulsim.<module>[.<name>...] reference names an
    object: the longest importable prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
            break
        except ModuleNotFoundError:
            continue
    for name in parts[i:]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_references_exist():
    # Checked from README to the code only, so adding a module needs no
    # README edit.
    paths, names = readme_references()
    missing = ([p for p in paths if not (ROOT / p).is_file()]
               + [n for n in names if not resolves(n)])
    assert paths and names and not missing
