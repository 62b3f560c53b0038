"""Module boundaries: no module of the package uses another module's private name.

A private name (one underscore, not a dunder) belongs to the module that
defines it.  Another module may neither import it (`from .ingest import
_x`) nor reach it through an imported module or object (`ingest._x`,
`loadsynth.core._x`); a rule two modules need has one public home.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "loadsynth").rglob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _owner(node, bound: dict):
    """The dotted package name that ``node`` (a name or attribute chain) refers to, if any."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _owner(node.value, bound)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_uses(source: str, module: str, is_package: bool = False) -> list[str]:
    """Each use in ``source``, the text of package module ``module``, of a
    private name of another package module."""
    tree = ast.parse(source)
    package = module.split(".") if is_package else module.split(".")[:-1]
    bound = {}  # local name -> the package module or object it is imported as
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "loadsynth"):
            base = package[: len(package) + 1 - node.level] if node.level else []
            origin = ".".join(base + ([node.module] if node.module else []))
            if origin == module:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{origin}.{alias.name}"
                if _private(alias.name):
                    found.append(f"{module} line {node.lineno}: from {origin} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "loadsynth":
                    bound[alias.asname or "loadsynth"] = alias.name if alias.asname else "loadsynth"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _owner(node.value, bound)
            if owner is not None and owner != module:
                found.append(f"{module} line {node.lineno}: {owner}.{node.attr}")
    return found


def _module_name(path: Path) -> tuple[str, bool]:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


def test_the_package_has_modules():
    assert {"cli", "core", "ingest", "gan"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_uses_another_modules_private_name(path):
    module, is_package = _module_name(path)
    assert private_uses(path.read_text(encoding="utf-8"), module, is_package) == []


@pytest.mark.parametrize(
    "source,module,want",
    [
        ("from .ingest import _line_error", "loadsynth.cli",
         ["loadsynth.cli line 1: from loadsynth.ingest import _line_error"]),
        ("from ..core import (\n    LEVEL_SPECS,\n    _UNIT_SECONDS,\n)", "loadsynth.neural.gan",
         ["loadsynth.neural.gan line 1: from loadsynth.core import _UNIT_SECONDS"]),
        ("from loadsynth.compose import _MAX_YEARS", "loadsynth.cli",
         ["loadsynth.cli line 1: from loadsynth.compose import _MAX_YEARS"]),
        ("def f():\n    from . import ingest\n    ingest._add(1)", "loadsynth.toydata",
         ["loadsynth.toydata line 3: loadsynth.ingest._add"]),
        ("from .neural import gan\nx = gan._centre", "loadsynth.cli",
         ["loadsynth.cli line 2: loadsynth.neural.gan._centre"]),
        ("import loadsynth.core as c\nc._UNIT_SECONDS", "loadsynth.cli",
         ["loadsynth.cli line 2: loadsynth.core._UNIT_SECONDS"]),
        ("from .compose import ModelSet\nModelSet._x", "loadsynth.modelio",
         ["loadsynth.modelio line 2: loadsynth.compose.ModelSet._x"]),
        ("from . import __version__\nfrom .core import LEVEL_SPECS", "loadsynth.cli", []),
        ("def f(sp, shape):\n    return sp._get_values, shape._yearly_of", "loadsynth.cli", []),
        ("import numpy as np\nnp._x", "loadsynth.core", []),
    ],
    ids=["import", "import_two_levels_up", "absolute_import", "module_attribute", "subpackage_module",
         "import_as", "imported_class", "public_and_dunder", "local_objects", "other_package"],
)
def test_the_check_finds_cross_module_private_names(source, module, want):
    assert private_uses(source, module) == want
