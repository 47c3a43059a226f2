"""The package stays exact and stdlib-only: no floats, no third-party imports."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "endosign").glob("*.py"))


def inexact_nodes(source: str) -> list[int]:
    """Lines with a float or complex literal or a float(...) call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id == "float"
        if literal or call:
            lines.append(node.lineno)
    return lines


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return [root for root in roots if root not in sys.stdlib_module_names]


def defined_names(source: str) -> list[str]:
    """Functions, classes, non-dunder methods and module-level UPPER_CASE constants."""
    tree = ast.parse(source)
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not (node.name.startswith("__") and node.name.endswith("__"))]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names += [name.id for target in node.targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and name.id.isupper()]
    return names


def dead_names(sources: dict[str, str]) -> list[str]:
    """module.name for each defined name that occurs as a whole word only once in all sources."""
    text = "\n".join(sources.values())
    return sorted(f"{module}.{name}" for module, source in sources.items()
                  for name in defined_names(source)
                  if len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1)


def unused_imports(source: str) -> list[str]:
    """Imported names the module never uses; __future__ imports and __all__ entries are exempt."""
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


def test_the_scanners_catch_planted_violations():
    assert inexact_nodes("x = 1\ny = 0.5\nz = float(x)\nw = 2j\n") == [2, 3, 4]
    assert foreign_imports("import os\nimport numpy.linalg\nfrom sympy import S\n"
                           "from . import exact\n") == ["numpy", "sympy"]
    planted = {
        "a": "CAP, _LIMIT = 3, 4\nclass A:\n    def __eq__(self, o): pass\n"
             "    def used(self): pass\n    def spare(self): pass\n"
             "def helper(): return CAP\n",
        "b": "from a import A, helper\nA().used(helper())\n",
    }
    assert dead_names(planted) == ["a._LIMIT", "a.spare"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "import itertools as it\nfrom . import exact as ex, weyl\n"
                          "from .x import Y\n__all__ = ['Y']\nos.getcwd(); ex.ONE\n") == \
        ["it", "weyl"]


def test_every_defined_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert dead_names(sources) == []


def test_every_import_is_used():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_package_has_no_floats():
    assert len(SOURCES) >= 12
    found = {path.name: inexact_nodes(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_package_imports_only_the_standard_library():
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: roots for name, roots in found.items() if roots} == {}


def test_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
