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


def test_the_scanners_catch_planted_violations():
    assert inexact_nodes("x = 1\ny = 0.5\nz = float(x)\nw = 2j\n") == [2, 3, 4]
    assert foreign_imports("import os\nimport numpy.linalg\nfrom sympy import S\n"
                           "from . import exact\n") == ["numpy", "sympy"]


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
