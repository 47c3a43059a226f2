"""The package stays exact, stdlib-only and free of dead code.

Static scans of src/endosign: no floats, no third-party imports, no unused
import, no defined name that occurs only at its definition, and no
parameter that its function body never reads.  The reachability guard runs
every sweep at small bounds and both enumerations under sys.setprofile, and
fails on any function of the package that none of them enters.  The
benchmark guard resolves every per-layer name of BENCHMARK.json in the
package.
"""

import ast
import importlib
import json
import re
import sys
import types
from pathlib import Path

from endosign import cli, suites

from test_constants import code_entered_by

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


def unread_parameters(source: str) -> list[str]:
    """function:parameter for each parameter its body never loads.

    Exempt are _names, self as the first parameter of a method, and cls as
    the first parameter of a classmethod.
    """
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    receivers = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, functions):
                    decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                    if "staticmethod" not in decorators:
                        receivers[child] = "cls" if "classmethod" in decorators else "self"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, functions):
            args = node.args
            params = [a for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a]
            loaded = {name.id for stmt in node.body for name in ast.walk(stmt)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            found += [f"{node.name}:{a.arg}" for i, a in enumerate(params)
                      if not (i == 0 and a.arg == receivers.get(node))
                      and not a.arg.startswith("_") and a.arg not in loaded]
    return found


def function_defs(path: Path) -> dict[int, str]:
    """First line (as in co_firstlineno) -> qualified name, for every def in the file."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def package_object(head: str):
    """The module, function or method that a dotted head names, or None.

    A method is looked up in its class's own dictionary, where init and
    hash stand for __init__ and __hash__.
    """
    module, *path = head.split(".")
    if module not in {source.stem for source in SOURCES}:
        return None
    obj = importlib.import_module(f"endosign.{module}")
    for part in path:
        space = vars(obj)
        obj = space.get(part) or (space.get(f"__{part}__") if isinstance(obj, type) else None)
        if obj is None:
            return None
    return obj


def unresolved_layer_names(names: list[str]) -> list[str]:
    """The benchmark's per-layer names that name nothing in the package.

    The naming rules of perfbench/run.py: suites.<suite>.wall_s is a key of
    SUITES, <module>.self_s a module, and any other <head>.<metric> the
    function or method that head names.  trace.overhead_ratio names the
    tracer, not the package.
    """
    missing = []
    for name in names:
        head, _, metric = name.rpartition(".")
        if name == "trace.overhead_ratio":
            continue
        if metric == "wall_s":
            layer, _, suite = head.partition(".")
            found = layer == "suites" and suite in suites.SUITES
        elif metric == "self_s" and "." not in head:
            found = isinstance(package_object(head), types.ModuleType)
        else:
            found = isinstance(package_object(head), types.FunctionType)
        if not found:
            missing.append(name)
    return missing


# Bounds at which the sweeps enter every function their defaults enter, by
# suite name; every suite of the registry is listed.
SMALL_SWEEPS = (
    ("aux", {"rmax": 1}),
    ("split", {"rmax": 1, "nmax": 1}),
    ("kappasum", {"max_rr": 2}),
    ("counting", {"q": (5,), "t2max": 1}),
    ("constprod", {"q": (5,), "rmax": 2}),
    ("signchain", {"rmax": 2}),
    ("transfer", {"q": (5,), "rrmax": 2}),
    ("weyl", {"nmax": 3}),
    ("descent", {"beta_max": 2}),
    ("params", {"nmax": 1}),
)
SMALL_COMMANDS = (
    ["verify", "constprod", "--q", "5", "--rmax", "0", "--format", "csv"],
    ["enumerate", "params", "--n", "2"],
    ["enumerate", "descent", "--n", "2"],
)
NOT_SWEPT = {
    # entered only when a report serializes a failing point
    "QuadrupleGamma.to_json", "SizeSplit.to_json", "GammaVector.to_json", "LPair.to_json",
    # no sweep hashes a GammaVector; kept so that the per-layer metric
    # families.GammaVector.hash.calls of BENCHMARK.json still resolves
    "GammaVector.__hash__",
    # no sweep wraps a value in an ExactValue; kept so that the per-layer
    # metrics exact.ExactValue.init.calls and exact.self_s still resolve
    "ExactValue.__init__",
}


def entered_code(capsys) -> set:
    """The code objects that the small sweeps and commands enter."""
    def sweep():
        for name, bounds in SMALL_SWEEPS:
            suites.run(name, **bounds)
        # the two wrappers that perfbench/workloads.py names through func=
        suites.verify_descent(beta_max=0)
        suites.verify_params(nmax=0)
        for argv in SMALL_COMMANDS:
            cli.main(argv)

    entered = code_entered_by(sweep)
    capsys.readouterr()
    return entered


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
    assert unread_parameters("def f(a, b, _c, *args, d=1, **kw):\n    return a + kw['x']\n"
                             "class K:\n    def m(self, cls, e):\n        def g(h): return e\n"
                             "        return g\n") == \
        ["f:b", "f:args", "f:d", "m:cls", "g:h"]
    # self and cls are exempt only as the receiver of a method or classmethod
    assert unread_parameters("def sgn_cd(cls): return 1\ndef h(self): return 1\n"
                             "class L:\n    @classmethod\n    def make(cls, k): return k\n"
                             "    @staticmethod\n    def s(self): return 1\n"
                             "    def n(cls): return 1\n    def o(self): return 1\n") == \
        ["sgn_cd:cls", "h:self", "s:self", "n:cls"]


def test_every_defined_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert dead_names(sources) == []


def test_every_parameter_is_read():
    found = {path.name: unread_parameters(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: params for name, params in found.items() if params} == {}


def test_every_function_is_entered(capsys):
    assert {name for name, _ in SMALL_SWEEPS} == set(suites.SUITES)
    defs = {(str(path), line): f"{path.stem}.{name}" for path in SOURCES
            for line, name in function_defs(path).items()}
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
               for code in entered_code(capsys)}
    missed = sorted(name for key, name in defs.items() if key not in entered
                    and name.rsplit(".", 1)[-1] != "__repr__"
                    and name.split(".", 1)[1] not in NOT_SWEPT)
    assert missed == []


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


def test_benchmark_layer_names_resolve():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["per_layer"]]
    assert len(names) > 40
    assert unresolved_layer_names(names) == []


def test_the_layer_name_guard_catches_planted_deletions(monkeypatch):
    from endosign import families
    names = ["families.gamma_L_split.calls", "families.GammaVector.init.calls",
             "suites.transfer.wall_s", "localfield.self_s"]
    assert unresolved_layer_names(names) == []
    monkeypatch.delattr(families, "gamma_L_split")
    monkeypatch.delitem(suites.SUITES, "transfer")
    assert unresolved_layer_names(names + ["nolayer.self_s", "partitions.Partition.spare.calls"]) \
        == ["families.gamma_L_split.calls", "suites.transfer.wall_s", "nolayer.self_s",
            "partitions.Partition.spare.calls"]
