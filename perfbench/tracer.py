"""Call-count and self-time tracer for the endosign package, installed from outside.

The tracer replaces every function and method of the package with a thin
wrapper for the duration of a ``with tracer.installed():`` block, and puts
the originals back afterwards.  It never replaces a class object (the
package runs ``isinstance`` checks), only the entries of class dictionaries.

Leaf calls are not recorded one by one: a sweep makes tens of millions of
them.  Each wrapped function instead owns a counter cell
``[calls, self_ns, resumes, yielded]``, and the tracer keeps a stack of the
cells that are currently running.  At every call, return, generator resume
and suspension the time since the previous event is charged to the cell on
top of the stack, so a cell's ``self_ns`` is the time spent in that
function's own code (and in the builtins it calls) but not in any other
wrapped function.  Time outside the package is charged to the root cell.

Coarse spans (workload, suite, sub-sweep) are recorded separately by the
caller with :meth:`Tracer.span`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
import types

PACKAGE = "endosign"
ROOT = "bench"


def package_modules() -> list[types.ModuleType]:
    """The package and all of its submodules, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, PACKAGE + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _short(name: str) -> str:
    """``__init__`` -> ``init``; ordinary names are kept."""
    if name.startswith("__") and name.endswith("__"):
        return name[2:-2]
    return name


def _owned_classes(mods) -> list[type]:
    names = {m.__name__ for m in mods}
    seen, out = set(), []
    for mod in mods:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ in names and id(value) not in seen:
                seen.add(id(value))
                out.append(value)
    return out


def snapshot() -> dict:
    """Identity snapshot of every namespace the tracer may patch."""
    mods = package_modules()
    snap = {}
    for mod in mods:
        snap[mod.__name__] = dict(vars(mod))
        for name, value in vars(mod).items():
            if isinstance(value, dict):
                snap[f"{mod.__name__}.{name}{{}}"] = dict(value)
    for cls in _owned_classes(mods):
        snap[f"{cls.__module__}.{cls.__qualname__}"] = dict(vars(cls))
    return snap


def same_snapshot(a: dict, b: dict) -> bool:
    """True when both snapshots bind the same names to the same objects."""
    if a.keys() != b.keys():
        return False
    for key, ns in a.items():
        other = b[key]
        if ns.keys() != other.keys() or any(ns[k] is not other[k] for k in ns):
            return False
    return True


class Tracer:
    """Counters, self times and coarse spans for one traced run."""

    def __init__(self, observers=None):
        self.cells: dict[str, list[int]] = {}
        self.generators: set[str] = set()
        self.codes: dict[str, types.CodeType] = {}
        self.observers = dict(observers or {})
        self.observed: dict[str, dict[str, int]] = {}
        self.spans: list[dict] = []
        self._root = self._cell(ROOT)
        self._stack = [self._root]
        self._last = [time.perf_counter_ns()]
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _cell(self, key: str) -> list[int]:
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0, 0, 0, 0]
        return cell

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, key: str):
        cached = self._wrappers.get(id(fn))
        if cached is not None:
            return cached
        cell = self._cell(key)
        self.codes[key] = fn.__code__
        stack, last, clock = self._stack, self._last, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            self.generators.add(key)

            def drive(it):
                while True:
                    now = clock()
                    stack[-1][1] += now - last[0]
                    cell[2] += 1
                    stack.append(cell)
                    last[0] = now
                    try:
                        value = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        now = clock()
                        cell[1] += now - last[0]
                        stack.pop()
                        last[0] = now
                    cell[3] += 1
                    yield value

            def wrapper(*args, **kwargs):
                cell[0] += 1
                return drive(fn(*args, **kwargs))
        else:
            observe = self.observers.get(key)

            def wrapper(*args, **kwargs):
                now = clock()
                stack[-1][1] += now - last[0]
                cell[0] += 1
                stack.append(cell)
                last[0] = now
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    cell[1] += now - last[0]
                    stack.pop()
                    last[0] = now
                if observe is not None:
                    counts = self.observed.setdefault(key, {})
                    for name, n in observe(args, kwargs, result).items():
                        counts[name] = counts.get(name, 0) + n
                return result

        functools.update_wrapper(wrapper, fn)
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        """Bind owner.name (or owner[name] for a dict) and remember the old value."""
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._restore.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def _patch_class(self, cls: type) -> None:
        layer = _layer(cls.__module__)
        for name, attr in list(vars(cls).items()):
            key = f"{layer}.{cls.__qualname__}.{_short(name)}"
            if isinstance(attr, (staticmethod, classmethod)):
                if isinstance(attr.__func__, types.FunctionType):
                    self._set(cls, name, type(attr)(self._wrap(attr.__func__, key)))
            elif isinstance(attr, property):
                if isinstance(attr.fget, types.FunctionType):
                    self._set(cls, name, property(self._wrap(attr.fget, key), attr.fset,
                                                  attr.fdel, attr.__doc__))
            elif isinstance(attr, types.FunctionType):
                self._set(cls, name, self._wrap(attr, key))

    def _install(self) -> None:
        mods = package_modules()
        names = {m.__name__ for m in mods}
        for cls in _owned_classes(mods):
            self._patch_class(cls)

        def wrapped(value):
            if isinstance(value, types.FunctionType) and value.__module__ in names:
                return self._wrap(value, f"{_layer(value.__module__)}.{value.__qualname__}")
            return None

        # Then every namespace that binds a package function, and the
        # dispatch tables (dicts of functions or of tuples holding them).
        for mod in mods:
            for name, value in list(vars(mod).items()):
                w = wrapped(value)
                if w is not None:
                    self._set(mod, name, w)
                elif isinstance(value, dict):
                    for k, item in list(value.items()):
                        w = wrapped(item)
                        if w is not None:
                            self._set(value, k, w)
                        elif isinstance(item, tuple) and any(wrapped(x) for x in item):
                            self._set(value, k, tuple(wrapped(x) or x for x in item))

    def _uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()
        self._wrappers.clear()

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            self._last[0] = time.perf_counter_ns()
            yield self
        finally:
            now = time.perf_counter_ns()
            self._stack[-1][1] += now - self._last[0]
            self._last[0] = now
            self._uninstall()

    # -- spans and results -------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one coarse span; yields its index for use as a parent."""
        index = len(self.spans)
        record = {"name": name, "parent": parent, "start_ns": time.perf_counter_ns()}
        self.spans.append(record)
        try:
            yield index
        finally:
            record["end_ns"] = time.perf_counter_ns()

    def calls(self, key: str) -> int:
        cell = self.cells.get(key)
        return cell[0] if cell else 0

    def to_json(self) -> dict:
        return {
            "wrapped": sorted(self.codes),
            "functions": {k: {"calls": c[0], "self_s": c[1] / 1e9,
                              **({"resumes": c[2], "yielded": c[3]}
                                 if k in self.generators else {})}
                          for k, c in sorted(self.cells.items()) if c[0] or c[1]},
            "observed": self.observed,
        }
