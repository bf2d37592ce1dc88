"""Per-layer spans recorded from outside the package.

Every function named in a ``twistoric`` module's ``__all__`` (or, for a
module without one, every public function it defines) is replaced by a
wrapper at each ``twistoric.*`` attribute that binds it, so calls between
modules and inside a module are both seen.  A span belongs to the layer
(module) that defines the function.  ``json.dumps`` is wrapped as the
``report.json`` span, since serialization is the report layer's job.

A span's parent is the span open when it starts.  Spans are folded into
per-layer totals as they close: self time is the span's duration minus the
durations of its child spans.  Keeping every raw span instead would not
fit in memory: one n = 8 enumeration opens millions of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import Counter
from time import perf_counter_ns

LAYERS = ("lattice", "surface", "fibers", "divisors", "models", "ratpoly", "report", "cli")


class Tracer:
    """Span totals: self time per layer, calls and inclusive time per function."""

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # per open span: time covered by its children
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.incl_ns: Counter[str] = Counter()

    def wrap(self, layer: str, fn, name: str | None = None):
        key = f"{layer}.{name or fn.__name__}"
        stack, self_ns, calls, incl_ns = self.stack, self.self_ns, self.calls, self.incl_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                self_ns[layer] += took - children[0]
                incl_ns[key] += took
                calls[key] += 1
                if stack:
                    stack[-1][0] += took

        return span

    def totals(self) -> dict:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls), "incl_ns": dict(self.incl_ns)}

    def merge(self, totals: dict) -> None:
        self.self_ns.update(totals["self_ns"])
        self.calls.update(totals["calls"])
        self.incl_ns.update(totals["incl_ns"])


def _public_functions(mod) -> list:
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    return [
        obj
        for obj in (getattr(mod, n) for n in names)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
    ]


def install(tracer: Tracer):
    """Wrap every public twistoric function; returns a callable that undoes it."""
    import twistoric

    mods = [twistoric] + [importlib.import_module(f"twistoric.{m.name}") for m in pkgutil.iter_modules(twistoric.__path__)]
    wrappers = {}
    for mod in mods[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        for fn in _public_functions(mod):
            wrappers[fn] = tracer.wrap(layer, fn)
    patched = [(json, "dumps", json.dumps)]
    json.dumps = tracer.wrap("report", json.dumps, name="json")
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall() -> None:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)

    return uninstall
