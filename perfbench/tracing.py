"""Per-layer spans for the traced run, installed from outside the package.

Every public function defined in a layer module is replaced by a wrapper that
counts calls and accumulates total and self time (span minus the spans of
wrapped calls made inside it).  Wrappers go on every name that refers to the
function, in every stagedsl module, because callers look functions up by
different names: translate calls `lower_expr` and `reexpress` through its own
globals, and pseudo imported `interpret` by name.  The two Language values
hold their own references to `eval_closed` and `render`, so they are swapped
for `dataclasses.replace`d copies that point at the wrappers; callers read
`lowexpr.LANG` / `highexpr.LANG` at call time.  Handlers handed to
`core.interpret` are wrapped too, as `<module>.handler`, and counted as
`core.instrs`.  Everything is put back on exit; no file under src/ changes.

Spans are aggregated per name rather than kept one by one, because a single
pass makes millions of calls.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("core", "translate", "runtime", "lowexpr", "highexpr", "pseudo", "cgen", "randprog")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self._child_s = [0.0]  # per open span: time covered by its children

    def span(self, name: str, fn):
        calls, total_s, self_s, child_s = self.calls, self.total_s, self.self_s, self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = child_s.pop()
                child_s[-1] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - children

        return traced

    def _handler(self, handler):
        owner = getattr(handler, "__self__", handler)
        traced = self.span(type(owner).__module__.rpartition(".")[2] + ".handler", handler)
        calls = self.calls

        def counted(cmd):
            calls["core.instrs"] += 1
            return traced(cmd)

        return counted

    def _interpret(self, interpret):
        traced = self.span("core.interpret", interpret)
        return lambda handler, prog: traced(self._handler(handler), prog)


@contextmanager
def installed(tracer: Tracer):
    """Route every call into the layer modules through the tracer."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "stagedsl"]
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"stagedsl.{layer}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                if (layer, attr) == ("core", "interpret"):
                    wrappers[obj] = tracer._interpret(obj)
                else:
                    wrappers[obj] = tracer.span(f"{layer}.{attr}", obj)
    undo = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    for module in (sys.modules["stagedsl.lowexpr"], sys.modules["stagedsl.highexpr"]):
        lang = module.LANG
        undo.append((module, "LANG", lang))
        module.LANG = dataclasses.replace(
            lang,
            eval_closed=wrappers.get(lang.eval_closed, lang.eval_closed),
            render=wrappers.get(lang.render, lang.render),
        )
    try:
        yield
    finally:
        for module, attr, obj in reversed(undo):
            setattr(module, attr, obj)
