"""The rich expression language: the expression core plus let-sharing and
iterated application.

Var, Lit, Add, Mul, Not, Eq, lit, eval_closed and compile_open are
lowexpr's own objects, re-exported, so a low-language expression is already
a rich one and both languages evaluate and compile by each node's rule.
This module adds only Let and Iter, each with its rules for closed
evaluation and open compilation, and LANG, which is lowexpr's with its own
name and no renderer.

Evaluation of closed expressions is the reference semantics: binder bodies
are host functions, and the evaluator instantiates them with literal nodes
on every use.  Compilation of open expressions, for staged loop bodies,
instantiates each binder body once with a generated variable instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from . import lowexpr as lo
from .core import Scope, TagError, TypeTag
from .lowexpr import (  # noqa: F401  (re-exported)
    Add, Compiled, Eq, Expr, Lit, Mul, Not, Var, compile_open, eval_closed, lit,
)


@dataclass(frozen=True)
class Let(Expr):
    """Bind the shared expression; the body maps the bound occurrence to the
    result.  Whether sharing is observed is the lowering pass's business."""

    shared: Expr
    body: Callable[[Expr], Expr]

    @property
    def tag(self) -> TypeTag:
        return self.body(self.shared).tag

    def evaluate(self) -> Any:
        return self.body(lit(self.shared.evaluate())).evaluate()

    def compile(self, scope: Scope) -> Compiled:
        # the body is built once, over a fresh name
        name = scope.fresh("x")
        fshared = self.shared.compile(scope)
        fbody = self.body(Var(name, self.shared.tag)).compile(scope)

        def let(env):
            env[name] = fshared(env)
            return fbody(env)

        return let


@dataclass(frozen=True)
class Iter(Expr):
    """Apply step to init, count times.  A non-positive count yields init."""

    count: Expr
    init: Expr
    step: Callable[[Expr], Expr]

    def __post_init__(self) -> None:
        if self.count.tag is not TypeTag.I32:
            raise TagError(f"iter: count must be i32, got {self.count.tag.value}")
        if self.step(self.init).tag is not self.init.tag:
            raise TagError("iter: step must preserve the state's tag")

    @property
    def tag(self) -> TypeTag:
        return self.init.tag

    def evaluate(self) -> Any:
        n = self.count.evaluate()
        state = self.init.evaluate()
        for _ in range(n):
            state = self.step(lit(state)).evaluate()
        return state

    def compile(self, scope: Scope) -> Compiled:
        # the step is built once, over a fresh name
        name = scope.fresh("s")
        fcount, finit = self.count.compile(scope), self.init.compile(scope)
        fstep = self.step(Var(name, self.init.tag)).compile(scope)

        def iterate(env):
            n = fcount(env)
            env[name] = finit(env)
            for _ in range(n):
                env[name] = fstep(env)
            return env[name]

        return iterate


LANG = replace(lo.LANG, name="high", render=None)
