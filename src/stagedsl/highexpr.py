"""The rich expression language: the expression core plus let-sharing and
iterated application.

Var, Lit, Add, Mul, Not, Eq, lit, eval_closed and compile_open are
lowexpr's own objects, re-exported, so a low-language expression is already
a rich one and both languages evaluate and compile through lowexpr's fold.
This module adds only Let and Iter and their entries in the evaluation and
compilation rule tables; LANG is lowexpr's LANG itself, whose text table
has no rule for Let or Iter, so a program prints only once its
expressions are low.

Both classes are binders.  Evaluation of closed expressions is the
reference semantics: it instantiates binder bodies with literal nodes on
every use.  Compilation, which the runtime uses for every expression,
instantiates each binder body at most once, with a generated variable
instead: a Let's body when the fold reaches it, with a step assigning the
variable; an Iter's step through hot.loop, whose body is a store of the
compiled step's new state or, once the Iter is hot, hot.iter_step's function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable, Iterator

from . import hot, lowexpr as lo
from .core import TagError, TypeTag
from .lowexpr import (  # noqa: F401  (re-exported)
    Add, Compiled, Eq, Expr, Lit, Mul, Not, Var, compile_open, eval_closed, lit,
)


@dataclass
class Let(Expr):
    """Bind the shared expression; the body maps the bound occurrence to the
    result.  Whether sharing is observed is the lowering pass's business."""

    shared: Expr
    body: Callable[[Expr], Expr]
    operands = None

    def __post_init__(self) -> None:
        # Read the shared expression's tag while it is new: a Let keeps its
        # tag once found, so no tag then waits on Lets nested in shared position.
        self.shared.tag  # noqa: B018

    @cached_property
    def tag(self) -> TypeTag:
        e: Expr = self
        while isinstance(e, Let):  # a chain of Lets nested in body position
            e = e.body(e.shared)
        return e.tag


@dataclass
class Iter(Expr):
    """Apply step to init, count times.  A non-positive count yields init."""

    count: Expr
    init: Expr
    step: Callable[[Expr], Expr]
    operands = None

    def __post_init__(self) -> None:
        if self.count.tag is not TypeTag.I32:
            raise TagError(f"iter: count must be i32, got {self.count.tag.value}")
        self.tag = self.init.tag
        if self.step(self.init).tag is not self.tag:
            raise TagError("iter: step must preserve the state's tag")


def _eval_let(e: Let, _context: Any) -> Iterator[Expr]:
    shared = yield e.shared
    return (yield e.body(lit(shared)))


def _eval_iter(e: Iter, _context: Any) -> Iterator[Expr]:
    n = yield e.count
    state = yield e.init
    step, tag = e.step, e.init.tag
    for _ in range(n):
        state = yield step(Lit(state, tag))
    return state


def _flat_let(e: Let, flat: tuple) -> Iterator[Expr]:
    # the body is built once, over a fresh name that a step assigns
    name = flat[0].fresh("x", e.shared.tag)
    shared, _ = yield e.shared
    flat[1].append(lo._store(name, shared))
    return (yield e.body(Var(name, e.shared.tag)))


def _flat_iter(e: Iter, flat: tuple) -> Iterator[Expr]:
    # the step is built by hot.loop, over a fresh name; no step reads a
    # counter, so there is none
    scope, steps = flat
    name = scope.fresh("s", e.tag)
    (count, _), (init, _) = (yield e.count), (yield e.init)
    step = lambda: e.step(Var(name, e.tag))
    stage = lambda stepped: [lo._store(name, compile_open(stepped, scope))]
    iterate = hot.loop(None, count, step, stage, partial(hot.iter_step, scope, name))
    steps += [lo._store(name, init), iterate]  # count reads no name this store sets
    return (lambda env: env[name]), 1


lo.EVAL.update({Let: _eval_let, Iter: _eval_iter})
lo.FLAT.update({Let: _flat_let, Iter: _flat_iter})

LANG = lo.LANG
