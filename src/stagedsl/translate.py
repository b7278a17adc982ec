"""Lowering: rewrite programs over the rich expression language into
programs over the minimal one.

Lowering an expression is a table of rules for lowexpr.fold, whose
results are programs.  The six core constructors are the minimal
language's own, so they map across unchanged once their operands' programs
have run.  The two rich constructs turn into instructions: a let becomes a
reference initialisation plus a read-back (or plain substitution, by
configuration), and an iteration becomes a counted loop threading its state
through a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from . import highexpr as hi
from . import lowexpr as lo
from .core import (
    Program,
    Ret,
    get_ref,
    for_loop,
    init_ref,
    reexpress,
    seq,
    set_ref,
)
from .lowexpr import Rules, fold


class LetStrategy(Enum):
    """How lowering realises let-bindings."""

    BY_VALUE = "by-value"   # store once, read back; sharing preserved
    BY_NAME = "by-name"     # substitute; work may be duplicated


class UnrollPolicy(Enum):
    NONE = "none"
    # a count written <k> * 2, k a literal in [0, 2**30), runs k passes of two steps
    EVEN_BY_2 = "even2"


@dataclass(frozen=True)
class TranslationConfig:
    let_strategy: LetStrategy = LetStrategy.BY_VALUE
    unroll: UnrollPolicy = UnrollPolicy.NONE


DEFAULT_CONFIG = TranslationConfig()


def _rebuild(cls: type) -> Callable[..., Program]:
    """An operator's rule: run its operands' programs in order, then yield
    the node over their results."""

    def rule(_config, *programs: Program, done: tuple = ()) -> Program:
        if len(done) == len(programs):
            return Ret(cls(*done))
        return programs[len(done)].bind(lambda x: rule(_config, *programs, done=(*done, x)))

    return rule


def _lower_let(e: hi.Let, config: TranslationConfig) -> Iterator[hi.Expr]:
    if config.let_strategy is LetStrategy.BY_NAME:
        return (yield e.body(e.shared))
    shared = yield e.shared
    return shared.bind(
        lambda init: init_ref(init).bind(
            lambda r: get_ref(lo.LANG, r).bind(lambda x: lower_expr(e.body(x), config))
        )
    )


def _lower_iter(e: hi.Iter, config: TranslationConfig) -> Iterator[hi.Expr]:
    # Only a literal half below 2**30 makes count * 2 a non-wrapping,
    # non-negative doubling: the low language has no comparison, so it
    # cannot compute how many passes any other count gives.
    count, steps_per_pass = e.count, 1
    if (
        config.unroll is UnrollPolicy.EVEN_BY_2
        and isinstance(count, hi.Mul)
        and isinstance(count.right, hi.Lit)
        and count.right.value == 2
        and isinstance(count.left, hi.Lit)
        and 0 <= count.left.value < 2**30
    ):
        count, steps_per_pass = count.left, 2
    lowered_count = yield count
    lowered_init = yield e.init

    def one_step(r) -> Program:
        return get_ref(lo.LANG, r).bind(
            lambda prev: lower_expr(e.step(prev), config).bind(lambda nxt: set_ref(r, nxt))
        )

    return lowered_count.bind(
        lambda n: lowered_init.bind(
            lambda s0: init_ref(s0).bind(
                lambda r: for_loop(
                    lo.LANG,
                    n,
                    lambda _counter: seq(*(one_step(r) for _ in range(steps_per_pass))),
                ).then(get_ref(lo.LANG, r))
            )
        )
    )


_LOWER = Rules("not a high expression", {
    hi.Var: lambda e, _: Ret(e),
    hi.Lit: lambda e, _: Ret(e),
    **{cls: _rebuild(cls) for cls in (hi.Add, hi.Mul, hi.Not, hi.Eq)},
    hi.Let: _lower_let,
    hi.Iter: _lower_iter,
})


def lower_expr(e: hi.Expr, config: TranslationConfig = DEFAULT_CONFIG) -> Program:
    """Translate one rich expression into a program over the minimal
    language that yields the translated expression.  A tree with no Let or
    Iter translates to itself, with no instructions."""
    return fold(_LOWER, e, config)


def lower_program(prog: Program, config: TranslationConfig = DEFAULT_CONFIG) -> Program:
    """Lower every expression operand in a program."""
    return reexpress(lambda e: lower_expr(e, config), prog)

