"""Lowering: rewrite programs over the rich expression language into
programs over the minimal one.

Simple constructors map across unchanged.  The two rich constructs turn into
instructions: a let becomes a reference initialisation plus a read-back (or
plain substitution, by configuration), and an iteration becomes a counted
loop threading its state through a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import highexpr as hi
from . import lowexpr as lo
from . import pseudo
from .core import (
    DslError,
    GetRef,
    Instr,
    Program,
    Ret,
    get_ref,
    for_loop,
    init_ref,
    reexpress,
    seq,
    set_ref,
    val_to_exp,
)


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


def lower_expr(e: hi.HighExpr, config: TranslationConfig = DEFAULT_CONFIG) -> Program:
    """Translate one rich expression into a program over the minimal
    language that yields the translated expression."""

    def lower(sub: hi.HighExpr) -> Program:
        return lower_expr(sub, config)

    match e:
        case hi.Var(name, tag):
            return Ret(lo.Var(name, tag))
        case hi.Lit(value, tag):
            return Ret(lo.Lit(value, tag))
        case hi.Add(a, b):
            return lower(a).bind(lambda a2: lower(b).bind(lambda b2: Ret(lo.Add(a2, b2))))
        case hi.Mul(a, b):
            return lower(a).bind(lambda a2: lower(b).bind(lambda b2: Ret(lo.Mul(a2, b2))))
        case hi.Not(a):
            return lower(a).bind(lambda a2: Ret(lo.Not(a2)))
        case hi.Eq(a, b):
            return lower(a).bind(lambda a2: lower(b).bind(lambda b2: Ret(lo.Eq(a2, b2))))
        case hi.Let(shared, body):
            if config.let_strategy is LetStrategy.BY_NAME:
                return lower(body(shared))
            # The read-back must be the raw instruction: its result feeds the
            # rich-language body, not the minimal language.
            return lower(shared).bind(
                lambda init: init_ref(init).bind(
                    lambda r: Instr(GetRef(r)).bind(
                        lambda val: lower(body(val_to_exp(hi.LANG, val)))
                    )
                )
            )
        case hi.Iter(count, init, step):
            # Only a literal half below 2**30 makes count * 2 a non-wrapping,
            # non-negative doubling: the low language has no comparison, so
            # it cannot compute how many passes any other count gives.
            if (
                config.unroll is UnrollPolicy.EVEN_BY_2
                and isinstance(count, hi.Mul)
                and isinstance(count.right, hi.Lit)
                and count.right.value == 2
                and isinstance(count.left, hi.Lit)
                and 0 <= count.left.value < 2**30
            ):
                return _lower_iter(count.left, init, step, config, steps_per_pass=2)
            return _lower_iter(count, init, step, config, steps_per_pass=1)
    raise DslError(f"not a high expression: {e!r}")


def _lower_iter(
    count: hi.HighExpr,
    init: hi.HighExpr,
    step: Callable[[hi.HighExpr], hi.HighExpr],
    config: TranslationConfig,
    steps_per_pass: int,
) -> Program:
    def one_step(r) -> Program:
        # Raw read-back again: the step body lives in the rich language.
        return Instr(GetRef(r)).bind(
            lambda prev: lower_expr(step(val_to_exp(hi.LANG, prev)), config).bind(
                lambda nxt: set_ref(r, nxt)
            )
        )

    return lower_expr(count, config).bind(
        lambda n: lower_expr(init, config).bind(
            lambda s0: init_ref(s0).bind(
                lambda r: for_loop(
                    lo.LANG, n, lambda _counter: seq(*(one_step(r) for _ in range(steps_per_pass)))
                ).then(get_ref(lo.LANG, r))
            )
        )
    )


def lower_program(prog: Program, config: TranslationConfig = DEFAULT_CONFIG) -> Program:
    """Lower every expression operand in a program."""
    return reexpress(lambda e: lower_expr(e, config), prog)


def compile_pseudo(prog: Program, config: TranslationConfig = DEFAULT_CONFIG) -> str:
    """Lower a rich-language program and render it as pseudo-code."""
    return pseudo.render_program(lower_program(prog, config))
