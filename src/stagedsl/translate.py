"""Lowering: rewrite programs over the rich expression language into
programs over the minimal one.

The six core constructors are the minimal language's own, so they map
across unchanged with only their operands lowered.  The two rich constructs
turn into instructions: a let becomes a reference initialisation plus a
read-back (or plain substitution, by configuration), and an iteration
becomes a counted loop threading its state through a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from . import highexpr as hi
from . import lowexpr as lo
from . import pseudo
from .core import (
    DslError,
    Program,
    Ret,
    get_ref,
    for_loop,
    init_ref,
    reexpress,
    seq,
    set_ref,
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


def lower_expr(e: hi.Expr, config: TranslationConfig = DEFAULT_CONFIG) -> Program:
    """Translate one rich expression into a program over the minimal
    language that yields the translated expression."""

    def lower(sub: hi.Expr) -> Program:
        return lower_expr(sub, config)

    match e:
        case hi.Var() | hi.Lit():
            return Ret(e)
        case hi.Not(a):
            return lower(a).bind(lambda a2: Ret(hi.Not(a2)))
        case hi.Add(a, b) | hi.Mul(a, b) | hi.Eq(a, b):
            return lower(a).bind(lambda a2: lower(b).bind(lambda b2: Ret(type(e)(a2, b2))))
        case hi.Let(shared, body):
            if config.let_strategy is LetStrategy.BY_NAME:
                return lower(body(shared))
            return lower(shared).bind(
                lambda init: init_ref(init).bind(
                    lambda r: get_ref(lo.LANG, r).bind(lambda x: lower(body(x)))
                )
            )
        case hi.Iter(count, init, step):
            # Only a literal half below 2**30 makes count * 2 a non-wrapping,
            # non-negative doubling: the low language has no comparison, so
            # it cannot compute how many passes any other count gives.
            steps_per_pass = 1
            if (
                config.unroll is UnrollPolicy.EVEN_BY_2
                and isinstance(count, hi.Mul)
                and isinstance(count.right, hi.Lit)
                and count.right.value == 2
                and isinstance(count.left, hi.Lit)
                and 0 <= count.left.value < 2**30
            ):
                count, steps_per_pass = count.left, 2

            def one_step(r) -> Program:
                return get_ref(lo.LANG, r).bind(
                    lambda prev: lower(step(prev)).bind(lambda nxt: set_ref(r, nxt))
                )

            return lower(count).bind(
                lambda n: lower(init).bind(
                    lambda s0: init_ref(s0).bind(
                        lambda r: for_loop(
                            lo.LANG,
                            n,
                            lambda _counter: seq(*(one_step(r) for _ in range(steps_per_pass))),
                        ).then(get_ref(lo.LANG, r))
                    )
                )
            )
    raise DslError(f"not a high expression: {e!r}")


def lower_program(prog: Program, config: TranslationConfig = DEFAULT_CONFIG) -> Program:
    """Lower every expression operand in a program."""
    return reexpress(lambda e: lower_expr(e, config), prog)


def compile_pseudo(prog: Program, config: TranslationConfig = DEFAULT_CONFIG) -> str:
    """Lower a rich-language program and render it as pseudo-code."""
    return pseudo.render_program(lower_program(prog, config))
