"""Oracles and helpers shared across test modules.

Everything here is deliberately independent of the interpretations it
checks: the instruction counter walks trees directly, the step templates
evaluate in plain Python, and the name scanner only looks at text.
"""

from __future__ import annotations

import random
import re

from stagedsl import core, highexpr as hi
from stagedsl.core import (
    Bind,
    ForLoop,
    GetRef,
    InitRef,
    Instr,
    ReadInput,
    Ret,
    SymbolicRef,
    SymbolicVal,
    TypeTag,
    wrap_i32,
)

I32 = TypeTag.I32


def _placeholder(cmd):
    """A stand-in result for one instruction, good enough to keep
    continuations well-tagged without running anything."""
    if isinstance(cmd, InitRef):
        return SymbolicRef(cmd.init.tag, "r0")
    if isinstance(cmd, GetRef):
        return SymbolicVal(cmd.ref.tag, "v0")
    if isinstance(cmd, ReadInput):
        return SymbolicVal(I32, "v0")
    return None


def fold_count(prog) -> int:
    """Count instructions by direct structural recursion, loop bodies
    counted once.  This is the oracle the counting handler is checked
    against, so it must not go through interpret()."""

    def walk(p):
        if isinstance(p, Ret):
            return 0, p.value
        if isinstance(p, Bind):
            c1, v1 = walk(p.first)
            c2, v2 = walk(p.rest(v1))
            return c1 + c2, v2
        assert isinstance(p, Instr)
        cmd = p.cmd
        if isinstance(cmd, ForLoop):
            body_count, _ = walk(cmd.body(SymbolicVal(I32, "v0")))
            return 1 + body_count, None
        return 1, _placeholder(cmd)

    count, _ = walk(prog)
    return count


class CountingHandler:
    """Instruction counter as an interpret() handler, same counting
    convention as fold_count."""

    def __init__(self):
        self.count = 0

    def __call__(self, cmd):
        self.count += 1
        if isinstance(cmd, ForLoop):
            core.interpret(self, cmd.body(SymbolicVal(I32, "v0")))
            return None
        return _placeholder(cmd)


def right_nest(prog):
    """Rebracket every Bind to the right without touching anything else.

    (a >>= f) >>= g   becomes   a >>= (\\x -> f x >>= g)
    """
    if isinstance(prog, Bind):
        first = prog.first
        if isinstance(first, Bind):
            inner, f, g = first.first, first.rest, prog.rest
            return right_nest(Bind(inner, lambda x: Bind(f(x), g)))
        rest = prog.rest
        return Bind(first, lambda x: right_nest(rest(x)))
    return prog


_NAME = re.compile(r"\b([vr])([0-9]+)\b")


def fresh_suffixes_in_order(text: str) -> list[int]:
    """Numeric suffixes of generated v/r names, in order of first
    appearance."""
    seen: list[int] = []
    known: set[str] = set()
    for m in _NAME.finditer(text):
        if m.group(0) not in known:
            known.add(m.group(0))
            seen.append(int(m.group(2)))
    return seen


# --------------------------------------------------------------------------
# First-order step templates: expressions in one hole, evaluable both as
# rich-language trees and directly in Python.  Shapes:
#   ("hole",) | ("lit", v) | ("add", t, t) | ("mul", t, t)

def gen_template(rng: random.Random, depth: int = 3):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return ("hole",) if rng.random() < 0.6 else ("lit", rng.randint(-50, 50))
    op = rng.choice(["add", "mul"])
    return (op, gen_template(rng, depth - 1), gen_template(rng, depth - 1))


def template_to_high(t, x: hi.Expr) -> hi.Expr:
    match t:
        case ("hole",):
            return x
        case ("lit", v):
            return hi.lit(v)
        case ("add", a, b):
            return hi.Add(template_to_high(a, x), template_to_high(b, x))
        case ("mul", a, b):
            return hi.Mul(template_to_high(a, x), template_to_high(b, x))
    raise ValueError(t)


def template_eval(t, x: int) -> int:
    match t:
        case ("hole",):
            return x
        case ("lit", v):
            return wrap_i32(v)
        case ("add", a, b):
            return wrap_i32(template_eval(a, x) + template_eval(b, x))
        case ("mul", a, b):
            return wrap_i32(template_eval(a, x) * template_eval(b, x))
    raise ValueError(t)


def iter_oracle(n: int, init: int, template) -> int:
    """The n-fold loop the Iter construct is specified against."""
    state = wrap_i32(init)
    for _ in range(max(n, 0)):
        state = template_eval(template, state)
    return state
