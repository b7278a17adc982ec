"""Oracles and helpers shared across test modules.

Everything here is deliberately independent of the interpretations it
checks: the instruction counter walks trees directly, the step templates
evaluate in plain Python, and the name scanner only looks at text.
REFERENCE is the language every staged run is compared with.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

from stagedsl import core, highexpr as hi, lowexpr as lo
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
from stagedsl.translate import LetStrategy, TranslationConfig, UnrollPolicy

I32 = TypeTag.I32

# no compile: eval_closed evaluates every expression and a loop body is
# rebuilt and interpreted on every trip; hi.LANG is lo.LANG, so one suffices
REFERENCE = replace(lo.LANG, compile=None)

# the four lowering configs, every LetStrategy with every UnrollPolicy
CONFIGS = [TranslationConfig(let, unroll) for let in LetStrategy for unroll in UnrollPolicy]


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


def reached_nodes(prog) -> list:
    """Every program node a run reaches, found by direct structural
    recursion with loop bodies walked once and placeholder instruction
    results.  It must not go through interpret(), which it checks."""
    nodes = []

    def walk(p):
        nodes.append(p)
        if isinstance(p, Ret):
            return p.value
        if isinstance(p, Bind):
            return walk(p.rest(walk(p.first)))
        assert isinstance(p, Instr)
        if isinstance(p, ForLoop):
            walk(p.body(SymbolicVal(I32, "v0")))
            return None
        return _placeholder(p)

    walk(prog)
    return nodes


def fold_count(prog) -> int:
    """Count instructions, loop bodies counted once.  This is the oracle
    the counting handler is checked against."""
    return sum(isinstance(p, Instr) for p in reached_nodes(prog))


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


_QUOTED = re.compile(r'"((?:[^"\\]|\\[\\"ntr]|\\[0-7]{3})*)"')
_ESCAPE = re.compile(r"\\([\\\"ntr]|[0-7]{3})")
_SHORT = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def unquote(quoted: str) -> str:
    """The string a double-quoted print-string literal stands for.  Reads
    \\\\ \\" \\n \\t \\r and 3-digit octal escapes by its own rules, not
    by the printers' table, and refuses any other backslash or a bare quote."""
    m = _QUOTED.fullmatch(quoted)
    assert m, f"not a quoted string: {quoted!r}"
    return _ESCAPE.sub(lambda e: _SHORT.get(e[1]) or chr(int(e[1], 8)), m[1])


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


# --------------------------------------------------------------------------
# Deep trees: operator chains and Let nests at a depth where any recursive
# walk overflows the Python stack.  The builder, the oracle and the printer
# are all loops.  Shapes:
#   left, right, alternating   chains over + * not ==, the tree so far the
#                              left operand, the right one, or each in turn
#   let-body, let-shared       Lets nested in the body or the shared position

DEEP = 10_000
DEEP_SHAPES = ("left", "right", "alternating", "let-body", "let-shared")
# odd multipliers keep a long product from collapsing to zero mod 2**32
_FACTORS = (-3, -1, 3, 5, 7, 2**31 - 1)


@dataclass(frozen=True)
class DeepTree:
    tree: hi.Expr
    value: int | bool   # what eval_closed gives
    text: str | None    # what lo.render gives; None when the tree holds a Let


def _arith(rng: random.Random) -> tuple[str, int]:
    if rng.random() < 0.5:
        return "+", rng.randint(-(2**31), 2**31 - 1)
    return "*", rng.choice(_FACTORS)


def _apply(op: str, a, b):
    if op == "+":
        return wrap_i32(a + b)
    if op == "*":
        return wrap_i32(a * b)
    return a == b


_NODES = {"+": hi.Add, "*": hi.Mul, "==": hi.Eq}


def deep_tree(seed: int, shape: str, depth: int = DEEP) -> DeepTree:
    rng = random.Random(seed)
    start = rng.randint(-50, 50)
    if shape.startswith("let-"):
        steps = [_arith(rng) for _ in range(depth)]
        value = start
        for op, k in steps:
            value = _apply(op, value, k)
        if shape == "let-shared":
            tree = hi.lit(start)
            for op, k in steps:
                tree = hi.Let(tree, lambda x, op=op, k=k: _NODES[op](x, hi.lit(k)))
            return DeepTree(tree, value, None)
        last_op, last_k = steps[-1]
        body = lambda x: _NODES[last_op](x, hi.lit(last_k))
        for op, k in reversed(steps[:-1]):
            body = lambda x, op=op, k=k, inner=body: hi.Let(_NODES[op](x, hi.lit(k)), inner)
        return DeepTree(hi.Let(hi.lit(start), body), value, None)

    # a chain: i32 until an == turns it boolean, which some chains never do
    turn = rng.choice([depth, rng.randrange(depth)])
    tree, value = hi.lit(start), start
    prefixes, suffixes = [], []
    for i in range(depth):
        on_left = shape == "left" or (shape == "alternating" and i % 2 == 0)
        if isinstance(value, bool) and rng.random() < 0.5:
            tree, value = hi.Not(tree), not value
            prefixes.append("(not ")
            suffixes.append(")")
            continue
        if isinstance(value, bool):
            op, k = "==", rng.random() < 0.5
        elif i == turn:
            op, k = "==", rng.choice([value, rng.randint(-9, 9)])
        else:
            op, k = _arith(rng)
        node = _NODES[op]
        tree = node(tree, hi.lit(k)) if on_left else node(hi.lit(k), tree)
        value = _apply(op, value, k)
        if on_left:
            prefixes.append("(")
            suffixes.append(f" {op} {k})")
        else:
            prefixes.append(f"({k} {op} ")
            suffixes.append(")")
    text = "".join(reversed(prefixes)) + str(start) + "".join(suffixes)
    return DeepTree(tree, value, text)
