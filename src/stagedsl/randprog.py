"""Seeded random generation of well-tagged rich-language programs, with
input scripts big enough to feed every read they can perform.

Generation happens in two phases so the same program can be interpreted any
number of times.  First one recursion per block takes every random decision,
statement by statement, and freezes them into pure builder closures; then the
builders assemble the tree, re-running deterministically whenever a loop or
binder body is instantiated.

Loop bounds and iteration counts are kept small and literal so no generated
program can run away; literal pools elsewhere include extreme values to
exercise wraparound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import highexpr as hi
from .core import (
    Program,
    TypeTag,
    for_loop,
    get_ref,
    init_ref,
    modify_ref,
    print_str,
    read_input,
    ret,
    set_ref,
    write_output,
)

I32 = TypeTag.I32
BOOL = TypeTag.BOOL

# none of these may look like a generated v<n>/r<n> name
PRINT_POOL = [
    "",
    "hi",
    " > ",
    "x=",
    "done\n",
    'quo"te',
    "back\\slash",
    "tab\tstop",
    "100% sure\n",
]

BIG_LITERALS = [2147483647, -2147483648, 123456789, -100000]


@dataclass(frozen=True)
class GenConfig:
    max_stmts: int = 7
    max_loop_depth: int = 2
    max_expr_depth: int = 3
    max_loop_bound: int = 3
    big_literal_rate: float = 0.10
    even_count_rate: float = 0.4
    input_span: int = 3  # script values drawn from [-span, span]


@dataclass
class GeneratedProgram:
    program: Program          # rich-language, unit result
    input_text: str
    max_reads: int


ExprBuilder = Callable[[list[hi.Expr]], hi.Expr]


def _literal(rng: random.Random, cfg: GenConfig, tag: TypeTag):
    if tag is BOOL:
        return rng.random() < 0.5
    if rng.random() < cfg.big_literal_rate:
        return rng.choice(BIG_LITERALS)
    return rng.randint(-4, 4)


def _count_expr(rng: random.Random, cfg: GenConfig) -> ExprBuilder:
    # iteration counts stay small by construction; the even form feeds the
    # unrolling policy its trigger pattern
    if rng.random() < cfg.even_count_rate:
        half = rng.randrange(0, 3)
        return lambda xs: hi.Mul(hi.lit(half), hi.lit(2))
    n = rng.randrange(0, 5)
    return lambda xs: hi.lit(n)


def _expr(
    rng: random.Random, cfg: GenConfig, tag: TypeTag, depth: int, scope: list[TypeTag]
) -> ExprBuilder:
    """Builder for an expression of the given tag; scope lists the tags of
    enclosing bound expressions, addressed by index."""
    in_scope = [i for i, t in enumerate(scope) if t is tag]
    kinds = ["lit", "lit"]
    if in_scope:
        kinds += ["var", "var", "var"]
    if depth > 0:
        if tag is I32:
            kinds += ["add", "mul", "let", "iter"]
        else:
            kinds += ["not", "eq", "let", "iter"]
    kind = rng.choice(kinds)

    if kind == "var":
        i = rng.choice(in_scope)
        return lambda xs: xs[i]
    if kind == "lit":
        v = _literal(rng, cfg, tag)
        return lambda xs: hi.lit(v)
    if kind in ("add", "mul"):
        fa = _expr(rng, cfg, I32, depth - 1, scope)
        fb = _expr(rng, cfg, I32, depth - 1, scope)
        node = hi.Add if kind == "add" else hi.Mul
        return lambda xs: node(fa(xs), fb(xs))
    if kind == "not":
        fa = _expr(rng, cfg, BOOL, depth - 1, scope)
        return lambda xs: hi.Not(fa(xs))
    if kind == "eq":
        t = rng.choice([I32, BOOL])
        fa = _expr(rng, cfg, t, depth - 1, scope)
        fb = _expr(rng, cfg, t, depth - 1, scope)
        return lambda xs: hi.Eq(fa(xs), fb(xs))
    if kind == "let":
        t = rng.choice([I32, BOOL])
        fshared = _expr(rng, cfg, t, depth - 1, scope)
        fbody = _expr(rng, cfg, tag, depth - 1, scope + [t])
        return lambda xs: hi.Let(fshared(xs), lambda x: fbody(xs + [x]))
    # iter: the state's tag is the result tag
    fcount = _count_expr(rng, cfg)
    finit = _expr(rng, cfg, tag, depth - 1, scope)
    fstep = _expr(rng, cfg, tag, depth - 1, scope + [tag])
    return lambda xs: hi.Iter(fcount(xs), finit(xs), lambda s: fstep(xs + [s]))


BlockBuilder = Callable[[list, list], Program]  # (refs, bound exprs) -> unit program


def _block(
    rng: random.Random,
    cfg: GenConfig,
    loop_depth: int,
    ref_tags: list[TypeTag],
    expr_tags: list[TypeTag],
    n_stmts: int,
) -> tuple[BlockBuilder, int]:
    """Builder for a statement block, plus the most reads it can perform.
    The first statement's kind takes its draws, then states the ref and expr
    tags the rest of the block sees, the reads it adds, and make(rest), its
    builder around the rest's; one call after it generates the rest."""
    if n_stmts <= 0:
        return (lambda refs, xs: ret(None)), 0

    kinds = ["print", "write", "read", "init"]
    if ref_tags:
        kinds += ["set", "get", "modify"]
    if loop_depth > 0:
        kinds += ["for", "for"]
    kind = rng.choice(kinds)
    depth = cfg.max_expr_depth
    rest_refs, rest_exprs, reads = ref_tags, expr_tags, 0

    if kind == "print":
        text = rng.choice(PRINT_POOL)
        make = lambda rest: lambda refs, xs: print_str(text).then(rest(refs, xs))

    elif kind == "write":
        fe = _expr(rng, cfg, I32, depth, expr_tags)
        make = lambda rest: lambda refs, xs: write_output(fe(xs)).then(rest(refs, xs))

    elif kind == "read":
        rest_exprs, reads = expr_tags + [I32], 1
        make = lambda rest: (
            lambda refs, xs: read_input(hi.LANG).bind(lambda x: rest(refs, xs + [x]))
        )

    elif kind == "init":
        t = rng.choice([I32, I32, BOOL])
        fe = _expr(rng, cfg, t, depth, expr_tags)
        rest_refs = ref_tags + [t]
        make = lambda rest: (
            lambda refs, xs: init_ref(fe(xs)).bind(lambda r: rest(refs + [r], xs))
        )

    elif kind == "set":
        i = rng.randrange(len(ref_tags))
        fe = _expr(rng, cfg, ref_tags[i], depth, expr_tags)
        make = lambda rest: lambda refs, xs: set_ref(refs[i], fe(xs)).then(rest(refs, xs))

    elif kind == "get":
        i = rng.randrange(len(ref_tags))
        rest_exprs = expr_tags + [ref_tags[i]]
        make = lambda rest: (
            lambda refs, xs: get_ref(hi.LANG, refs[i]).bind(lambda x: rest(refs, xs + [x]))
        )

    elif kind == "modify":
        i = rng.randrange(len(ref_tags))
        fe = _expr(rng, cfg, ref_tags[i], depth, expr_tags + [ref_tags[i]])
        make = lambda rest: lambda refs, xs: modify_ref(
            hi.LANG, refs[i], lambda x: fe(xs + [x])
        ).then(rest(refs, xs))

    else:
        # for: a literal bound, occasionally negative to cover the no-run case
        bound = rng.randrange(-1, cfg.max_loop_bound + 1)
        body_len = rng.randrange(1, 4)
        fbody, body_reads = _block(
            rng, cfg, loop_depth - 1, ref_tags, expr_tags + [I32], body_len
        )
        reads = max(bound, 0) * body_reads
        make = lambda rest: lambda refs, xs: for_loop(
            hi.LANG, hi.lit(bound), lambda i: fbody(refs, xs + [i])
        ).then(rest(refs, xs))

    rest, rest_reads = _block(rng, cfg, loop_depth, rest_refs, rest_exprs, n_stmts - 1)
    return make(rest), reads + rest_reads


def random_program(rng: random.Random, cfg: GenConfig = GenConfig()) -> GeneratedProgram:
    n = rng.randrange(1, cfg.max_stmts + 1)
    builder, max_reads = _block(rng, cfg, cfg.max_loop_depth, [], [], n)
    program = builder([], [])
    lines = []
    for _ in range(max_reads + 2):
        value = rng.randint(-cfg.input_span, cfg.input_span)
        pad = " " if rng.random() < 0.2 else ""
        lines.append(f"{pad}{value}{pad}")
    return GeneratedProgram(program, "".join(f"{ln}\n" for ln in lines), max_reads)


def corpus(seed: int, size: int, cfg: GenConfig = GenConfig()) -> list[GeneratedProgram]:
    rng = random.Random(seed)
    return [random_program(rng, cfg) for _ in range(size)]
