"""The expression core: variables, literals, +, *, not, ==, and the one fold
that every consumer of expressions goes through.

These six node classes are the minimal language, the one code generators
understand, and also the core that the rich language (highexpr) extends
with two more classes.  Each class names the fields holding its operands,
and fold walks a tree bottom-up on an explicit stack, so neither operand
depth nor binder nesting grows the Python stack.  A consumer is a table of
rules, one per node class; this module holds closed evaluation and flat
compilation, to which highexpr adds its two classes, and rendering and the
Python text of hot loop bodies and Iter steps, which know only the six core
classes and so reject anything else.  Source assembles that text into the
one kind of generated function both hot tiers run, and loop builds the one
step that runs a staged loop or an Iter: it alone decides when a body runs
as that function, once its trips, summed over its runs, reach HOT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from .core import (
    ConcreteRef, DslError, Language, Scope, TagError, TypeTag, UnboundVariableError, generated,
    wrap_i32,
)

Compiled = Callable[[dict[str, Any]], Any]
Generated = Callable[[dict[str, Any], int], None]  # n trips of a hot body, see Source


class Expr:
    """Base class.  Nodes carry a .tag; + and * build wrapped 32-bit
    arithmetic nodes, coercing plain ints to literals.  `operands` names
    the fields holding sub-expressions, in fold order, or is None for a
    binder, whose rule yields what it instantiates."""

    operands: tuple[str, ...] | None = ()

    def __add__(self, other: Any) -> "Add":
        return Add(self, _coerce(other))

    def __radd__(self, other: Any) -> "Add":
        return Add(_coerce(other), self)

    def __mul__(self, other: Any) -> "Mul":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: Any) -> "Mul":
        return Mul(_coerce(other), self)


@dataclass
class Var(Expr):
    name: str
    tag: TypeTag


@dataclass
class Lit(Expr):
    value: Any
    tag: TypeTag

    def __post_init__(self) -> None:
        # bool is an int subclass, so test it first
        if self.tag is TypeTag.BOOL:
            if not isinstance(self.value, bool):
                raise TagError(f"boolean literal from {type(self.value).__name__}")
        elif isinstance(self.value, bool) or not isinstance(self.value, int):
            raise TagError(f"i32 literal from {type(self.value).__name__}")
        elif not -(2**31) <= self.value < 2**31:
            self.value = wrap_i32(self.value)


@dataclass
class _Arithmetic(Expr):
    left: Expr
    right: Expr
    tag = TypeTag.I32
    operands = ("left", "right")

    def __post_init__(self) -> None:
        if self.left.tag is not TypeTag.I32 or self.right.tag is not TypeTag.I32:
            bad = self.left if self.left.tag is not TypeTag.I32 else self.right
            node = type(self).__name__.lower()
            raise TagError(f"{node}: needs i32 operands, got {bad.tag.value}")


class Add(_Arithmetic):
    """Wrapping 32-bit addition."""


class Mul(_Arithmetic):
    """Wrapping 32-bit multiplication."""


@dataclass
class Not(Expr):
    operand: Expr
    tag = TypeTag.BOOL
    operands = ("operand",)

    def __post_init__(self) -> None:
        if self.operand.tag is not TypeTag.BOOL:
            raise TagError(f"not: needs a boolean, got {self.operand.tag.value}")


@dataclass
class Eq(Expr):
    left: Expr
    right: Expr
    tag = TypeTag.BOOL
    operands = ("left", "right")

    def __post_init__(self) -> None:
        if self.left.tag is not self.right.tag:
            raise TagError(
                f"eq: operand tags differ, {self.left.tag.value} vs {self.right.tag.value}"
            )


def lit(value: Any) -> Lit:
    """Literal from a host value, inferring the tag; Lit checks the value."""
    return Lit(value, TypeTag.BOOL if isinstance(value, bool) else TypeTag.I32)


def _coerce(x: Any) -> Expr:
    return x if isinstance(x, Expr) else lit(x)


class Rules(dict):
    """One consumer of expressions: its rule for each node class (see fold).
    A class with no rule is rejected by name, since repr() of a deep tree
    would recurse."""

    def __init__(self, refusal: str, rules: dict[type, Callable[..., Any]]) -> None:
        super().__init__(rules)
        self.refusal = refusal

    def __missing__(self, cls: type) -> Any:
        raise DslError(f"{self.refusal}: {cls.__name__}")


def fold(rules: Rules, e: Expr, context: Any = None) -> Any:
    """Fold an expression bottom-up on an explicit stack.  A leaf's rule
    takes the node and the context; an operator's takes the context and its
    operands' results; a binder's takes the node and the context and is a
    generator that yields each expression it instantiates, is sent its
    result, and returns its own."""
    # per open node: a binder's generator, or an operator's (rule, node,
    # operand names, results so far)
    stack: list[Any] = []
    node = e
    while True:
        rule, names = rules[type(node)], type(node).operands
        if names is None:
            stack.append(rule(node, context))
            parent, value = None, None
        elif names:
            parent, results = node, []
        else:
            parent, value = None, rule(node, context)
        while True:
            if parent is not None:  # fold operands in place while they are leaves
                for name in names[len(results):]:
                    node = getattr(parent, name)
                    kind = type(node)
                    node_rule = rules[kind]
                    if kind.operands != ():
                        stack.append((rule, parent, names, results))
                        break
                    results.append(node_rule(node, context))
                else:
                    parent, value = None, rule(context, *results)
                if parent is not None:
                    break
            if not stack:
                return value
            if type(stack[-1]) is tuple:
                rule, parent, names, results = stack.pop()
                results.append(value)
                continue
            try:
                node = stack[-1].send(value)
                break
            except StopIteration as done:
                stack.pop()
                value = done.value


def _unbound(e: Var, _context: Any) -> Any:
    raise UnboundVariableError(f"unbound variable {e.name}")


EVAL = Rules("cannot evaluate", {
    Var: _unbound,
    Lit: lambda e, _: e.value,
    Add: lambda _, a, b: wrap_i32(a + b),
    Mul: lambda _, a, b: wrap_i32(a * b),
    Not: lambda _, a: not a,
    Eq: lambda _, a, b: a == b,
})


# FLAT's context is the scope and the list of steps that run, in order,
# before the closures folded so far are read.  A rule gives a closure and how
# deep closures nest in it; at _DEPTH a step stores the value instead.
_DEPTH = 100


def _store(name: str, value: Compiled) -> Compiled:
    def step(env):
        env[name] = value(env)

    return step


def _flat_var(e: Var, flat: tuple[Scope, list]) -> tuple[Compiled, int]:
    if e.name not in flat[0]:  # raise in fold order, as eval_closed does
        flat[1].append(lambda env: _unbound(e, flat))
    return (lambda env, name=e.name: env[name]), 1


def _op(tag: TypeTag, make: Callable[..., Compiled], flat, a, b=(None, 0)):
    """An operator's rule, given its tag and its closure's maker."""
    (fa, da), (fb, db) = a, b
    value, depth = make(fa, fb), max(da, db) + 1
    if depth < _DEPTH:
        return value, depth
    name = flat[0].fresh("t", tag)
    flat[1].append(_store(name, value))
    return (lambda env: env[name]), 1


FLAT = Rules("cannot compile", {
    Var: _flat_var,
    Lit: lambda e, _: ((lambda env, value=e.value: value), 1),
    Add: partial(_op, TypeTag.I32, lambda fa, fb: lambda env: wrap_i32(fa(env) + fb(env))),
    Mul: partial(_op, TypeTag.I32, lambda fa, fb: lambda env: wrap_i32(fa(env) * fb(env))),
    Not: partial(_op, TypeTag.BOOL, lambda fa, _: lambda env: not fa(env)),
    Eq: partial(_op, TypeTag.BOOL, lambda fa, fb: lambda env: fa(env) == fb(env)),
})


def eval_closed(e: Expr) -> Any:
    """Evaluate an expression with no free variables."""
    return fold(EVAL, e)


def compile_open(e: Expr, scope: Scope) -> Compiled:
    """Compile an expression over names the scope generated into a function
    of their values: steps, then a read, which fail where eval_closed would."""
    if type(e) is Lit:  # most closed expressions a program runs
        return FLAT[Lit](e, scope)[0]
    steps: list = []
    result, _ = fold(FLAT, e, (scope, steps))
    if not steps:
        return result

    def run(env):
        for step in steps:
            step(env)
        return result(env)

    return run


_TEXT = Rules("not a low expression", {
    Var: lambda e, _: e.name,
    Lit: lambda e, _: str(e.value),
    Add: lambda _, a, b: f"({a} + {b})",
    Mul: lambda _, a, b: f"({a} * {b})",
    Not: lambda _, a: f"(not {a})",
    Eq: lambda _, a, b: f"({a} == {b})",
})


def render(e: Expr) -> str:
    """Print an expression.  Every operator application gets parentheses,
    so distinct trees read distinctly."""
    return fold(_TEXT, e)


# A staged loop's or an Iter's trips, summed over its runs, at which it
# runs as generated source.  Generating powerInput's loop body costs about
# 115 us, and each trip then saves about 0.9 us, so it pays from about 130
# trips; the default randprog corpus has not been seen to sum past 144.
HOT = 256

# PYTHON's context is a Source.  A rule gives Python text and how deep
# operators nest in it; at _NEST a line stores the value in a fresh local
# instead, since CPython refuses text nested 200 parentheses deep.
_NEST = 40
# wrap_i32 as Python text: a mask runs faster than % 2**32
_WRAP = "((({} + 0x80000000) & 0xFFFFFFFF) - 0x80000000)"


class Source:
    """Python source over a scope's names, for the hot loop bodies and
    Iter steps: its lines in order, among them the temporaries that the
    text folded so far reads, the namespace constants they name and the
    generated names they read.  Only the repr() of an int or bool literal
    becomes text."""

    def __init__(self, scope: Scope) -> None:
        self.scope, self.lines, self.consts, self.reads = scope, [], {}, set()

    def const(self, value: Any) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def expr(self, e: Expr) -> str:
        """The text of e, or DslError for an expression that only compile
        handles: a binder or a variable the scope did not generate."""
        return fold(PYTHON, e, self)[0]

    def ref(self, ref: Any) -> str:
        """The text naming a reference: a constant for a live cell, or a
        generated name; StageError for any other, whose steps fail when run."""
        if isinstance(ref, ConcreteRef):
            return self.const(ref)
        self.reads.add(generated(ref, self.scope))
        return ref.name

    def function(self, counter: str, load: list[str], store: list[str]) -> Generated:
        """The lines as one function, loop(env, n): it loads the names in
        load from env once, runs the lines under `for counter in range(n):`
        and stores the names in store back to env after the last trip, so n
        must be positive.  The function holds the namespace of constants,
        which does not hold it."""
        text = "\n".join([
            "def loop(env, n):",
            *(f"    {name} = env[{name!r}]" for name in load),
            f"    for {counter} in range(n):",
            *(f"        {line}" for line in self.lines or ["pass"]),
            *(f"    env[{name!r}] = {name}" for name in store),
        ])
        exec(compile(text, "<staged loop>", "exec"), self.consts)
        return self.consts.pop("loop")


def loop(counter: str, count: Compiled, stage: Callable, generate: Callable) -> Compiled:
    """The step that runs a staged loop body or an Iter's step: it evaluates
    the count, stages the body's steps on the first trip that runs, then
    runs them once per trip with the trip's number bound to counter.  Once
    the trips summed over all its runs reach HOT it runs generate()'s
    function instead, trying generate once; None keeps the steps.  The step
    is this closure itself, so a nested loop's step costs one Python frame."""
    steps: list[Compiled] | None = None
    trips, source = 0, None  # source: None until tried, then a function or False

    def step(env):
        nonlocal steps, trips, source
        n = count(env)
        if n <= 0:
            return
        if steps is None:
            steps = stage()
        trips += n
        if trips >= HOT:
            if source is None:
                source = generate() or False
            if source:
                return source(env, n)
        for k in range(n):
            env[counter] = k
            for s in steps:
                s(env)

    return step


def _source_var(e: Var, source: Source) -> tuple[str, int]:
    if e.name not in source.scope:
        _unbound(e, source)
    source.reads.add(e.name)
    return e.name, 0


def _source_lit(e: Lit, source: Source) -> tuple[str, int]:
    text = repr(e.value) if type(e.value) in (int, bool) else source.const(e.value)
    return text, 0


def _source_op(tag: TypeTag, form: str, source: Source, a, b=(None, 0)) -> tuple[str, int]:
    (ta, da), (tb, db) = a, b
    text, depth = form.format(ta, tb), max(da, db) + 1
    if depth < _NEST:
        return text, depth
    name = source.scope.fresh("t", tag)
    source.lines.append(f"{name} = {text}")
    return name, 0


PYTHON = Rules("cannot generate Python for", {
    Var: _source_var,
    Lit: _source_lit,
    Add: partial(_source_op, TypeTag.I32, _WRAP.format("{} + {}")),
    Mul: partial(_source_op, TypeTag.I32, _WRAP.format("{} * {}")),
    Not: partial(_source_op, TypeTag.BOOL, "(not {})"),
    Eq: partial(_source_op, TypeTag.BOOL, "({} == {})"),
})


LANG = Language(
    const=Lit,
    var=Var,
    eval_closed=eval_closed,
    render=render,
    compile=compile_open,
)
