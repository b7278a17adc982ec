"""The expression core: variables, literals, +, *, not, ==, and the one fold
that every consumer of expressions goes through.

These six node classes are the minimal language, the one code generators
understand, and also the core that the rich language (highexpr) extends
with two more classes.  Each class names the fields holding its operands,
and fold walks a tree bottom-up on an explicit stack, so neither operand
depth nor binder nesting grows the Python stack.  A consumer is a table of
rules, one per node class; this module holds closed evaluation and flat
compilation, to which highexpr adds its two classes, and rendering, which
knows only the six core classes.  The hot tier's table is in hot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from .core import DslError, Language, Scope, TagError, TypeTag, UnboundVariableError, wrap_i32

Compiled = Callable[[dict[str, Any]], Any]


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


def _named(e: Var, scope: Scope | None) -> str:
    """Every text table's Var rule: its name, which a scope, if given, generated."""
    return e.name if scope is None or e.name in scope else _unbound(e, scope)


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
    Var: _named,
    Lit: lambda e, _: str(e.value),
    Add: lambda _, a, b: f"({a} + {b})",
    Mul: lambda _, a, b: f"({a} * {b})",
    Not: lambda _, a: f"(not {a})",
    Eq: lambda _, a, b: f"({a} == {b})",
})


def render(e: Expr, scope: Scope | None = None) -> str:
    """Print an expression.  Every operator application gets parentheses,
    so distinct trees read distinctly.  Over a scope, a variable it did not
    generate is unbound; with none, every name prints as written."""
    return fold(_TEXT, e, scope)


LANG = Language(
    const=Lit,
    var=Var,
    eval_closed=eval_closed,
    render=render,
    compile=compile_open,
)
