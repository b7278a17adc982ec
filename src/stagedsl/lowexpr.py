"""The expression core: variables, literals, +, *, not, ==, and the one fold
that every consumer of expressions goes through.

These six node classes are the minimal language, the one code generators
understand, and also the core that the rich language (highexpr) extends
with two more classes.  Each class names the fields holding its operands,
and fold walks a tree bottom-up on an explicit stack, so neither operand
depth nor binder nesting grows the Python stack.  A consumer is a table of
rules, one per node class; this module holds closed evaluation and open
compilation, to which highexpr adds its two classes, and rendering, which
knows only the six core classes and so rejects anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    takes the node and the context; an operator's takes its operands'
    results; a binder's takes the node and the context and is a generator
    that yields each expression it instantiates, is sent its result, and
    returns its own."""
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
                    parent, value = None, rule(*results)
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
    Add: lambda a, b: wrap_i32(a + b),
    Mul: lambda a, b: wrap_i32(a * b),
    Not: lambda a: not a,
    Eq: lambda a, b: a == b,
})


def _compile_var(e: Var, scope: Scope) -> Compiled:
    name = e.name
    if name in scope:
        return lambda env: env[name]
    return lambda env: _unbound(e, scope)


def _compile_lit(e: Lit, _scope: Scope) -> Compiled:
    value = e.value
    return lambda env: value


COMPILE = Rules("cannot compile", {
    Var: _compile_var,
    Lit: _compile_lit,
    Add: lambda fa, fb: lambda env: wrap_i32(fa(env) + fb(env)),
    Mul: lambda fa, fb: lambda env: wrap_i32(fa(env) * fb(env)),
    Not: lambda fa: lambda env: not fa(env),
    Eq: lambda fa, fb: lambda env: fa(env) == fb(env),
})


def eval_closed(e: Expr) -> Any:
    """Evaluate an expression with no free variables."""
    return fold(EVAL, e)


def compile_open(e: Expr, scope: Scope) -> Compiled:
    """Compile an expression whose free variables may be names the scope
    generated into a function of their values.  Whatever eval_closed would
    reject, the function rejects the same way when it runs."""
    return fold(COMPILE, e, scope)


_TEXT = Rules("not a low expression", {
    Var: lambda e, _: e.name,
    Lit: lambda e, _: str(e.value),
    Add: "({} + {})".format,
    Mul: "({} * {})".format,
    Not: "(not {})".format,
    Eq: "({} == {})".format,
})


def render(e: Expr) -> str:
    """Print an expression.  Every operator application gets parentheses,
    so distinct trees read distinctly."""
    return fold(_TEXT, e)


LANG = Language(
    const=Lit,
    var=Var,
    eval_closed=eval_closed,
    render=render,
    compile=compile_open,
)
