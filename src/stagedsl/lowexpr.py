"""The expression core: variables, literals, +, *, not, ==.

These six node classes are the minimal language, the one code generators
understand, and also the core that the rich language (highexpr) extends
with two more classes.  Each class carries its own rules for evaluating a
closed expression and for compiling an open one for staged loop bodies, so
an extension adds cases by adding classes.  Rendering is a match over the
six classes alone: it is total on well-tagged trees of this language and
rejects anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .core import DslError, Language, Scope, TagError, TypeTag, UnboundVariableError, wrap_i32

Compiled = Callable[[dict[str, Any]], Any]


class Expr:
    """Base class.  Nodes carry a .tag; + and * build wrapped 32-bit
    arithmetic nodes, coercing plain ints to literals.

    Every node class defines evaluate(), its case of eval_closed, and
    compile(scope), its case of compile_open."""

    def __add__(self, other: Any) -> "Add":
        return Add(self, _coerce(other))

    def __radd__(self, other: Any) -> "Add":
        return Add(_coerce(other), self)

    def __mul__(self, other: Any) -> "Mul":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: Any) -> "Mul":
        return Mul(_coerce(other), self)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    tag: TypeTag

    def evaluate(self) -> Any:
        raise UnboundVariableError(f"unbound variable {self.name}")

    def compile(self, scope: Scope) -> Compiled:
        name = self.name
        if name in scope:
            return lambda env: env[name]
        return lambda env: self.evaluate()


@dataclass(frozen=True)
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
        else:
            object.__setattr__(self, "value", wrap_i32(self.value))

    def evaluate(self) -> Any:
        return self.value

    def compile(self, scope: Scope) -> Compiled:
        value = self.value
        return lambda env: value


def _require_i32(node: str, *operands: Expr) -> None:
    for e in operands:
        if e.tag is not TypeTag.I32:
            raise TagError(f"{node}: needs i32 operands, got {e.tag.value}")


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr
    tag = TypeTag.I32

    def __post_init__(self) -> None:
        _require_i32("add", self.left, self.right)

    def evaluate(self) -> int:
        return wrap_i32(self.left.evaluate() + self.right.evaluate())

    def compile(self, scope: Scope) -> Compiled:
        fa, fb = self.left.compile(scope), self.right.compile(scope)
        return lambda env: wrap_i32(fa(env) + fb(env))


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr
    tag = TypeTag.I32

    def __post_init__(self) -> None:
        _require_i32("mul", self.left, self.right)

    def evaluate(self) -> int:
        return wrap_i32(self.left.evaluate() * self.right.evaluate())

    def compile(self, scope: Scope) -> Compiled:
        fa, fb = self.left.compile(scope), self.right.compile(scope)
        return lambda env: wrap_i32(fa(env) * fb(env))


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr
    tag = TypeTag.BOOL

    def __post_init__(self) -> None:
        if self.operand.tag is not TypeTag.BOOL:
            raise TagError(f"not: needs a boolean, got {self.operand.tag.value}")

    def evaluate(self) -> bool:
        return not self.operand.evaluate()

    def compile(self, scope: Scope) -> Compiled:
        fa = self.operand.compile(scope)
        return lambda env: not fa(env)


@dataclass(frozen=True)
class Eq(Expr):
    left: Expr
    right: Expr
    tag = TypeTag.BOOL

    def __post_init__(self) -> None:
        if self.left.tag is not self.right.tag:
            raise TagError(
                f"eq: operand tags differ, {self.left.tag.value} vs {self.right.tag.value}"
            )

    def evaluate(self) -> bool:
        return self.left.evaluate() == self.right.evaluate()

    def compile(self, scope: Scope) -> Compiled:
        fa, fb = self.left.compile(scope), self.right.compile(scope)
        return lambda env: fa(env) == fb(env)


def lit(value: Any) -> Lit:
    """Literal from a host value, inferring the tag."""
    if isinstance(value, bool):
        return Lit(value, TypeTag.BOOL)
    if isinstance(value, int):
        return Lit(value, TypeTag.I32)
    raise TagError(f"no literal for {type(value).__name__}")


def _coerce(x: Any) -> Expr:
    return x if isinstance(x, Expr) else lit(x)


def eval_closed(e: Expr) -> Any:
    """Evaluate an expression with no free variables, by each node's rule."""
    return e.evaluate()


def compile_open(e: Expr, scope: Scope) -> Compiled:
    """Compile an expression whose free variables may be names the scope
    generated into a function of their values.  Whatever eval_closed would
    reject, the function rejects the same way when it runs."""
    return e.compile(scope)


def render(e: Expr) -> str:
    """Print an expression.  Every operator application gets parentheses,
    so distinct trees read distinctly."""
    match e:
        case Var(name, _):
            return name
        case Lit(value, tag):
            if tag is TypeTag.BOOL:
                return "True" if value else "False"
            return str(value)
        case Add(a, b):
            return f"({render(a)} + {render(b)})"
        case Mul(a, b):
            return f"({render(a)} * {render(b)})"
        case Not(a):
            return f"(not {render(a)})"
        case Eq(a, b):
            return f"({render(a)} == {render(b)})"
    raise DslError(f"not a low expression: {e!r}")


def _const(tag: TypeTag, value: Any) -> Lit:
    return Lit(value, tag)


def _var(tag: TypeTag, name: str) -> Var:
    return Var(name, tag)


LANG = Language(
    name="low",
    const=_const,
    var=_var,
    eval_closed=eval_closed,
    render=render,
    compile=compile_open,
)
