"""The minimal expression language: variables, literals, +, *, not, ==.

This is the language code generators understand.  It evaluates closed
expressions, compiles open ones for staged loop bodies, and renders to text;
all three are total on well-tagged trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .core import DslError, Language, Scope, TagError, TypeTag, UnboundVariableError, wrap_i32


class LowExpr:
    """Base class.  Nodes carry a .tag; + and * build wrapped 32-bit
    arithmetic nodes, coercing plain ints to literals."""

    def __add__(self, other: Any) -> "Add":
        return Add(self, _coerce(other))

    def __radd__(self, other: Any) -> "Add":
        return Add(_coerce(other), self)

    def __mul__(self, other: Any) -> "Mul":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: Any) -> "Mul":
        return Mul(_coerce(other), self)


@dataclass(frozen=True)
class Var(LowExpr):
    name: str
    tag: TypeTag


@dataclass(frozen=True)
class Lit(LowExpr):
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


def _require_i32(node: str, *operands: LowExpr) -> None:
    for e in operands:
        if e.tag is not TypeTag.I32:
            raise TagError(f"{node}: needs i32 operands, got {e.tag.value}")


@dataclass(frozen=True)
class Add(LowExpr):
    left: LowExpr
    right: LowExpr

    def __post_init__(self) -> None:
        _require_i32("add", self.left, self.right)

    @property
    def tag(self) -> TypeTag:
        return TypeTag.I32


@dataclass(frozen=True)
class Mul(LowExpr):
    left: LowExpr
    right: LowExpr

    def __post_init__(self) -> None:
        _require_i32("mul", self.left, self.right)

    @property
    def tag(self) -> TypeTag:
        return TypeTag.I32


@dataclass(frozen=True)
class Not(LowExpr):
    operand: LowExpr

    def __post_init__(self) -> None:
        if self.operand.tag is not TypeTag.BOOL:
            raise TagError(f"not: needs a boolean, got {self.operand.tag.value}")

    @property
    def tag(self) -> TypeTag:
        return TypeTag.BOOL


@dataclass(frozen=True)
class Eq(LowExpr):
    left: LowExpr
    right: LowExpr

    def __post_init__(self) -> None:
        if self.left.tag is not self.right.tag:
            raise TagError(
                f"eq: operand tags differ, {self.left.tag.value} vs {self.right.tag.value}"
            )

    @property
    def tag(self) -> TypeTag:
        return TypeTag.BOOL


def lit(value: Any) -> Lit:
    """Literal from a host value, inferring the tag."""
    if isinstance(value, bool):
        return Lit(value, TypeTag.BOOL)
    if isinstance(value, int):
        return Lit(value, TypeTag.I32)
    raise TagError(f"no literal for {type(value).__name__}")


def _coerce(x: Any) -> LowExpr:
    return x if isinstance(x, LowExpr) else lit(x)


def eval_closed(e: LowExpr) -> Any:
    """Evaluate an expression with no free variables."""
    match e:
        case Lit(value, _):
            return value
        case Var(name, _):
            raise UnboundVariableError(f"unbound variable {name}")
        case Add(a, b):
            return wrap_i32(eval_closed(a) + eval_closed(b))
        case Mul(a, b):
            return wrap_i32(eval_closed(a) * eval_closed(b))
        case Not(a):
            return not eval_closed(a)
        case Eq(a, b):
            return eval_closed(a) == eval_closed(b)
    raise DslError(f"not a low expression: {e!r}")


def compile_open(e: LowExpr, scope: Scope) -> Callable[[dict[str, Any]], Any]:
    """Compile an expression whose free variables may be names the scope
    generated into a function of their values.  Whatever eval_closed would
    reject, the function rejects the same way when it runs."""
    match e:
        case Lit(value, _):
            return lambda env: value
        case Var(name, _) if name in scope:
            return lambda env: env[name]
        case Add(a, b):
            fa, fb = compile_open(a, scope), compile_open(b, scope)
            return lambda env: wrap_i32(fa(env) + fb(env))
        case Mul(a, b):
            fa, fb = compile_open(a, scope), compile_open(b, scope)
            return lambda env: wrap_i32(fa(env) * fb(env))
        case Not(a):
            fa = compile_open(a, scope)
            return lambda env: not fa(env)
        case Eq(a, b):
            fa, fb = compile_open(a, scope), compile_open(b, scope)
            return lambda env: fa(env) == fb(env)
    return lambda env: eval_closed(e)


def render(e: LowExpr) -> str:
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
