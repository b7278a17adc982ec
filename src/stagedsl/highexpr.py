"""The rich expression language: everything the minimal one has, plus
let-sharing and iterated application.

There is no renderer for this language.  Evaluation of closed expressions
is the reference semantics: binder bodies are host functions, and the
evaluator instantiates them with literal nodes on every use.  Compilation of
open expressions, for staged loop bodies, instantiates each binder body once
with a generated variable instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .core import DslError, Language, Scope, TagError, TypeTag, UnboundVariableError, wrap_i32


class HighExpr:
    """Base class; same .tag discipline and +, * sugar as the low language."""

    def __add__(self, other: Any) -> "Add":
        return Add(self, _coerce(other))

    def __radd__(self, other: Any) -> "Add":
        return Add(_coerce(other), self)

    def __mul__(self, other: Any) -> "Mul":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: Any) -> "Mul":
        return Mul(_coerce(other), self)


@dataclass(frozen=True)
class Var(HighExpr):
    name: str
    tag: TypeTag


@dataclass(frozen=True)
class Lit(HighExpr):
    value: Any
    tag: TypeTag

    def __post_init__(self) -> None:
        if self.tag is TypeTag.BOOL:
            if not isinstance(self.value, bool):
                raise TagError(f"boolean literal from {type(self.value).__name__}")
        elif isinstance(self.value, bool) or not isinstance(self.value, int):
            raise TagError(f"i32 literal from {type(self.value).__name__}")
        else:
            object.__setattr__(self, "value", wrap_i32(self.value))


def _require_i32(node: str, *operands: HighExpr) -> None:
    for e in operands:
        if e.tag is not TypeTag.I32:
            raise TagError(f"{node}: needs i32 operands, got {e.tag.value}")


@dataclass(frozen=True)
class Add(HighExpr):
    left: HighExpr
    right: HighExpr

    def __post_init__(self) -> None:
        _require_i32("add", self.left, self.right)

    @property
    def tag(self) -> TypeTag:
        return TypeTag.I32


@dataclass(frozen=True)
class Mul(HighExpr):
    left: HighExpr
    right: HighExpr

    def __post_init__(self) -> None:
        _require_i32("mul", self.left, self.right)

    @property
    def tag(self) -> TypeTag:
        return TypeTag.I32


@dataclass(frozen=True)
class Not(HighExpr):
    operand: HighExpr

    def __post_init__(self) -> None:
        if self.operand.tag is not TypeTag.BOOL:
            raise TagError(f"not: needs a boolean, got {self.operand.tag.value}")

    @property
    def tag(self) -> TypeTag:
        return TypeTag.BOOL


@dataclass(frozen=True)
class Eq(HighExpr):
    left: HighExpr
    right: HighExpr

    def __post_init__(self) -> None:
        if self.left.tag is not self.right.tag:
            raise TagError(
                f"eq: operand tags differ, {self.left.tag.value} vs {self.right.tag.value}"
            )

    @property
    def tag(self) -> TypeTag:
        return TypeTag.BOOL


@dataclass(frozen=True)
class Let(HighExpr):
    """Bind the shared expression; the body maps the bound occurrence to the
    result.  Whether sharing is observed is the lowering pass's business."""

    shared: HighExpr
    body: Callable[[HighExpr], HighExpr]

    @property
    def tag(self) -> TypeTag:
        return self.body(self.shared).tag


@dataclass(frozen=True)
class Iter(HighExpr):
    """Apply step to init, count times.  A non-positive count yields init."""

    count: HighExpr
    init: HighExpr
    step: Callable[[HighExpr], HighExpr]

    def __post_init__(self) -> None:
        if self.count.tag is not TypeTag.I32:
            raise TagError(f"iter: count must be i32, got {self.count.tag.value}")
        if self.step(self.init).tag is not self.init.tag:
            raise TagError("iter: step must preserve the state's tag")

    @property
    def tag(self) -> TypeTag:
        return self.init.tag


def lit(value: Any) -> Lit:
    if isinstance(value, bool):
        return Lit(value, TypeTag.BOOL)
    if isinstance(value, int):
        return Lit(value, TypeTag.I32)
    raise TagError(f"no literal for {type(value).__name__}")


def _coerce(x: Any) -> HighExpr:
    return x if isinstance(x, HighExpr) else lit(x)


def eval_closed(e: HighExpr) -> Any:
    """Reference evaluator for closed expressions."""
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
        case Let(shared, body):
            return eval_closed(body(lit(eval_closed(shared))))
        case Iter(count, init, step):
            n = eval_closed(count)
            state = eval_closed(init)
            for _ in range(max(n, 0)):
                state = eval_closed(step(lit(state)))
            return state
    raise DslError(f"not a high expression: {e!r}")


def compile_open(e: HighExpr, scope: Scope) -> Callable[[dict[str, Any]], Any]:
    """Compile an expression whose free variables may be names the scope
    generated into a function of their values.  Let and Iter bodies are
    built once, over a fresh name.  Whatever eval_closed would reject, the
    function rejects the same way when it runs."""
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
        case Let(shared, body):
            name = scope.fresh("x")
            fshared = compile_open(shared, scope)
            fbody = compile_open(body(Var(name, shared.tag)), scope)

            def let(env):
                env[name] = fshared(env)
                return fbody(env)

            return let
        case Iter(count, init, step):
            name = scope.fresh("s")
            fcount, finit = compile_open(count, scope), compile_open(init, scope)
            fstep = compile_open(step(Var(name, init.tag)), scope)

            def iterate(env):
                n = fcount(env)
                env[name] = finit(env)
                for _ in range(n):
                    env[name] = fstep(env)
                return env[name]

            return iterate
    return lambda env: eval_closed(e)


def _const(tag: TypeTag, value: Any) -> Lit:
    return Lit(value, tag)


def _var(tag: TypeTag, name: str) -> Var:
    return Var(name, tag)


LANG = Language(
    name="high",
    const=_const,
    var=_var,
    eval_closed=eval_closed,
    render=None,
    compile=compile_open,
)
