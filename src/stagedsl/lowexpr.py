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
one kind of generated function both hot tiers run, and alone decides where
a mask may be deferred (see _PASS); loop builds the one step that runs a
staged loop or an Iter: it alone keeps a body, and decides when the body
runs as that function.  The README's account of the hot tier says how that
function computes, and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from types import CodeType
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
# runs as generated source.  powerInput's loop body costs about 145 us more
# to generate than to stage, most of it compile() of a text that holds the
# trip five times (see _PASS), paid once per text per process (_code), and
# about 12 us more once the text is compiled; each trip then saves about
# 0.5 us (CPython 3.11.7, one pinned core).  So a text's first run pays from
# about 285 trips and a later run from about 25.  HOT stays 256: a first
# run of HOT trips loses about 15 us once per text, and the default randprog
# corpus has not been seen to reach it, as its loops sum to at most 144.
HOT = 256

# PYTHON's context is a Source.  A rule gives Python text, how deep
# operators nest in it, and how to make the text canonical (see Source): None
# if it is, else the text _WRAP takes, an operator's unmasked `a op b` or a
# residue's name.  At _NEST a line stores the value in a fresh local instead,
# since CPython refuses text nested 200 parentheses deep.
_NEST = 40
# wrap_i32 of any integer as Python text, in wrap_i32's own masked form
_WRAP = "((({} + 0x80000000) & 0xFFFFFFFF) - 0x80000000)"
# The trips per pass of a generated function that stores one i32 carried
# local, an Iter's state or a live cell, and reads no counter: all but the
# last trip of a pass store that local's unmasked top operator (see
# Source.function).  Every consumer of a residue, a masked operator, an Eq or
# _WRAP, reduces any integer exactly, so only the size of the raw local needs
# a bound.  Every other value of a trip is masked or canonical, or a copy of
# the local as the trip found it, so a local within 32 bits at most doubles
# its bits per trip, at s * s, and stays within 32 * 2**3 = 256 bits in a
# pass.  A body that stores two carried locals keeps every mask, since stores
# that feed each other's raw values could grow by 2**k bits per trip.
_PASS = 4


class Source:
    """Python source over a scope's names, for the hot loop bodies and
    Iter steps: its lines in order, among them the temporaries that the
    text folded so far reads, the namespace constants they name, the
    generated names they read and the live cells they reach.  Only the
    repr() of an int or bool literal becomes text.  An expression that only
    compile handles, a binder or a variable the scope did not generate, is
    a DslError.

    An i32 is a residue in the text: any integer congruent to its value
    mod 2**32.  An operator's result is only masked into [0, 2**32), and a
    carried local between the trips of a pass of function is not even that,
    but stays within 256 bits (see _PASS); literals, names loaded from env,
    read()'s results, the counter and the values of cells reached through
    env are canonical, that is signed.  A value is made canonical only
    where it is observed: by value(), for output, a new cell and a write
    through env; by an Eq, which compares masked operands once either is a
    residue; and at the stores of function.  A live cell, a ConcreteRef, is
    a local of the function; residues holds it, if an i32, as it holds each
    generated name that may hold a residue.  A carried local, a live cell's
    or an Iter's state, passes its value from one trip to the next; carried
    holds each i32 one stored, by store(): its last store's line, and that
    line with the top operator unmasked."""

    def __init__(self, scope: Scope) -> None:
        self.scope, self.lines, self.consts, self.reads = scope, [], {}, set()
        self.residues: set[str] = set()
        self.cells: dict[int, tuple[str, str]] = {}  # by id: its local and its constant
        self.carried: dict[str, tuple[str, str]] = {}

    def const(self, value: Any) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def value(self, e: Expr) -> str:
        """The canonical text of e; an operator's gets _WRAP, not a mask."""
        text, _, raw = fold(PYTHON, e, self)
        return text if raw is None else _WRAP.format(raw)

    def residue(self, name: str, tag: TypeTag) -> None:
        """Let the generated name hold an i32 as a residue."""
        if tag is TypeTag.I32:
            self.residues.add(name)

    def get(self, name: str, ref: Any) -> str:
        """The line binding name to a reference's value."""
        if isinstance(ref, ConcreteRef):
            self.residue(name, ref.tag)
            return f"{name} = {self._cell(ref)}"
        return f"{name} = {self._generated(ref)}.value"

    def store(self, local: str, e: Expr) -> str:
        """The line storing e in a carried local, which the caller appends;
        carried keeps an i32 local's line, masked and not (see function)."""
        text, _, raw = fold(PYTHON, e, self)
        line = f"{local} = {text}"
        if local in self.residues:
            self.carried[local] = line, f"{local} = {text if raw is None else raw}"
        return line

    def set(self, ref: Any, e: Expr) -> str:
        """The line writing e's value to a reference."""
        if isinstance(ref, ConcreteRef):
            return self.store(self._cell(ref), e)
        value = self.value(e)
        return f"{self._generated(ref)}.value = {value}"

    def _cell(self, ref: ConcreteRef) -> str:
        # one local per cell: the walk gives each use a reference of its own
        if id(ref) not in self.cells:
            local = f"_r{len(self.cells)}"
            self.residue(local, ref.tag)
            self.cells[id(ref)] = local, self.const(ref)
        return self.cells[id(ref)][0]

    def _generated(self, ref: Any) -> str:
        # StageError for a reference the scope did not generate, whose steps fail when run
        self.reads.add(generated(ref, self.scope))
        return ref.name

    def _canonical(self, name: str) -> str:
        return _WRAP.format(name) if name in self.residues else name

    def _stored(self, name: str, counter: str | None) -> str:
        # a counter no line reads is not iterated: n - 1 is what range leaves
        if name == counter and counter not in self.reads:
            return "n - 1"
        return self._canonical(name)

    def function(self, counter: str | None, load: list[str], store: list[str]) -> Generated:
        """The lines as one function, loop(env, n): it loads the names in
        load from env and each live cell into its local once, runs n trips
        of the lines, stores each cell back in a finally, so that after a
        return or a raise it holds what the steps would leave, and stores
        the names in store back to env after the last trip, so n must be
        positive.  Each stored i32 is canonical.  A counter that a line
        reads runs as `for counter in range(n):`; else, or for a counter of
        None, the trips are `for _ in _repeat(None, n):`, which builds no
        int per trip, and a stored counter is n - 1, as range leaves it.
        With no counter read and exactly one i32 carried local stored, the
        function runs n // _PASS passes, each _PASS - 1 trips whose last
        store to that local is unmasked and one trip of the lines, then
        n % _PASS trips of the lines.  The function holds the namespace of
        constants, which does not hold it; the text is compiled once per
        process."""
        trip = [f"    {line}" for line in self.lines or ["pass"]]
        if counter in self.reads:  # which None never is
            body = [f"for {counter} in range(n):", *trip]
        elif len(self.carried) != 1:
            body = ["for _ in _repeat(None, n):", *trip]
        else:
            [(masked, unmasked)] = self.carried.values()
            last = len(trip) - 1 - self.lines[::-1].index(masked)
            raw = [*trip[:last], f"    {unmasked}", *trip[last + 1:]]
            body = [
                f"for _ in _repeat(None, n // {_PASS}):",
                *(raw * (_PASS - 1)),
                *trip,
                f"for _ in _repeat(None, n % {_PASS}):",
                *trip,
            ]
        if self.cells:
            cells = self.cells.values()
            body = [
                *(f"{local} = {const}.value" for local, const in cells),
                "try:",
                *(f"    {line}" for line in body),
                "finally:",
                *(f"    {const}.value = {self._canonical(local)}" for local, const in cells),
            ]
        text = "\n".join([
            "def loop(env, n):",
            *(f"    {name} = env[{name!r}]" for name in load),
            *(f"    {line}" for line in body),
            *(f"    env[{name!r}] = {self._stored(name, counter)}" for name in store),
        ])
        self.consts["_repeat"] = repeat
        exec(_code(text), self.consts)
        return self.consts.pop("loop")


@lru_cache(maxsize=512)  # a fixed bound, as re bounds its pattern cache
def _code(text: str) -> CodeType:
    """A Source's text compiled once per process: no constant is text."""
    return compile(text, "<staged loop>", "exec")


def loop(
    counter: str | None, count: Compiled, instantiate: Callable, stage: Callable, generate: Callable
) -> Compiled:
    """The step that runs a staged loop body or an Iter's step.  It evaluates
    the count; on its first run that takes a trip it calls instantiate() once
    and keeps the body.  Once the trips, summed over its runs, reach HOT, it
    runs them as generate(body)'s function, trying generate once; a DslError
    from generate is a refusal.  Else the trips run stage(body)'s steps, built
    on the first run that needs them, with the trip's number bound to counter
    unless it is None, as for an Iter, whose step reads no counter.  A nested
    loop's step, this closure, is one frame."""
    body = steps = source = None  # source: None until tried, then a function or False
    trips = 0

    def step(env):
        nonlocal body, steps, trips, source
        n = count(env)
        if n <= 0:
            return
        if body is None:
            body = instantiate()
        trips += n
        if trips >= HOT:
            if source is None:
                try:
                    source = generate(body)
                except DslError:
                    source = False
            if source:
                return source(env, n)
        if steps is None:
            steps = stage(body)
        if counter is None:
            for _ in range(n):
                for s in steps:
                    s(env)
            return
        for k in range(n):
            env[counter] = k
            for s in steps:
                s(env)

    return step


def _source_var(e: Var, source: Source) -> tuple[str, int, str | None]:
    if e.name not in source.scope:
        _unbound(e, source)
    source.reads.add(e.name)
    return e.name, 0, (e.name if e.name in source.residues else None)


def _source_lit(e: Lit, source: Source) -> tuple[str, int, None]:
    text = repr(e.value) if type(e.value) in (int, bool) else source.const(e.value)
    return text, 0, None


def _nested(source: Source, tag: TypeTag, text: str, depth: int, raw: str | None):
    if depth < _NEST:
        return text, depth, raw
    name = source.scope.fresh("t", tag)
    source.lines.append(f"{name} = {text}")
    source.residue(name, tag)
    return name, 0, None if raw is None else name


def _source_arithmetic(op: str, source: Source, a, b) -> tuple[str, int, str]:
    (ta, da, _), (tb, db, _) = a, b
    raw = f"{ta} {op} {tb}"
    return _nested(source, TypeTag.I32, f"(({raw}) & 0xFFFFFFFF)", max(da, db) + 1, raw)


def _masked(text: str, raw: str | None) -> str:
    # an operator's text is masked already; a name or a canonical text is not
    return text if raw not in (None, text) else f"({text} & 0xFFFFFFFF)"


def _source_eq(source: Source, a, b) -> tuple[str, int, None]:
    (ta, da, ra), (tb, db, rb) = a, b
    if ra is not None or rb is not None:  # i32 operands, one a residue
        ta, tb = _masked(ta, ra), _masked(tb, rb)
    return _nested(source, TypeTag.BOOL, f"({ta} == {tb})", max(da, db) + 1, None)


PYTHON = Rules("cannot generate Python for", {
    Var: _source_var,
    Lit: _source_lit,
    Add: partial(_source_arithmetic, "+"),
    Mul: partial(_source_arithmetic, "*"),
    Not: lambda source, a: _nested(source, TypeTag.BOOL, f"(not {a[0]})", a[1] + 1, None),
    Eq: _source_eq,
})


LANG = Language(
    const=Lit,
    var=Var,
    eval_closed=eval_closed,
    render=render,
    compile=compile_open,
)
