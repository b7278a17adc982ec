"""The hot tier: a staged loop's body or an Iter's step run as one
generated Python function, in the style of Lightweight Modular Staging.

This module alone knows the generated source.  It holds loop, the one step
that runs a staged loop or an Iter and decides when its body runs hot; the
two printers, loop_body for a loop's staged statements and iter_step for an
Iter's step; Source, which assembles their lines into one function; and
PYTHON, the rule table that gives an expression's text.  The README's
account of the hot tier says how that function computes, and why.
"""

from __future__ import annotations

from contextlib import suppress
from functools import lru_cache, partial
from itertools import repeat
from types import CodeType
from typing import Any, Callable

from .core import (
    ConcreteRef, DslError, GetRef, InitRef, Instr, PrintStr, ReadInput, Scope, SetRef, TypeTag,
    WriteOutput, generated,
)
from .lowexpr import Add, Compiled, Eq, Expr, Lit, Mul, Not, Rules, Var, _named, fold

Generated = Callable[[dict[str, Any], int], None]  # n trips of a hot body, see Source

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
# Source.function).  Every consumer of a residue, a masked operator or _WRAP
# (an Eq's operands among them), reduces any integer exactly, so only the size
# of the raw local needs a bound.  Every other value of a trip is masked or
# canonical, or a copy of the local as the trip found it, so a local within 32
# bits at most doubles its bits per trip, at s * s, and stays within
# 32 * 2**3 = 256 bits in a pass.  A body that stores two carried locals
# keeps every mask, since stores that feed each other's raw values could grow
# by 2**k bits per trip.
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
    where it is observed, always by _canonical: by value(), for output, a
    new cell and a write through env; by an Eq, for each operand, so it
    compares signed values; and at the stores of function.  ref() gives a
    reference's text: a live cell, a ConcreteRef, is a local of the function,
    which residues holds if an i32, as it holds each generated name that may
    hold a residue.  A carried local, a live cell's or an Iter's state, passes
    its value from one trip to the next; carried holds each i32 one, by
    store(): its last store's position among the lines, and that line with
    the top operator unmasked."""

    def __init__(self, scope: Scope) -> None:
        self.scope, self.lines, self.consts, self.reads = scope, [], {}, set()
        self.residues: set[str] = set()
        self.cells: dict[int, tuple[str, str]] = {}  # by id: its local and its constant
        self.carried: dict[str, tuple[int, str]] = {}

    def const(self, value: Any) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def value(self, e: Expr) -> str:
        """The canonical text of e; an operator's gets _WRAP, not a mask."""
        return _canonical(*fold(PYTHON, e, self))

    def residue(self, name: str, tag: TypeTag) -> None:
        """Let the generated name hold an i32 as a residue."""
        if tag is TypeTag.I32:
            self.residues.add(name)

    def ref(self, ref: Any) -> str:
        """The text a reference is read and written through: a live cell's
        local, or name.value for a name core.generated finds the scope
        generated; else a StageError, which the steps raise when run."""
        if not isinstance(ref, ConcreteRef):
            self.reads.add(generated(ref, self.scope))
            return f"{ref.name}.value"
        # one local per cell: the walk gives each use a reference of its own
        if id(ref) not in self.cells:
            local = f"_r{len(self.cells)}"
            self.residue(local, ref.tag)
            self.cells[id(ref)] = local, self.const(ref)
        return self.cells[id(ref)][0]

    def store(self, target: str, e: Expr) -> str:
        """The line storing e in target, which the caller appends next: a
        residue target, a carried local, gets e's masked text and carried
        keeps its position and unmasked line (see function); any other
        target gets value(e)."""
        if target not in self.residues:
            return f"{target} = {self.value(e)}"
        text, _, raw = fold(PYTHON, e, self)
        self.carried[target] = len(self.lines), f"{target} = {text if raw is None else raw}"
        return f"{target} = {text}"

    def function(self, counter: str | None, load: list[str], store: list[str]) -> Generated:
        """The lines as one function, loop(env, n): it loads the names in
        load from env and each live cell into its local once, runs n trips
        of the lines, stores each cell back in a finally, so that after a
        return or a raise it holds what the steps would leave, and stores
        the names in store back to env after the last trip, so n must be
        positive.  Each stored i32 is canonical, and a stored counter is
        n - 1, the value range leaves.  A counter that a line reads runs as
        `for counter in range(n):`; else, or for a counter of None, the
        trips are `for _ in _repeat(None, n):`, which builds no int per trip.
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
            [(at, unmasked)] = self.carried.values()
            raw = [*trip[:at], f"    {unmasked}", *trip[at + 1:]]
            body = [
                f"for _ in _repeat(None, n // {_PASS}):",
                *(raw * (_PASS - 1)),
                *trip,
                f"for _ in _repeat(None, n % {_PASS}):",
                *trip,
            ]
        signed = {name: _canonical(name, 0, name) for name in self.residues}
        if self.cells:
            cells = self.cells.values()
            body = [
                *(f"{local} = {const}.value" for local, const in cells),
                "try:",
                *(f"    {line}" for line in body),
                "finally:",
                *(f"    {const}.value = {signed.get(local, local)}" for local, const in cells),
            ]
        text = "\n".join([
            "def loop(env, n):",
            *(f"    {name} = env[{name!r}]" for name in load),
            *(f"    {line}" for line in body),
            *(f"    env[{name!r}] = {'n - 1' if name == counter else signed.get(name, name)}"
              for name in store),
        ])
        self.consts["_repeat"] = repeat
        exec(_code(text), self.consts)
        return self.consts.pop("loop")


@lru_cache(maxsize=512)  # a fixed bound, as re bounds its pattern cache
def _code(text: str) -> CodeType:
    """A Source's text compiled once per process: no constant is text."""
    return compile(text, "<staged loop>", "exec")


def loop(
    counter: str | None, count: Compiled, instantiate: Callable, stage: Callable,
    generate: Callable,
) -> Compiled:
    """The step that runs a staged loop body or an Iter's step.  Its first run
    that takes a trip calls instantiate() and keeps the body.  Once the trips,
    summed over its runs, reach HOT, it runs them as generate(body)'s
    function, trying generate once, then dropping it; a DslError from it, a
    printer's, is a refusal, so this step sees every tier decision.
    Else the trips run stage(body)'s steps, built on the first run that needs
    them, with the trip's number bound to counter unless it is None, as for an
    Iter.  A nested loop's step, this closure, is one frame."""
    body = steps = source = None
    trips = 0

    def step(env):
        nonlocal body, steps, trips, source, generate
        n = count(env)
        if n <= 0:
            return
        if body is None:
            body = instantiate()
        trips += n
        if generate and trips >= HOT:
            with suppress(DslError):  # a refusal: the steps run
                source = generate(body)
            generate = None
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
    name = _named(e, source.scope)
    source.reads.add(name)
    return name, 0, (name if name in source.residues else None)


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


def _canonical(text: str, depth: int, raw: str | None) -> str:
    """A PYTHON rule's result as canonical text: raw under _WRAP if set."""
    return text if raw is None else _WRAP.format(raw)


def _source_eq(source: Source, a, b) -> tuple[str, int, None]:
    text = f"({_canonical(*a)} == {_canonical(*b)})"
    return _nested(source, TypeTag.BOOL, text, max(a[1], b[1]) + 1, None)


PYTHON = Rules("cannot generate Python for", {
    Var: _source_var,
    Lit: _source_lit,
    Add: partial(_source_arithmetic, "+"),
    Mul: partial(_source_arithmetic, "*"),
    Not: lambda source, a: _nested(source, TypeTag.BOOL, f"(not {a[0]})", a[1] + 1, None),
    Eq: _source_eq,
})


def loop_body(
    scope: Scope, write: Callable, read: Callable, counter: str,
    staged: list[tuple[Instr, str | None]],
) -> Generated:
    """A staged loop body's n trips as one function: a line per statement,
    outer names loaded from env once and the body's own names, the counter's
    among them, stored back after the last trip, as the steps leave them.
    DslError for a nested loop, a binder or a name the scope did not
    generate."""
    src = Source(scope)
    write, read, cell = src.const(write), src.const(read), src.const(ConcreteRef)
    for cmd, name in staged:
        match cmd:  # patterns without captures, as in core.symbolic
            case GetRef():
                line = f"{name} = {(text := src.ref(cmd.ref))}"
                if text in src.residues:  # an i32 cell's local
                    src.residues.add(name)
            case SetRef():
                line = src.store(src.ref(cmd.ref), cmd.value)
            case InitRef():
                line = f"{name} = {cell}({src.const(cmd.init.tag)}, {src.value(cmd.init)})"
            case WriteOutput():
                line = f"{write}(str({src.value(cmd.value)}))"
            case ReadInput():
                line = f"{name} = {read}()"
            case PrintStr():
                line = f"{write}({src.const(cmd.text)})"
            case _:
                raise DslError("cannot generate Python for a nested loop")
        src.lines.append(line)  # after any temporaries its text reads
    own = [counter, *(name for _, name in staged if name is not None)]
    return src.function(counter, sorted(src.reads.difference(own)), own)


def iter_step(scope: Scope, name: str, stepped: Expr) -> Generated:
    """An Iter's n trips as one function, which loads the names the step
    reads from env once and stores the state, a carried local, back."""
    src = Source(scope)
    src.residue(name, stepped.tag)
    src.lines.append(src.store(name, stepped))
    return src.function(None, sorted(src.reads), [name])
