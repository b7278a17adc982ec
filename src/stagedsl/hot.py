"""The hot tier: a staged loop's body or an Iter's step run as one
generated Python function, in the style of Lightweight Modular Staging,
and, once its text has run NATIVE trips in the process, as C.

This module alone knows the generated source.  It holds loop, the one step
that runs a staged loop or an Iter and decides its tier; the two printers,
loop_body for a loop's staged statements and iter_step for an Iter's step;
Source, which holds their lines, prints a pure body's trips as a C kernel,
in passes of _PASS trips when no line reads the counter, and wraps the
kernel _build compiles and loads; _record, which assembles the lines into
one function's text once per process for what the text depends on, and
keeps one Record per text: its code, its trips and its kernel; and PYTHON,
the rule table that gives an expression's text.  A run of fewer than
PER_CALL trips calls the Python function even once its text has a kernel.
Only an Iter's step or a loop body of GetRef and SetRef builds as C; any
other body, no compiler, a failed compile, a warning included, and an
OSError from ctypes are refusals, which leave the text on Python.  _build
runs the plain program of cgen.c_compiler(), never $CC's flags, and keeps
its files in one temporary directory per process, removed at exit.  The README's
account of the hot tier says how these functions compute, and why.
"""

from __future__ import annotations

import shlex
import subprocess
from contextlib import suppress
from functools import lru_cache, partial
from itertools import repeat
from pathlib import Path
from typing import Any, Callable

from . import cgen
from .core import (
    ConcreteRef, DslError, GetRef, InitRef, Instr, PrintStr, ReadInput, Scope, SetRef, TypeTag,
    WriteOutput, generated,
)
from .lowexpr import Add, Compiled, Eq, Expr, Lit, Mul, Not, Rules, Var, _NEST, _named, fold

Generated = Callable[[dict[str, Any], int], None]  # n trips of a hot body, see Source

# A staged loop's or an Iter's trips, summed over its runs, at which it
# runs as generated source.  powerInput's loop body costs about 145 us more
# to generate than to stage, most of it compile() of a text that holds the
# trip five times (see _PASS), paid once per text per process (_record), and
# about 12 us more once the text is compiled; each trip then saves about
# 0.5 us (CPython 3.11.7, one pinned core).  So a text's first run pays from
# about 285 trips and a later run from about 25.  HOT stays 256: a first
# run of HOT trips loses about 15 us once per text, and the default randprog
# corpus has not been seen to reach it, as its loops sum to at most 144.
HOT = 256

# A hot text's trips, summed over every run of it in the process, at which
# it runs as C.  The power step's build took about 30 ms, and its kernel in
# passes then saved about 40 ns a trip (CPython 3.11.7, gcc 12, one pinned
# core), so a build pays from about 750,000 trips; NATIVE stays 2**20.
NATIVE = 2**20

# A run's trips from which a text that has its kernel runs it: a shorter run
# calls the text's Python function.  A kernel call cost about 3 us whatever
# its trips, the Python function about 0.6 us and 40-45 ns a trip, so the
# two cost the same at about 60 trips for the power step and about 72 for
# the lowered power body (same machine).
PER_CALL = 64
_SHARED = ["-O2", "-shared", "-fPIC"]  # the native tier's own flags
_objects: Path | None = None  # this process's shared objects, once one is built
_KIND = {TypeTag.I32: int, TypeTag.BOOL: bool}  # how a kernel's slot is stored back
UNTRIED = object()  # a Record's kernel before its build is tried

# wrap_i32 of any integer as Python text, in wrap_i32's own masked form
_WRAP = "((({} + 0x80000000) & 0xFFFFFFFF) - 0x80000000)"
# The trips per pass of a generated function that stores one i32 carried
# local, an Iter's state or a live cell, and reads no counter: all but the
# last trip of a pass store that local's unmasked top operator (see
# _record).  Every consumer of a residue, a masked operator or _WRAP
# (an Eq's operands among them), reduces any integer exactly, so only the size
# of the raw local needs a bound.  Every other value of a trip is masked or
# canonical, or a copy of the local as the trip found it, so a local within 32
# bits at most doubles its bits per trip, at s * s, and stays within
# 32 * 2**3 = 256 bits in a pass.  A body that stores two carried locals
# keeps every mask, since stores that feed each other's raw values could grow
# by 2**k bits per trip.  A kernel that reads no counter runs its trips in
# passes of _PASS as well, whatever it stores, since C wraps every operator;
# the compiler then folds a pass's chain, four `s0 * 7` into one multiply.
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
        self.named: set[str] = set()  # the names of cells reached by name
        self.carried: dict[str, tuple[int, str]] = {}
        self.c: Callable[[Source], list[str]] | None = None  # c(self): the trip as C, if pure

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
            self.named.add(ref.name)
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
        keeps its position and unmasked line (see _record); any other
        target gets value(e)."""
        if target not in self.residues:
            return f"{target} = {self.value(e)}"
        text, _, raw = fold(PYTHON, e, self)
        self.carried[target] = len(self.lines), f"{target} = {text if raw is None else raw}"
        return f"{target} = {text}"

    def function(self, counter: str, load: list[str], store: list[str]) -> Generated:
        """The lines as one function, loop(env, n), which loads the names in
        load from env, runs n trips of the lines and stores the names in
        store back, so n must be positive; its text and code are the Record
        _record keeps for what the text depends on, so a text is assembled
        and compiled once per process.  The function holds the namespace of
        constants, which does not hold it."""
        cells = tuple(self.cells.values())
        own = (*store, *(local for local, _ in cells))
        self.record = _record(
            tuple(self.lines), counter, counter in self.reads, tuple(self.carried.values()), cells,
            tuple(load), tuple(store), tuple(name for name in own if name in self.residues),
        )
        self.counter, self.load, self.store = counter, load, store
        self.consts["_repeat"] = repeat
        exec(self.record.code, self.consts)
        self.run: Generated = self.consts.pop("loop")
        return self.run

    def slots(self) -> tuple[list[str], ...]:
        """The C locals of kernel()'s int32 slots, in order: the names only
        loaded, the cells reached by name, the live cells and the names
        stored."""
        values = [name for name in self.load if name not in self.named and name not in self.store]
        named = [name for name in self.load if name in self.named]
        return values, named, [local for local, _ in self.cells.values()], self.store

    def kernel(self) -> str:
        """function's trips as the C function body(slot, n), each slot read
        into its local and written back; its statements are c(self)'s, which
        raises DslError unless the body is pure.  A counter that a line
        reads takes each trip's number; else, as in function, n / _PASS
        passes of _PASS trips run, then n % _PASS trips, and the wrapper
        alone stores the counter."""
        slots = [name for group in self.slots() for name in group]
        trip = [f"        {line}" for line in self.c(self)]
        if self.counter in self.reads:
            trips = [
                "    for (int64_t k = 0; k < n; k++) {",
                f"        {self.counter} = (int32_t)k;",
                *trip,
                "    }",
            ]
        else:
            trips = [
                f"    for (int64_t k = 0; k < n / {_PASS}; k++) {{",
                *(trip * _PASS),
                "    }",
                f"    for (int64_t k = 0; k < n % {_PASS}; k++) {{",
                *trip,
                "    }",
            ]
        return "\n".join([
            "#include <stdint.h>",
            "void body(int32_t *slot, int64_t n)",
            "{",
            *(f"    int32_t {name} = slot[{k}];" for k, name in enumerate(slots)),
            *trips,
            *(f"    slot[{k}] = {name};" for k, name in enumerate(slots)),
            "}\n",
        ])

    def native(self, kernel: Callable) -> Generated:
        """The built kernel as function, loop(env, n): the same names and
        cells loaded into its slots, in slots() order, and stored back as
        function stores them, and the counter as n - 1.  Each is stored by
        its kind in this run, a cell's own tag and a stored name's tag in
        the scope, never by its record: one text may serve bool cells in one
        run and i32 cells in another."""
        values, named, cells, store = self.slots()
        array = _array(len(values) + len(named) + len(cells) + len(store))
        live = [self.consts[const] for _, const in self.cells.values()]
        counter, first = self.counter, len(values)
        counted = counter in store
        kinds = [_KIND[self.scope.tag(name)] for name in store]

        def loop(env, n):
            reached = [env[name] for name in named] + live
            # a name only stored is written before it is read, so its slot may hold anything
            slot = array(*[env[name] for name in values], *[cell.value for cell in reached],
                         *[env.get(name, 0) for name in store])
            kernel(slot, n)
            out = slot[first:]
            for cell, value in zip(reached, out):
                cell.value = _KIND[cell.tag](value)
            for name, kind, value in zip(store, kinds, out[len(reached):]):
                env[name] = kind(value)
            if counted:
                env[counter] = n - 1

        return loop


class Record:
    """A hot text's record in this process, one per input of _record: the
    text's code; the trips run under it, which loop counts toward NATIVE;
    and its kernel, UNTRIED until a build is tried, then the kernel or
    None for a refusal."""

    def __init__(self, text: str) -> None:
        self.code = compile(text, "<staged loop>", "exec")
        self.trips, self.kernel = 0, UNTRIED


@lru_cache(maxsize=512)  # a fixed bound, as re bounds its pattern cache
def _record(
    lines: tuple[str, ...], counter: str, counted: bool, carried: tuple[tuple[int, str], ...],
    cells: tuple[tuple[str, str], ...], load: tuple[str, ...], store: tuple[str, ...],
    residues: tuple[str, ...],
) -> Record:
    """The Record of Source.function's text, which depends on these
    arguments alone.  loop(env, n) loads the names in load from env and
    each cell's local from its constant once, runs n trips of the lines,
    stores each cell back in a finally, so that after a return or a raise
    it holds what the steps would leave, and stores the names in store back
    to env after the last trip.  Each stored name or cell among residues is
    made canonical, and a stored counter is n - 1, the value range leaves.
    A counter that a line reads, so counted, runs as `for counter in
    range(n):`; else, as for an Iter's `_`, which no line reads, the trips
    are `for _ in _repeat(None, n):`, which builds no int per trip.
    With no counter read and exactly one i32 carried local stored, carried's
    one position and unmasked line, the function runs n // _PASS passes,
    each _PASS - 1 trips whose last store to that local is unmasked and one
    trip of the lines, then n % _PASS trips of the lines."""
    trip = [f"    {line}" for line in lines or ["pass"]]
    if counted:
        body = [f"for {counter} in range(n):", *trip]
    elif len(carried) != 1:
        body = ["for _ in _repeat(None, n):", *trip]
    else:
        [(at, unmasked)] = carried
        raw = [*trip[:at], f"    {unmasked}", *trip[at + 1:]]
        body = [
            f"for _ in _repeat(None, n // {_PASS}):",
            *(raw * (_PASS - 1)),
            *trip,
            f"for _ in _repeat(None, n % {_PASS}):",
            *trip,
        ]
    signed = {name: _canonical(name, 0, name) for name in residues}
    if cells:
        body = [
            *(f"{local} = {const}.value" for local, const in cells),
            "try:",
            *(f"    {line}" for line in body),
            "finally:",
            *(f"    {const}.value = {signed.get(local, local)}" for local, const in cells),
        ]
    return Record("\n".join([
        "def loop(env, n):",
        *(f"    {name} = env[{name!r}]" for name in load),
        *(f"    {line}" for line in body),
        *(f"    env[{name!r}] = {'n - 1' if name == counter else signed.get(name, name)}"
          for name in store),
    ]))


@lru_cache(maxsize=None)  # a few sizes: a new ctypes type per run would be a cycle
def _array(size: int) -> type:
    from ctypes import c_int32

    return c_int32 * size


def _build(source: Source) -> Callable | None:
    """source's kernel() built by the plain program of cgen.c_compiler(), in
    this thread, so no compiler outlives the run, and loaded; None for a
    refusal.  $CC's flags never apply: a sanitizer's object may abort an
    uninstrumented Python instead of failing to load."""
    global _objects
    import atexit, ctypes, shutil, tempfile  # noqa: E401  (lazily: import time stays)

    try:
        text, program = source.kernel(), shlex.split(cgen.c_compiler())[0]
        if _objects is None:
            _objects = Path(tempfile.mkdtemp(prefix="stagedsl-native-"))
            atexit.register(shutil.rmtree, _objects, ignore_errors=True)
        c_file = _objects / f"body{len(list(_objects.glob('*.c')))}.c"  # dlopen keys on the path
        shared = str(c_file.with_suffix(".so"))
        c_file.write_text(text)
        command = [program, *cgen.STRICT_FLAGS, *_SHARED, "-o", shared, str(c_file)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
    # an impure body, bad quotes or no word in $CC, no temporary directory, no compiler
    except (DslError, ValueError, IndexError, OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0 or proc.stderr:
        return None
    try:
        kernel = ctypes.CDLL(shared).body
    except OSError:  # an object this process cannot load
        return None
    kernel.argtypes, kernel.restype = [ctypes.POINTER(ctypes.c_int32), ctypes.c_int64], None
    return kernel


def loop(
    counter: str, count: Compiled, instantiate: Callable, stage: Callable, generate: Callable,
) -> Compiled:
    """The step that runs a staged loop body or an Iter's step.  Its first run
    that takes a trip calls instantiate() and keeps the body.  Once the trips,
    summed over its runs, reach HOT, it runs them as the function of
    generate(body), a Source, trying generate once, then dropping it; a
    DslError from it, a printer's, is a refusal, so this step sees every tier
    decision.  Each hot run counts its trips in the Source's record; at
    NATIVE it tries the record's kernel, built once per record, and from
    then on runs of PER_CALL trips or more run it, while shorter runs, and
    every run after a refusal, stay on the Python function.
    Else the trips run stage(body)'s steps, built on the first run that needs
    them, with the trip's number bound to counter first, an Iter's `_` too.
    A nested loop's step, this closure, is one frame."""
    body = steps = source = run = native = None
    trips = 0

    def step(env):
        nonlocal body, steps, trips, source, run, native, generate
        n = count(env)
        if n <= 0:
            return
        if body is None:
            body = instantiate()
        trips += n
        if generate and trips >= HOT:
            with suppress(DslError):  # a refusal: the steps run
                source = generate(body)
                run = source.run
            generate = None
        if source:  # still counting toward NATIVE
            record = source.record
            record.trips += n
            if record.trips >= NATIVE:
                if record.kernel is UNTRIED:
                    record.kernel = _build(source)
                if record.kernel:
                    native = source.native(record.kernel)
                source = None
        if native and n >= PER_CALL:
            return native(env, n)
        if run:
            return run(env, n)
        if steps is None:
            steps = stage(body)
        for k in range(n):
            env[counter] = k
            for s in steps:
                s(env)

    return step


# PYTHON's context is a Source.  A rule gives Python text, how deep
# operators nest in it, and how to make the text canonical (see Source): None
# if it is, else the text _WRAP takes, an operator's unmasked `a op b` or a
# residue's name; _nested bounds the depth.
def _source_var(e: Var, source: Source) -> tuple[str, int, str | None]:
    name = _named(e, source.scope)
    source.reads.add(name)
    return name, 0, (name if name in source.residues else None)


def _source_lit(e: Lit, source: Source) -> tuple[str, int, None]:
    text = repr(e.value) if type(e.value) in (int, bool) else source.const(e.value)
    return text, 0, None


def _nested(source: Source, tag: TypeTag, text: str, depth: int, raw: str | None):
    """A rule's result, or at _NEST a line storing it in a function local,
    like _r and _c, named by the line's position, so the scope gains no name."""
    if depth < _NEST:
        return text, depth, raw
    name = f"_t{len(source.lines)}"
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
) -> Source:
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
    src.function(counter, sorted(src.reads.difference(own)), own)
    src.c = lambda src: [_c_statement(src, cmd, name) for cmd, name in staged]
    return src


def _c_statement(src: Source, cmd: Instr, name: str | None) -> str:
    """A pure statement as C, where each cell's value is a local named as
    its Python text less `.value`; DslError for any other statement."""
    match cmd:
        case GetRef():
            return f"{name} = {src.ref(cmd.ref).removesuffix('.value')};"
        case SetRef():
            value = fold(cgen._TEXT, cmd.value, src.scope)
            return f"{src.ref(cmd.ref).removesuffix('.value')} = {value};"
    raise DslError(f"cannot build C for {type(cmd).__name__}")


def iter_step(scope: Scope, name: str, stepped: Expr) -> Source:
    """An Iter's n trips as one function, which loads the names the step
    reads from env once and stores the state, a carried local, back.  Its
    counter is `_`, which no line reads, as in highexpr's cold trips."""
    src = Source(scope)
    src.residue(name, stepped.tag)
    src.lines.append(src.store(name, stepped))
    src.function("_", sorted(src.reads), [name])
    src.c = lambda src: [f"{name} = {fold(cgen._TEXT, stepped, src.scope)};"]
    return src
