"""Run programs against a line-oriented input source and a text sink.

Works for any expression language that can evaluate closed expressions.
Input and output are injectable, so tests can script a session; the CLI
plugs in the process's stdio.

The interpreter is one object, a back end of core.SymbolicWalk.
Straight-line code is performed instruction by instruction with concrete
values.  A loop body is staged instead: when a loop first runs, its body is
walked once with a generated name for the counter, every instruction
becomes a closure over an environment of generated names, and the closures
run once per trip.  Every staged loop, outermost or nested, runs as one
step that evaluates the bound, stages the body on the first trip that runs
and repeats it; an outermost loop's bound is the value eval_closed gave.
This relies on loop and binder bodies building the same program whatever
value they are passed, which the C back end relies on too.  An error from
building a body, such as a TagError, can therefore surface before the first
trip's output instead of during it; every error from running an instruction
surfaces where it would without staging.  A language with no `compile` gets
the reference behaviour: the body is rebuilt and interpreted on every trip.
An input line is an optionally signed decimal of any length, wrapped into
32 bits.
"""

from __future__ import annotations

import io
import re
from typing import Any, Callable, TextIO

from . import core
from .core import (
    ConcreteRef,
    ConcreteVal,
    DslError,
    ForLoop,
    GetRef,
    InitRef,
    Instruction,
    Language,
    PrintStr,
    Program,
    ReadInput,
    Ref,
    SetRef,
    StageError,
    SymbolicRef,
    SymbolicVal,
    SymbolicWalk,
    TypeTag,
    WriteOutput,
    wrap_i32,
)


class InputError(DslError):
    """Missing or malformed console input."""


_DECIMAL = re.compile(r"[+-]?[0-9]+")

Env = dict[str, Any]
Step = Callable[[Env], None]


class _Runner(SymbolicWalk):
    """The concrete interpret() handler, perform, and the walk that stages
    loop bodies: each instruction becomes a step that performs it through
    the same read, write and cell and binds its generated result name in
    the environment.  A step reaches a reference through the environment,
    or directly for a live cell."""

    def __init__(self, lang: Language, stdin: TextIO, stdout: TextIO):
        super().__init__()
        self._eval = lang.eval_closed
        self._compile = lang.compile
        self._stdin = stdin
        self.write = stdout.write
        self.reads = 0

    def cell(self, ref: Ref) -> ConcreteRef:
        if isinstance(ref, ConcreteRef):
            return ref
        raise StageError("symbolic reference reached the runtime interpreter")

    def read(self) -> int:
        line = self._stdin.readline()
        if line == "":
            raise InputError("input exhausted")
        text = line.strip()
        if not _DECIMAL.fullmatch(text):
            raise InputError(f"not a decimal integer: {text!r}")
        self.reads += 1
        if len(text) > 32:
            # 2**32 divides 10**32, so only the last 32 digits count, and
            # dropping the rest keeps int() within its digit limit
            text = ("-" if text[0] == "-" else "") + text[-32:]
        return wrap_i32(int(text))

    def perform(self, cmd: Instruction):
        match cmd:
            case InitRef(init):
                return ConcreteRef(init.tag, self._eval(init))
            case GetRef(ref):
                cell = self.cell(ref)
                return ConcreteVal(cell.tag, cell.value)
            case SetRef(ref, value):
                self.cell(ref).value = self._eval(value)
                return None
            case ReadInput():
                return ConcreteVal(TypeTag.I32, self.read())
            case WriteOutput(value):
                self.write(str(self._eval(value)))
                return None
            case PrintStr(text):
                self.write(text)
                return None
            case ForLoop(count, body):
                # evaluate the bound once, before any iteration runs
                n = self._eval(count)
                if self._compile is None:
                    for k in range(n):
                        core.interpret(self.perform, body(ConcreteVal(TypeTag.I32, k)))
                else:
                    self.loop_step(self.fresh("v", TypeTag.I32), lambda env: n, body)({})
                return None
        raise DslError(f"not an instruction: {cmd!r}")

    def emit(self, step: Step) -> None:
        self.statements.append(step)

    def _expr(self, e) -> Callable[[Env], Any]:
        return self._compile(e, self.scope)

    def reference(self, ref: Ref) -> Callable[[Env], ConcreteRef]:
        if isinstance(ref, ConcreteRef):
            return lambda env: ref
        if isinstance(ref, SymbolicRef) and ref.name in self.scope:
            name = ref.name
            return lambda env: env[name]
        # not a cell this run can reach: fail when the instruction runs
        return lambda env: self.cell(ref)

    def init_ref(self, name: str, init) -> Step:
        tag, value = init.tag, self._expr(init)

        def step(env):
            env[name] = ConcreteRef(tag, value(env))

        return step

    def get_ref(self, name: str, cell) -> Step:
        def step(env):
            env[name] = cell(env).value

        return step

    def set_ref(self, cell, value) -> Step:
        new = self._expr(value)

        def step(env):
            cell(env).value = new(env)

        return step

    def read_input(self, name: str) -> Step:
        read = self.read

        def step(env):
            env[name] = read()

        return step

    def write_output(self, value) -> Step:
        write, out = self.write, self._expr(value)
        return lambda env: write(str(out(env)))

    def print_str(self, text: str) -> Step:
        write = self.write
        return lambda env: write(text)

    def loop_step(self, counter: str, bound: Callable[[Env], int], body) -> Step:
        """The step that runs a staged loop: it evaluates the bound, stages
        the body over its counter's name on the first trip that runs, as
        without staging, then runs the body's steps once per trip."""
        steps: list[Step] | None = None

        def step(env):
            nonlocal steps
            n = bound(env)
            if n > 0 and steps is None:
                # staging never nests: a nested loop's step only runs later
                self.statements = []
                core.interpret(self.handle, body(SymbolicVal(TypeTag.I32, counter)))
                steps = self.statements
            for k in range(n):
                env[counter] = k
                for s in steps:
                    s(env)

        return step

    def loop(self, counter: str, count, body) -> None:
        self.emit(self.loop_step(counter, self._expr(count), body))


def run(prog: Program, lang: Language, stdin: TextIO, stdout: TextIO) -> tuple[Any, int]:
    """Interpret a program.  Returns its result and the number of input
    lines consumed."""
    if lang.eval_closed is None:
        raise DslError(f"language {lang.name!r} cannot evaluate expressions")
    runner = _Runner(lang, stdin, stdout)
    result = core.interpret(runner.perform, prog)
    return result, runner.reads


def run_text(prog: Program, lang: Language, text: str = "") -> tuple[Any, str, int]:
    """Run against string input, capturing output.  Returns (result, output,
    lines consumed)."""
    out = io.StringIO()
    result, reads = run(prog, lang, io.StringIO(text), out)
    return result, out.getvalue(), reads
