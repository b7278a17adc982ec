"""Run programs against a line-oriented input source and a text sink.

Generic in the expression Language.  Input and output are injectable, so
tests can script a session; the CLI plugs in the process's stdio.

The interpreter is one object.  Straight-line code is performed
instruction by instruction with concrete values; each expression it holds is
compiled, then run once, over the run's one environment of generated names,
so a name a program keeps from a loop's body reads after the loop as its
last trip left it.  A loop body is staged instead: when a loop first
runs, its body is walked once by core.statements, the walk core.listing is
built from, with a generated name for the counter; every instruction becomes
a step over an environment of generated names, and the steps run once per
trip.  Every staged loop, outermost or nested, runs as the step
lowexpr.loop builds, as a compiled Iter does: it evaluates the bound,
stages the body on the first trip that runs and repeats it.  This
relies on loop and binder bodies building the same program whatever value
they are passed, which the C back end relies on too.  An error from
building a body, such as a TagError, can therefore surface before the first
trip's output instead of during it; every error from running an instruction
surfaces where it would without staging.  A language with no `compile` gets
the reference behaviour: eval_closed evaluates every expression, and a loop
body is rebuilt and interpreted on every trip.
Once that step finds a loop hot, generate prints its staged statements as
one Python function through lowexpr.Source: a line per instruction,
generated names as locals.  Print strings, live cells and tags are
constants of the function's namespace; program text never becomes source.
A body stays on the steps if it holds a nested loop, a Let or Iter, or a
variable or reference the scope did not generate, or if the language's
compile is not lowexpr.compile_open, which then sees every expression.  So
only leaf loops tier up, though an Iter in a body that stays tiers up on its
own, and errors surface after the same output either way.
A staged loop's step calls the step of the loop nested in it, so nesting
costs a Python frame per level: under the default recursion limit of
1,000, a staged run handles about 989 nested loops and the reference path
about 494.  The printers, which walk core.listing, have no such limit.
An input line is an optionally signed decimal of any length, wrapped into
32 bits, padded only with the ASCII whitespace C's scanf skips.
"""

from __future__ import annotations

import io
import re
from typing import Any, Callable, TextIO

from . import core, lowexpr
from .core import (
    ConcreteRef,
    ConcreteVal,
    DslError,
    ForLoop,
    GetRef,
    InitRef,
    Instr,
    Language,
    PrintStr,
    Program,
    ReadInput,
    Ref,
    Scope,
    SetRef,
    StageError,
    SymbolicRef,
    SymbolicVal,
    TypeTag,
    WriteOutput,
    wrap_i32,
)


class InputError(DslError):
    """Missing or malformed console input."""


_DECIMAL = re.compile(r"[+-]?[0-9]+")

Env = dict[str, Any]
Step = Callable[[Env], None]


class _Runner:
    """The concrete interpret() handler, perform, and the walk that stages
    loop bodies: each instruction becomes a step that performs it through
    the same read, write and cell and binds its generated result name in
    the environment, the run's one env.  A step reaches a reference through
    the environment, or directly for a live cell."""

    def __init__(self, lang: Language, stdin: TextIO, stdout: TextIO):
        self.scope, self.env = Scope(), {}
        # not self, which would make a cycle
        compile, scope, env = lang.compile, self.scope, self.env
        self._expr = None if compile is None else lambda e: compile(e, scope)
        # only compile_open's expressions go to source, so any other compile sees
        # every expression; LANG's field, which perfbench/tracing.py leaves as
        # it is, unlike the module's function
        self._tier = compile is lowexpr.LANG.compile
        self._eval = lang.eval_closed if compile is None else lambda e: compile(e, scope)(env)
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
        text = line.strip(" \t\n\r\f\v")
        if not _DECIMAL.fullmatch(text):
            raise InputError(f"not a decimal integer: {text!r}")
        self.reads += 1
        # 2**32 divides 10**32, so only the last 32 digits count, and
        # dropping the rest keeps int() within its digit limit
        value = int(text.lstrip("+-")[-32:])
        return wrap_i32(-value if text[0] == "-" else value)

    def perform(self, cmd: Instr):
        match cmd:  # patterns without captures, as in core.symbolic
            case InitRef():
                return ConcreteRef(cmd.init.tag, self._eval(cmd.init))
            case GetRef():
                cell = self.cell(cmd.ref)
                return ConcreteVal(cell.tag, cell.value)
            case SetRef():
                self.cell(cmd.ref).value = self._eval(cmd.value)
                return None
            case ReadInput():
                return ConcreteVal(TypeTag.I32, self.read())
            case WriteOutput():
                self.write(str(self._eval(cmd.value)))
                return None
            case PrintStr():
                self.write(cmd.text)
                return None
            case ForLoop():
                if self._expr is not None:  # either way the bound is evaluated once, first
                    counter = core.symbolic(cmd, self.scope)[0]
                    self.loop_step(counter, self._expr(cmd.count), cmd.body)(self.env)
                    return None
                for k in range(self._eval(cmd.count)):
                    core.interpret(self.perform, cmd.body(ConcreteVal(TypeTag.I32, k)))
                return None
        raise DslError(f"not an instruction: {cmd!r}")

    def reference(self, ref: Ref) -> Callable[[Env], ConcreteRef]:
        if isinstance(ref, ConcreteRef):
            return lambda env: ref
        if isinstance(ref, SymbolicRef) and ref.name in self.scope:
            name = ref.name
            return lambda env: env[name]
        # not a cell this run can reach: fail when the instruction runs
        return lambda env: self.cell(ref)

    def step(self, cmd: Instr, name: str | None) -> Step:
        """The step that performs cmd on an environment and binds its result
        to name there."""
        match cmd:
            case GetRef():
                cell = self.reference(cmd.ref)

                def step(env):
                    env[name] = cell(env).value

            case SetRef():
                cell, value = self.reference(cmd.ref), self._expr(cmd.value)

                def step(env):
                    cell(env).value = value(env)

            case InitRef():
                tag, value = cmd.init.tag, self._expr(cmd.init)

                def step(env):
                    env[name] = ConcreteRef(tag, value(env))

            case ForLoop():
                return self.loop_step(name, self._expr(cmd.count), cmd.body)
            case WriteOutput():
                write, value = self.write, self._expr(cmd.value)
                return lambda env: write(str(value(env)))
            case ReadInput():
                read = self.read

                def step(env):
                    env[name] = read()

            case PrintStr():
                write, text = self.write, cmd.text
                return lambda env: write(text)
        return step

    def loop_step(self, counter: str, bound: Callable[[Env], int], body) -> Step:
        """The step that runs a staged loop, lowexpr.loop's: the body is
        staged over its counter's name from one core.statements walk, whose
        statements are also what generate prints once the loop is hot."""
        staged: list[tuple[Instr, str | None]] = []

        def stage():
            # staging never nests: a nested loop's step only runs later
            staged.extend(core.statements(body(SymbolicVal(TypeTag.I32, counter)), self.scope))
            return [self.step(cmd, name) for cmd, name in staged]

        return lowexpr.loop(counter, bound, stage, lambda: self.generate(counter, staged))

    def generate(
        self, counter: str, staged: list[tuple[Instr, str | None]]
    ) -> lowexpr.Generated | None:
        """A staged body's n trips as one generated Python function of env
        and n: a line per statement, generated names as locals, outer names
        loaded from env once and the body's own names stored back after the
        last trip, as the steps leave them.  None for a body that stays on
        the steps: under a language whose compile is not compile_open, or
        with a nested loop, a binder or a name the scope did not generate."""
        if not self._tier:
            return None
        src = lowexpr.Source(self.scope)
        write, read, cell = src.const(self.write), src.const(self.read), src.const(ConcreteRef)
        try:
            for cmd, name in staged:
                match cmd:  # patterns without captures, as in core.symbolic
                    case GetRef():
                        line = f"{name} = {src.ref(cmd.ref)}.value"
                    case SetRef():
                        value = src.expr(cmd.value)
                        line = f"{src.ref(cmd.ref)}.value = {value}"
                    case InitRef():
                        line = f"{name} = {cell}({src.const(cmd.init.tag)}, {src.expr(cmd.init)})"
                    case WriteOutput():
                        line = f"{write}(str({src.expr(cmd.value)}))"
                    case ReadInput():
                        line = f"{name} = {read}()"
                    case PrintStr():
                        line = f"{write}({src.const(cmd.text)})"
                    case _:  # a nested loop
                        return None
                src.lines.append(line)  # after any temporaries its text reads
        except DslError:
            return None
        own = [counter, *(name for _, name in staged if name is not None)]
        return src.function(counter, sorted(src.reads.difference(own)), own)


def run(prog: Program, lang: Language, stdin: TextIO, stdout: TextIO) -> tuple[Any, int]:
    """Interpret a program.  Returns its result and the number of input
    lines consumed."""
    runner = _Runner(lang, stdin, stdout)
    result = core.interpret(runner.perform, prog)
    return result, runner.reads


def run_text(prog: Program, lang: Language, text: str = "") -> tuple[Any, str, int]:
    """Run against string input, capturing output.  Returns (result, output,
    lines consumed)."""
    out = io.StringIO()
    result, reads = run(prog, lang, io.StringIO(text), out)
    return result, out.getvalue(), reads
