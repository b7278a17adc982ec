"""Run programs against a line-oriented input source and a text sink.

Generic in the expression Language.  Input and output are injectable, so
tests can script a session; the CLI plugs in the process's stdio.

The interpreter is one object, _Runner.  It performs straight-line code
instruction by instruction, compiling each expression and running it once
over the run's one environment of generated names.  It stages every loop
in step: hot.loop gets the body's one walk by core.statements, a step for
each statement, and hot.loop_body, whose DslError alone refuses the hot
tier.  A reference resolves by one rule, reference, at top level as in a
loop: a live cell, or the cell a generated name holds in the environment;
any other is a StageError when its instruction runs.  A language with no
`compile` gets the reference behaviour: eval_closed evaluates every
expression, and a loop body is rebuilt and interpreted on every trip.  The
README's account of the interpreter says when a body is built, where errors
surface and how deep loops may nest.  An input line is an optionally signed
decimal of any length, wrapped into 32 bits, padded only with the ASCII
whitespace C's scanf skips.
"""

from __future__ import annotations

import io
import re
from functools import partial
from typing import Any, Callable, TextIO

from . import core, hot
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


def _unreached(env: Env) -> ConcreteRef:
    raise StageError("symbolic reference reached the runtime interpreter")


class _Runner:
    """The concrete interpret() handler, perform, and the walk that stages
    loop bodies: each instruction becomes a step that performs it through
    the same read, write and reference and binds its generated result name
    in the environment, the run's one env."""

    def __init__(self, lang: Language, stdin: TextIO, stdout: TextIO):
        self.scope, self.env = Scope(), {}
        # not self, which would make a cycle
        compile, scope, env = lang.compile, self.scope, self.env
        self._expr = None if compile is None else lambda e: compile(e, scope)
        self._eval = lang.eval_closed if compile is None else lambda e: compile(e, scope)(env)
        self._stdin = stdin
        self.write = stdout.write
        self.reads = 0

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
                cell = self.reference(cmd.ref)(self.env)
                return ConcreteVal(cell.tag, cell.value)
            case SetRef():
                self.reference(cmd.ref)(self.env).value = self._eval(cmd.value)
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
                    return self.step(cmd, core.symbolic(cmd, self.scope)[0])(self.env)
                for k in range(self._eval(cmd.count)):
                    core.interpret(self.perform, cmd.body(ConcreteVal(TypeTag.I32, k)))
                return None
        raise DslError(f"not an instruction: {cmd!r}")

    def reference(self, ref: Ref) -> Callable[[Env], ConcreteRef]:
        if isinstance(ref, ConcreteRef):
            return lambda env: ref
        try:
            name = core.generated(ref, self.scope)
        except StageError:  # not a cell this run can reach: fail when the instruction runs
            return _unreached
        return lambda env: env[name]

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

            case ForLoop():  # name is the counter's; the body is walked once, on its first trip
                body, scope = cmd.body, self.scope
                walk = lambda: list(core.statements(body(SymbolicVal(TypeTag.I32, name)), scope))
                stage = lambda staged: [self.step(*statement) for statement in staged]
                generate = partial(hot.loop_body, scope, self.write, self.read, name)
                return hot.loop(name, self._expr(cmd.count), walk, stage, generate)
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
