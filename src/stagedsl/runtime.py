"""Run programs against a line-oriented input source and a text sink.

Generic in the expression Language.  Input and output are injectable, so
tests can script a session; the CLI plugs in the process's stdio.

With a language that has `compile`, a program's top level is staged once
per program value, as a _Plan its root Bind keeps for that compile: the
first run walks the top level by core.statements, and each statement
becomes a step, built by the _Runner and then performed at once, so output
is still written before a later statement is staged, and a loop body is
still built on its first trip.  Every later run performs the kept steps and
walks on only where an earlier run stopped.  Steps bind results to the
names the walk generated in the run's own env, which alone holds the run's
input, output and read count and each loop's trips, so no run's state is
bound in the plan; a result is read back to what a run over concrete values
gives.  The runner stages every loop in step: hot.loop gets the body's one
walk by core.statements, a step for each statement, and hot.loop_body,
whose DslError alone refuses the hot tier.  A reference resolves by one
rule, reference, at top level as in a loop: a live cell, or the cell a
generated name holds in the environment; any other is a StageError when its
instruction runs.  A language with no `compile` gets the reference
behaviour: perform evaluates every expression by eval_closed, and a loop
body is rebuilt and interpreted on every trip.  The README's account of the
interpreter says when a body is built, where errors surface and how deep
loops may nest.  An input line is an optionally signed decimal of any
length, wrapped into 32 bits, padded only with the ASCII whitespace C's
scanf skips.
"""

from __future__ import annotations

import io
import re
from functools import partial
from itertools import chain
from typing import Any, Callable, TextIO

from . import core, hot, lowexpr
from .core import (
    Bind,
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


class _Input:
    """One run's input: read() parses its next line, and reads counts them."""

    def __init__(self, stdin: TextIO) -> None:
        self._stdin, self.reads = stdin, 0

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


def _unreached(env: Env | None = None) -> ConcreteRef:
    """The cell of a reference no run can reach, as a step's function."""
    raise StageError("symbolic reference reached the runtime interpreter")


class _Reference:
    """The reference path's interpret() handler, perform: each instruction
    run with concrete values, every expression evaluated by eval_closed, and
    a loop body rebuilt and interpreted on every trip."""

    def __init__(self, lang: Language, read: Callable[[], int], write: Callable[[str], Any]):
        self._eval, self._read, self._write = lang.eval_closed, read, write

    def perform(self, cmd: Instr):
        match cmd:  # patterns without captures, as in core.symbolic
            case InitRef():
                return ConcreteRef(cmd.init.tag, self._eval(cmd.init))
            case GetRef():
                cell = _cell(cmd.ref)
                return ConcreteVal(cell.tag, cell.value)
            case SetRef():
                _cell(cmd.ref).value = self._eval(cmd.value)
                return None
            case ReadInput():
                return ConcreteVal(TypeTag.I32, self._read())
            case WriteOutput():
                self._write(str(self._eval(cmd.value)))
                return None
            case PrintStr():
                self._write(cmd.text)
                return None
            case ForLoop():
                for k in range(self._eval(cmd.count)):
                    core.interpret(self.perform, cmd.body(ConcreteVal(TypeTag.I32, k)))
                return None
        raise DslError(f"not an instruction: {cmd!r}")


def _cell(ref: Ref) -> ConcreteRef:
    """The reference path's one reference rule: only a live cell."""
    return ref if isinstance(ref, ConcreteRef) else _unreached()


class _Runner:
    """The staged interpreter of one program value under one compile: the
    scope of the names its walks generate, and step, which builds the step
    of one statement, a function of a run's env that performs it and binds
    its result name there.  A step reaches the run's input and output only
    through env, under "read" and "write", so it serves every run.  The
    runner keeps no step, so the loop steps that hold it make no cycle."""

    __slots__ = ("scope", "_compile")

    def __init__(self, compile: Callable[[Any, Scope], Callable[[Env], Any]]) -> None:
        self.scope, self._compile = Scope(), compile

    def reference(self, ref: Ref) -> Callable[[Env], ConcreteRef]:
        if isinstance(ref, ConcreteRef):
            return lambda env, ref=ref: ref
        try:
            name = core.generated(ref, self.scope)
        except StageError:  # not a cell this run can reach: fail when the instruction runs
            return _unreached
        return lambda env, name=name: env[name]

    def step(self, cmd: Instr, name: str | None) -> Step:
        """The step that performs cmd on an environment and binds its result
        to name there.  Like a compiled closure, each takes what it holds as
        defaults (see lowexpr.FLAT)."""
        match cmd:  # the commonest first: each case tests a class
            case PrintStr():
                return lambda env, text=cmd.text: env["write"](text)
            case WriteOutput():
                value = self._compile(cmd.value, self.scope)
                return lambda env, value=value: env["write"](str(value(env)))
            case ReadInput():

                def step(env, name=name):
                    env[name] = env["read"]()

            case GetRef():
                cell = self.reference(cmd.ref)

                def step(env, name=name, cell=cell):
                    env[name] = cell(env).value

            case SetRef():
                cell, value = self.reference(cmd.ref), self._compile(cmd.value, self.scope)

                def step(env, cell=cell, value=value):
                    cell(env).value = value(env)

            case InitRef():
                tag, value = cmd.init.tag, self._compile(cmd.init, self.scope)

                def step(env, name=name, tag=tag, value=value):
                    env[name] = ConcreteRef(tag, value(env))

            case ForLoop():  # name is the counter's; the body is walked once, on its first trip
                count, scope = self._compile(cmd.count, self.scope), self.scope
                walk = partial(self.walk, cmd.body, name)
                generate = partial(hot.loop_body, scope, "write", "read", name)
                return hot.loop(name, count, walk, self.stage, generate)
        return step

    def walk(self, body: Callable[[SymbolicVal], Program], counter: str) -> list:
        """The statements of a loop's body, instantiated with its counter."""
        return list(core.statements(body(SymbolicVal(TypeTag.I32, counter)), self.scope))

    def stage(self, staged: list[tuple[Instr, str | None]]) -> list[Step]:
        """The steps of a loop body's statements, in order."""
        return [self.step(*statement) for statement in staged]

    def read_back(self, result: Any, env: Env) -> Any:
        """A staged run's result as a run over concrete values gives it: a
        value or a cell named by a name the scope generated is that name's
        ConcreteVal or cell in env, and an expression is lowexpr.read_back's."""
        if result is None:
            return None
        if isinstance(result, (SymbolicVal, SymbolicRef)):
            if result.name not in self.scope or result.name not in env:
                return result
            if isinstance(result, SymbolicRef):
                return env[result.name]
            return ConcreteVal(result.tag, env[result.name])
        if isinstance(result, lowexpr.Expr):
            return lowexpr.read_back(result, self.scope, env)
        return result


class _Plan:
    """A program value's top level staged for one compile, kept on its root
    Bind and made in hot's epoch: the runner, the steps built so far, in
    order, and the walk of core.statements that yields the statements after
    them.  A run performs the steps, then walks on: each statement becomes a
    step, which is kept and then performed, so output is written before any
    later statement is staged.  A run that raises leaves the plan where it
    was, and the next run goes on from there: a statement whose step could
    not be built is walked again, and the walk retries a continuation that
    raised."""

    __slots__ = ("runner", "epoch", "walk", "steps", "unbuilt", "done")

    def __init__(self, prog: Program, compile: Callable) -> None:
        self.runner, self.epoch = _Runner(compile), hot.epoch
        self.walk = core.statements(prog, self.runner.scope)
        self.steps: list[Step] = []
        self.unbuilt: tuple[tuple[Instr, str | None], ...] = ()
        self.done = False

    def run(self, env: Env) -> Any:
        for step in self.steps:
            step(env)
        if not self.done:
            self._stage(env)
        return self.runner.read_back(self.walk.result, env)

    def _stage(self, env: Env) -> None:
        steps, build = self.steps, self.runner.step
        unbuilt, self.unbuilt = self.unbuilt, ()
        for cmd, name in chain(unbuilt, self.walk):
            try:
                step = build(cmd, name)
            except BaseException:
                self.unbuilt = ((cmd, name),)
                raise
            steps.append(step)
            step(env)
        self.done = True


def _plan(prog: Program, compile: Callable) -> _Plan:
    """The plan a Bind root keeps for compile, made on its first run and
    again in a new hot epoch; any other root's own throwaway plan, whose
    steps would hold the root itself, and, kept on it, be a reference cycle."""
    if not isinstance(prog, Bind):
        return _Plan(prog, compile)
    plans = prog.plans
    plan = plans.get(compile)
    if plan is None or plan.epoch is not hot.epoch:
        plan = plans[compile] = _Plan(prog, compile)
    return plan


def run(prog: Program, lang: Language, stdin: TextIO, stdout: TextIO) -> tuple[Any, int]:
    """Interpret a program.  Returns its result and the number of input
    lines consumed."""
    source = _Input(stdin)
    if lang.compile is None:
        result = core.interpret(_Reference(lang, source.read, stdout.write).perform, prog)
    else:
        env = {"write": stdout.write, "read": source.read}
        result = _plan(prog, lang.compile).run(env)
    return result, source.reads


def run_text(prog: Program, lang: Language, text: str = "") -> tuple[Any, str, int]:
    """Run against string input, capturing output.  Returns (result, output,
    lines consumed)."""
    out = io.StringIO()
    result, reads = run(prog, lang, io.StringIO(text), out)
    return result, out.getvalue(), reads
