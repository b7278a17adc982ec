"""Deep embedding of imperative programs over a pluggable expression language.

A program is a tree of Ret / Bind / instruction nodes.  An instruction is
its own program node: the seven instruction classes subclass Instr, itself a
Program, so no wrapper stands between a Bind and the instruction it runs.
The instruction set is fixed (references, console input/output, counted
loops); the expression language is not.  Anything that wants to consume a
program, whether to run it, print it, or rewrite it into a program over a
different expression language, does so by folding over the tree, and must
behave identically no matter how the Bind nodes happen to be nested.

Binding a returned value applies the continuation at once, by return's
left identity (ret(a).bind(f) is f(a)); binding a Bind or an instruction
builds a Bind, whose continuation runs only when an interpretation reaches it.

Loop and continuation bodies are ordinary host functions.  They are
instantiated with symbolic names when generating code, and also when the
runtime stages a program, once per program value, to run it many times:
its top level, walked by statements, and each loop body.  Only the
reference interpreter instantiates them with concrete values.  Every body
must therefore build the same program whatever value it is passed, which
is what lets a staged program run on any input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator


class TypeTag(Enum):
    """The closed universe of value types a program can manipulate."""

    I32 = "i32"
    BOOL = "bool"

    def __repr__(self) -> str:
        return f"TypeTag.{self.name}"


def wrap_i32(n: int) -> int:
    """Reduce an integer into two's-complement 32-bit range.  A mask runs
    faster than % 2**32 and gives the same result for every int."""
    return ((n + 0x80000000) & 0xFFFFFFFF) - 0x80000000


class DslError(Exception):
    """Base class for every error this kit raises deliberately."""


class TagError(DslError):
    """Operands with incompatible type tags met at construction time."""


class StageError(DslError):
    """A value crossed stages: a symbolic name reached the runtime
    interpreter, a live runtime cell reached a code generator, or a
    reference the program made up itself reached either."""


class UnboundVariableError(DslError):
    """Closed evaluation met a variable."""


# --------------------------------------------------------------------------
# Staged values.  Instructions yield Vals and Refs; each is either a live
# runtime object (concrete) or a generated name (symbolic).

@dataclass
class ConcreteVal:
    tag: TypeTag
    value: Any


@dataclass
class SymbolicVal:
    tag: TypeTag
    name: str


@dataclass(eq=False)
class ConcreteRef:
    """A mutable cell.  Identity matters, so no structural equality."""

    tag: TypeTag
    value: Any


@dataclass
class SymbolicRef:
    tag: TypeTag
    name: str


Val = ConcreteVal | SymbolicVal
Ref = ConcreteRef | SymbolicRef


# --------------------------------------------------------------------------
# Program trees.

class Program:
    """Base class for the three node shapes: Ret, Bind and instructions.

    Interpretations may not inspect how Binds nest; the tree is built by
    whatever order the combinators were applied in, and equivalent
    bracketings must be indistinguishable.
    """

    def bind(self, rest: Callable[[Any], "Program"]) -> "Program":
        return Bind(self, rest)

    def then(self, nxt: "Program") -> "Program":
        return self.bind(lambda _result: nxt)


@dataclass
class Ret(Program):
    value: Any = None

    def bind(self, rest: Callable[[Any], Program]) -> Program:
        return rest(self.value)


@dataclass
class Bind(Program):
    first: Program
    rest: Callable[[Any], Program]

    @property
    def plans(self) -> dict[Any, Any]:
        """The runtime's staged top levels of this program, by the compile of
        the language each runs under, made on first use: a plain attribute,
        not a cached_property, whose lock a run of a new program would pay."""
        return self.__dict__.setdefault("_plans", {})

    @functools.cached_property
    def listed(self) -> tuple[list[tuple[int, Instr | None, str | None]], Scope]:
        """listing(self, Scope()) and that Scope, kept for the next printer."""
        scope = Scope()
        return listing(self, scope), scope


class Instr(Program):
    """Base class of the seven instructions, each a program node itself."""

    @property
    def cmd(self) -> "Instr":
        """The node itself, for walkers that read an instruction's cmd
        (perfbench/oracle.py does)."""
        return self


# --------------------------------------------------------------------------
# Instructions.  Expression operands are duck-typed: anything with a .tag.
# Tag checks happen here, when the instruction is built, so an ill-tagged
# program can never reach an interpretation.

@dataclass
class InitRef(Instr):
    """Allocate a reference initialised to the expression's value."""

    init: Any


@dataclass
class GetRef(Instr):
    """Yield the current value of a reference."""

    ref: Ref


@dataclass
class SetRef(Instr):
    ref: Ref
    value: Any

    def __post_init__(self) -> None:
        if self.ref.tag is not self.value.tag:
            raise TagError(
                f"setRef: reference holds {self.ref.tag.value}, "
                f"expression has {self.value.tag.value}"
            )


@dataclass
class ReadInput(Instr):
    """Read one line of input as a 32-bit integer."""


@dataclass
class WriteOutput(Instr):
    value: Any

    def __post_init__(self) -> None:
        if self.value.tag is not TypeTag.I32:
            raise TagError(f"writeOutput: needs i32, got {self.value.tag.value}")


@dataclass
class PrintStr(Instr):
    text: str

    def __post_init__(self) -> None:
        try:  # the back ends write UTF-8, which has no lone surrogates
            if isinstance(self.text, str) and (self.text.isascii() or self.text.encode()):
                return
        except UnicodeEncodeError:
            pass
        raise TagError(f"printStr: needs text that encodes as UTF-8, got {self.text!r}")


@dataclass
class ForLoop(Instr):
    """Run body(counter) for counter = 0 .. count-1.

    The body receives the counter as a Val and returns the program for one
    iteration.  A non-positive count means zero iterations.
    """

    count: Any
    body: Callable[[Val], "Program"]

    def __post_init__(self) -> None:
        if self.count.tag is not TypeTag.I32:
            raise TagError(f"for: count must be i32, got {self.count.tag.value}")


def seq(*steps: Program) -> Program:
    """Run steps in order; the result is the last step's result."""
    return functools.reduce(Program.then, steps, Ret())


def interpret(handler: Callable[[Instr], Any], prog: Program) -> Any:
    """Fold a program with a per-instruction handler.

    Ret nodes produce their value, Bind nodes sequence, and an instruction
    node is handed to the handler as it is; the handler performs whatever
    effect it stands for and returns its result.  Iterative on the Bind
    spine, so only loop nesting recurses (inside handlers that choose to).
    """
    pending: list[Callable[[Any], Program]] = []
    current = prog
    while True:
        if isinstance(current, Bind):
            pending.append(current.rest)
            current = current.first
            continue
        if isinstance(current, Ret):
            result = current.value
        elif isinstance(current, Instr):
            result = handler(current)
        else:
            raise DslError(f"not a program node: {current!r}")
        if not pending:
            return result
        current = pending.pop()(result)


# --------------------------------------------------------------------------
# Expression-language capabilities, and the front end that is generic in
# them.  A Language says how to build literals and variables, how to
# evaluate closed expressions and how to print them, and optionally how to
# compile open ones.

class Scope:
    """The one list of the names a walk generates, each with its tag, in
    order of allocation; results, loop counters and compiled binders share
    its counter, and the C back end declares every name on it.

    Staging instantiates a body once with generated names and compiles it to
    functions of an environment, a dict from those names to their current
    values.  Membership goes by identity, so a program's own variable whose
    text happens to equal a generated name stays unbound, as it is under
    closed evaluation.
    """

    def __init__(self) -> None:
        # keyed by id; holding each name keeps its id from being reused
        self._names: dict[int, tuple[str, TypeTag]] = {}

    def fresh(self, prefix: str, tag: TypeTag) -> str:
        name = f"{prefix}{len(self._names)}"
        self._names[id(name)] = name, tag
        return name

    @property
    def names(self) -> list[tuple[str, TypeTag]]:
        return list(self._names.values())

    def tag(self, name: str) -> TypeTag:
        """The tag of a name this scope generated."""
        return self._names[id(name)][1]

    def __contains__(self, name: object) -> bool:
        return id(name) in self._names


# How the text back ends quote a print string: backslash, quote, \n, \t and
# \r escaped short, every other control character and DEL as 3-digit octal,
# which no digit after it extends.  So no quoted string spans lines.
STRING_ESCAPES = {c: f"\\{c:03o}" for c in [*range(32), 127]} | {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\t"): "\\t",
    ord("\r"): "\\r",
}


def symbolic(cmd: Instr, scope: Scope) -> tuple[str | None, Any]:
    """The one naming rule of the symbolic walks: the name of cmd's result in
    scope, "r" for a reference and "v" for a value or a loop counter, with
    the symbolic result its continuation receives (None for a loop).  Names
    share the scope's counter, so suffixes count 0, 1, 2, ... in order."""
    # patterns without captures: CPython 3.11 matches them about 3x faster
    match cmd:
        case GetRef():
            name = scope.fresh("v", cmd.ref.tag)
            return name, SymbolicVal(cmd.ref.tag, name)
        case SetRef() | WriteOutput() | PrintStr():
            return None, None
        case InitRef():
            name = scope.fresh("r", cmd.init.tag)
            return name, SymbolicRef(cmd.init.tag, name)
        case ForLoop():
            return scope.fresh("v", TypeTag.I32), None
        case ReadInput():
            name = scope.fresh("v", TypeTag.I32)
            return name, SymbolicVal(TypeTag.I32, name)
    raise DslError(f"not an instruction: {cmd!r}")


class statements:
    """The statements of one body in order, as (instruction, name), each
    name given by symbolic: interpret's fold with symbolic, paused after each
    statement.  It never enters a loop's body, so a caller can walk that
    body, or leave it unbuilt, before anything after the loop gets a name.
    Iterating it gives its walk, a generator, which goes on from where the
    last one stopped: a continuation or symbolic that raises ends that
    generator but leaves the state where it was, so the next one tries
    again.  Once the walk is exhausted, result is the body's result."""

    __slots__ = ("_state", "_walk")

    def __init__(self, prog: Program, scope: Scope) -> None:
        self._state = [scope, [], prog, None]  # the generator's: scope, pending, current, result
        self._walk: Iterator[tuple[Instr, str | None]] | None = None

    @property
    def result(self) -> Any:
        return self._state[3]

    def __iter__(self) -> Iterator[tuple[Instr, str | None]]:
        if self._walk is None or self._walk.gi_frame is None:  # none yet, or it stopped
            self._walk = _walk(self._state)
        return self._walk

    def __next__(self) -> tuple[Instr, str | None]:
        return next(iter(self))


def _walk(state: list) -> Iterator[tuple[Instr, str | None]]:
    """statements' generator, over the state it writes back when it stops:
    a generator is the cheapest pause, and holding the state, not the
    statements, it makes no cycle."""
    scope, pending, current, result = state
    try:
        while True:
            if current is None:  # the last statement's continuation takes its result
                if not pending:
                    return
                current = pending[-1](result)
                pending.pop()
            if isinstance(current, Bind):
                pending.append(current.rest)
                current = current.first
            elif isinstance(current, Instr):
                name, result = symbolic(current, scope)
                cmd, current = current, None
                yield cmd, name
            elif isinstance(current, Ret):
                result, current = current.value, None
            else:
                raise DslError(f"not a program node: {current!r}")
    finally:
        state[2:] = current, result


def listing(prog: Program, scope: Scope) -> list[tuple[int, Instr | None, str | None]]:
    """Every statement of a program in order, as (depth, instruction, name):
    depth 1 at top level and one more inside each loop body, which
    (depth, None, None) closes.  Each body is instantiated once, with its
    counter's name, and open bodies are a stack of statements walks, so it
    never recurses.  The printers print it through listed."""
    entries = []
    walks = [statements(prog, scope)]
    while walks:
        for cmd, name in walks[-1]:
            entries.append((len(walks), cmd, name))
            if isinstance(cmd, ForLoop):
                walks.append(statements(cmd.body(SymbolicVal(TypeTag.I32, name)), scope))
                break
        else:  # the innermost body ended
            walks.pop()
            if walks:
                entries.append((len(walks), None, None))
    return entries


def listed(prog: Program) -> tuple[list[tuple[int, Instr | None, str | None]], Scope]:
    """What both printers print, walked once per program value: a Bind root's
    own Bind.listed, or that of a throwaway Bind around any other root, whose
    listing holds the root itself and, kept on it, would be a reference cycle."""
    return (prog if isinstance(prog, Bind) else Bind(prog, Ret)).listed


def generated(ref: Ref, scope: Scope) -> str:
    """The name a statement refers to a reference by, which a symbolic walk
    over scope must have generated."""
    if isinstance(ref, SymbolicRef) and ref.name in scope:
        return ref.name
    raise StageError(f"reference {ref!r} was not generated by this walk")


@dataclass(frozen=True)
class Language:
    const: Callable[[Any, TypeTag], Any]
    var: Callable[[str, TypeTag], Any]
    eval_closed: Callable[[Any], Any]
    render: Callable[[Any, Scope | None], str]  # over a scope, as lowexpr.render
    # compile(e, scope) gives fn(env), which evaluates e reading the scope's
    # names from env and raises as eval_closed would on anything else; None
    # selects the reference path: eval_closed, and loop bodies rebuilt per trip
    compile: Callable[[Any, Scope], Callable[[dict[str, Any]], Any]] | None = None


def val_to_exp(lang: Language, val: Val) -> Any:
    """Inject an instruction result back into an expression language."""
    if isinstance(val, ConcreteVal):
        return lang.const(val.value, val.tag)
    if isinstance(val, SymbolicVal):
        return lang.var(val.name, val.tag)
    raise StageError(f"not a value: {val!r}")


# constructors that only construct are the node classes themselves
ret, init_ref, set_ref = Ret, InitRef, SetRef
write_output, print_str = WriteOutput, PrintStr

def get_ref(lang: Language, ref: Ref) -> Program:
    return GetRef(ref).bind(lambda val: Ret(val_to_exp(lang, val)))

def modify_ref(lang: Language, ref: Ref, update: Callable[[Any], Any]) -> Program:
    return get_ref(lang, ref).bind(lambda e: set_ref(ref, update(e)))

def read_input(lang: Language) -> Program:
    return ReadInput().bind(lambda val: Ret(val_to_exp(lang, val)))

def for_loop(lang: Language, count: Any, body: Callable[[Any], Program]) -> Program:
    """Counted loop; body receives the counter as an expression."""
    return ForLoop(count, lambda val: body(val_to_exp(lang, val)))


# --------------------------------------------------------------------------
# Changing the expression language of a whole program.

def reexpress(translate_expr: Callable[[Any], Program], prog: Program) -> Program:
    """Rewrite a program over one expression language into a program over
    another, given a translation for individual expressions.

    The translation returns a program so it may emit setup instructions
    ahead of the expression it delivers.  Program structure is otherwise
    preserved: instructions stay in order, loop bodies are translated
    recursively when instantiated.
    """
    if isinstance(prog, Instr):  # no spine, the commonest continuation result
        return reexpress_cmd(translate_expr, prog)
    # Iterative down the left spine of Binds, which seq builds as deep as
    # the statement list is long; continuations are translated lazily.
    rests: list[Callable[[Any], Program]] = []
    while isinstance(prog, Bind):
        rests.append(prog.rest)
        prog = prog.first
    if isinstance(prog, Instr):
        prog = reexpress_cmd(translate_expr, prog)
    elif not isinstance(prog, Ret):
        raise DslError(f"not a program node: {prog!r}")
    for rest in reversed(rests):
        prog = Bind(prog, lambda v, rest=rest: reexpress(translate_expr, rest(v)))
    return prog


def reexpress_cmd(translate_expr: Callable[[Any], Program], cmd: Instr) -> Program:
    match cmd:  # patterns without captures, as in symbolic
        case InitRef():
            return translate_expr(cmd.init).bind(InitRef)
        case SetRef():
            return translate_expr(cmd.value).bind(lambda e: SetRef(cmd.ref, e))
        case WriteOutput():
            return translate_expr(cmd.value).bind(WriteOutput)
        case ForLoop():
            return translate_expr(cmd.count).bind(
                lambda c: ForLoop(c, lambda val: reexpress(translate_expr, cmd.body(val)))
            )
        case GetRef() | ReadInput() | PrintStr():
            return cmd
    raise DslError(f"not an instruction: {cmd!r}")
