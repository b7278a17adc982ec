"""Emit C99 from programs over the minimal expression language.

Everything lives in one main().  Variables keep the names the pseudo-code
backend would give them (same shared counter), and are all declared at the
top of main.  Arithmetic goes through unsigned casts so 32-bit wraparound is
defined behaviour rather than a compiler mood.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from pathlib import Path

from . import core, lowexpr
from .core import (
    DslError,
    ForLoop,
    GetRef,
    InitRef,
    Instruction,
    PrintStr,
    Program,
    ReadInput,
    Ref,
    SetRef,
    StageError,
    SymbolicRef,
    SymbolicVal,
    TypeTag,
    WriteOutput,
)

_C_TYPE = {TypeTag.I32: "int32_t", TypeTag.BOOL: "int"}

# Strict mode used by the test harness; emitted code must survive it.
# Comparing a value with itself is a legal source program, so that one
# style lint stays off.
STRICT_FLAGS = [
    "-std=c99",
    "-pedantic",
    "-Wall",
    "-Wextra",
    "-Werror",
    "-Wno-tautological-compare",
]


# Control characters and DEL as 3-digit octal, which a following digit
# cannot extend; then the characters with a shorter escape.  "?" is escaped
# so no trigraph can form.  NUL stays as it is: it would end the format
# string, so strings holding it are not supported.
_C_ESCAPES = {c: f"\\{c:03o}" for c in [*range(1, 32), 127]} | {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\t"): "\\t",
    ord("\r"): "\\r",
    ord("?"): "\\?",
    ord("%"): "%%",
}


def c_escape(s: str) -> str:
    """Escape for a printf format string, so also doubles percent signs."""
    return s.translate(_C_ESCAPES)


class _CEmitter:
    def __init__(self) -> None:
        self.decls: list[tuple[str, TypeTag]] = []
        self.body: list[str] = []
        self.counter = 0
        self.read_names: set[str] = set()
        self.depth = 1

    def fresh(self, prefix: str, tag: TypeTag) -> str:
        name = f"{prefix}{self.counter}"
        self.counter += 1
        self.decls.append((name, tag))
        return name

    def _stmt(self, text: str) -> None:
        self.body.append("    " * self.depth + text)

    def _ref_name(self, ref: Ref) -> str:
        if isinstance(ref, SymbolicRef):
            return ref.name
        raise StageError("live runtime reference reached the code generator")

    def expr(self, e: lowexpr.LowExpr) -> str:
        match e:
            case lowexpr.Var(name, _):
                self.read_names.add(name)
                return name
            case lowexpr.Lit(value, tag):
                if tag is TypeTag.BOOL:
                    return "1" if value else "0"
                if value == -(2**31):
                    # the positive half would not fit an int constant
                    return "(-2147483647 - 1)"
                return str(value)
            case lowexpr.Add(a, b):
                return f"(int32_t)((uint32_t){self.expr(a)} + (uint32_t){self.expr(b)})"
            case lowexpr.Mul(a, b):
                return f"(int32_t)((uint32_t){self.expr(a)} * (uint32_t){self.expr(b)})"
            case lowexpr.Not(a):
                return f"(!{self.expr(a)})"
            case lowexpr.Eq(a, b):
                return f"({self.expr(a)} == {self.expr(b)})"
        raise DslError(f"cannot emit C for {e!r}")

    def handle(self, cmd: Instruction):
        match cmd:
            case InitRef(init):
                src = self.expr(init)
                name = self.fresh("r", init.tag)
                self._stmt(f"{name} = {src};")
                return SymbolicRef(init.tag, name)
            case GetRef(ref):
                src = self._ref_name(ref)
                self.read_names.add(src)
                name = self.fresh("v", ref.tag)
                self._stmt(f"{name} = {src};")
                return SymbolicVal(ref.tag, name)
            case SetRef(ref, value):
                self._stmt(f"{self._ref_name(ref)} = {self.expr(value)};")
                return None
            case ReadInput():
                name = self.fresh("v", TypeTag.I32)
                self._stmt(f'if (scanf("%d", &{name}) != 1) {{ return 1; }}')
                return SymbolicVal(TypeTag.I32, name)
            case WriteOutput(value):
                self._stmt(f'printf("%d", {self.expr(value)});')
                return None
            case PrintStr(text):
                if text:
                    self._stmt(f'printf("{c_escape(text)}");')
                return None
            case ForLoop(count, body):
                name = self.fresh("v", TypeTag.I32)
                self.read_names.add(name)
                bound = self.expr(count)
                self._stmt(f"for ({name} = 0; {name} < {bound}; {name}++) {{")
                self.depth += 1
                core.interpret(self.handle, body(SymbolicVal(TypeTag.I32, name)))
                self.depth -= 1
                self._stmt("}")
                return None
        raise DslError(f"not an instruction: {cmd!r}")


def emit_c(prog: Program) -> str:
    """Emit a complete C translation unit for a program over the minimal
    expression language."""
    em = _CEmitter()
    core.interpret(em.handle, prog)
    lines = [
        "#include <stdint.h>",
        "#include <stdio.h>",
        "",
        "int main(void)",
        "{",
    ]
    for name, tag in em.decls:
        lines.append(f"    {_C_TYPE[tag]} {name} = 0;")
    if em.decls and em.body:
        lines.append("")
    lines.extend(em.body)
    # write-only cells and unread inputs are legitimate programs; keep the
    # strict compile quiet about them
    for name, _ in em.decls:
        if name not in em.read_names:
            lines.append(f"    (void){name};")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def c_compiler() -> str:
    return os.environ.get("CC", "cc")


def have_c_compiler() -> bool:
    return shutil.which(c_compiler()) is not None


def compile_c(source: str, workdir: Path, name: str = "prog") -> Path:
    """Compile source under the strict flag set; returns the executable
    path.  Raises with the compiler's diagnostics on any warning."""
    workdir = Path(workdir)
    c_file = workdir / f"{name}.c"
    exe = workdir / name
    c_file.write_text(source)
    proc = subprocess.run(
        [c_compiler(), *STRICT_FLAGS, "-o", str(exe), str(c_file)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0 or proc.stderr:
        raise DslError(f"C compile failed:\n{proc.stderr}")
    return exe
