"""Emit C99 from programs over the minimal expression language.

Everything lives in one main().  The walk over the program is
core.SymbolicWalk, shared with the pseudo-code back end, so variables get
the same names there and here.  This module supplies the C text of each
statement and records the declarations, all hoisted to the top of main.
An expression's text is a table of rules for lowexpr.fold, which has no
rule for Let or Iter.  Arithmetic goes through unsigned casts so 32-bit
wraparound is defined behaviour rather than a compiler mood.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from pathlib import Path

from . import core
from .core import DslError, Program, SymbolicWalk, TypeTag
from .lowexpr import Add, Eq, Expr, Lit, Mul, Not, Rules, Var, fold

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
# so no trigraph can form.
_C_STRING = {c: f"\\{c:03o}" for c in [*range(32), 127]} | {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\t"): "\\t",
    ord("\r"): "\\r",
    ord("?"): "\\?",
}
_C_FORMAT = _C_STRING | {ord("%"): "%%"}


def c_escape(s: str) -> str:
    """Escape for a printf format string, so also doubles percent signs."""
    return s.translate(_C_FORMAT)


def _c_lit(e: Lit, _context) -> str:
    # the positive half of -2**31 would not fit an int constant
    return "(-2147483647 - 1)" if e.value == -(2**31) else str(int(e.value))


_TEXT = Rules("cannot emit C for", {
    Var: lambda e, _: e.name,
    Lit: _c_lit,
    Add: "(int32_t)((uint32_t){} + (uint32_t){})".format,
    Mul: "(int32_t)((uint32_t){} * (uint32_t){})".format,
    Not: "(!{})".format,
    Eq: "({} == {})".format,
})


class _C(SymbolicWalk):
    """Statement text for the shared symbolic walk, plus the declarations."""

    loop_end = "}"

    def __init__(self) -> None:
        super().__init__()
        self.decls: list[tuple[str, TypeTag]] = []

    def fresh(self, prefix: str, tag: TypeTag) -> str:
        name = super().fresh(prefix, tag)
        self.decls.append((name, tag))
        return name

    def expr(self, e: Expr) -> str:
        return fold(_TEXT, e)

    def init_ref(self, name: str, init) -> str:
        return f"{name} = {self.expr(init)};"

    def get_ref(self, name: str, ref: str) -> str:
        return f"{name} = {ref};"

    def set_ref(self, ref: str, value) -> str:
        return f"{ref} = {self.expr(value)};"

    def read_input(self, name: str) -> str:
        return f'if (scanf("%d", &{name}) != 1) {{ return 1; }}'

    def write_output(self, value) -> str:
        return f'printf("%d", {self.expr(value)});'

    def print_str(self, text: str) -> str | None:
        if "\0" in text:
            # printf would stop at the NUL, so write the bytes with a length
            literal = text.translate(_C_STRING)
            return f'fwrite("{literal}", 1, {len(text.encode())}, stdout);'
        return f'printf("{c_escape(text)}");' if text else None

    def for_loop(self, name: str, count) -> str:
        return f"for ({name} = 0; {name} < {self.expr(count)}; {name}++) {{"


def emit_c(prog: Program) -> str:
    """Emit a complete C translation unit for a program over the minimal
    expression language."""
    em = _C()
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
    if em.decls and em.statements:
        lines.append("")
    lines.extend(em.statements)
    # a declared name may never be read (a write-only cell, an unused input
    # or counter); keep the strict compile quiet about every one of them
    for name, _ in em.decls:
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
