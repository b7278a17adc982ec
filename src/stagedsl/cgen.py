"""Emit C99 from programs over the minimal expression language.

Everything lives in one main().  The walk over the program is
core.listing, which core.listed keeps on the program value for the
pseudo-code back end too, so variables get the same names there and here.
This module prints each entry of the listing as C; the declarations, all
hoisted to the top of main, are the names on the listing's Scope.
An expression's text is a table of rules for lowexpr.fold, which has no
rule for Let or Iter.  Arithmetic goes through unsigned casts so 32-bit
wraparound is defined behaviour rather than a compiler mood.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
from pathlib import Path

from .core import (
    STRING_ESCAPES, DslError, ForLoop, GetRef, InitRef, PrintStr, Program, ReadInput, Scope,
    SetRef, TypeTag, WriteOutput, generated, listed,
)
from .lowexpr import Add, Eq, Lit, Mul, Not, Rules, Var, _named, fold

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


# The shared quoting, plus "?" so that no trigraph can form.
_C_STRING = STRING_ESCAPES | {ord("?"): "\\?"}
_C_FORMAT = _C_STRING | {ord("%"): "%%"}


def c_escape(s: str) -> str:
    """Escape for a printf format string, so also doubles percent signs."""
    return s.translate(_C_FORMAT)


def _c_lit(e: Lit, _context) -> str:
    # the positive half of -2**31 would not fit an int constant
    return "(-2147483647 - 1)" if e.value == -(2**31) else str(int(e.value))


_TEXT = Rules("cannot emit C for", {
    Var: _named,  # only the names the walk declared exist in C
    Lit: _c_lit,
    Add: lambda _, a, b: f"(int32_t)((uint32_t){a} + (uint32_t){b})",
    Mul: lambda _, a, b: f"(int32_t)((uint32_t){a} * (uint32_t){b})",
    Not: lambda _, a: f"(!{a})",
    Eq: lambda _, a, b: f"({a} == {b})",
})


def _statement(cmd, name, scope: Scope) -> str | None:
    match cmd:
        case GetRef():
            return f"{name} = {generated(cmd.ref, scope)};"
        case SetRef():
            return f"{generated(cmd.ref, scope)} = {fold(_TEXT, cmd.value, scope)};"
        case InitRef():
            return f"{name} = {fold(_TEXT, cmd.init, scope)};"
        case ForLoop():
            return f"for ({name} = 0; {name} < {fold(_TEXT, cmd.count, scope)}; {name}++) {{"
        case None:
            return "}"
        case WriteOutput():
            return f'printf("%d", {fold(_TEXT, cmd.value, scope)});'
        case ReadInput():
            return f'if (scanf("%d", &{name}) != 1) {{ return 1; }}'
        case PrintStr():
            text = cmd.text
            if "\0" in text:
                # printf would stop at the NUL, so write the bytes with a length
                literal = text.translate(_C_STRING)
                return f'fwrite("{literal}", 1, {len(text.encode())}, stdout);'
            return f'printf("{c_escape(text)}");' if text else None


def emit_c(prog: Program) -> str:
    """Emit a complete C translation unit for a program over the minimal
    expression language."""
    entries, scope = listed(prog)
    statements = [
        "    " * depth + text
        for depth, cmd, name in entries
        if (text := _statement(cmd, name, scope)) is not None
    ]
    decls = scope.names
    lines = ["#include <stdint.h>", "#include <stdio.h>", "", "int main(void)", "{"]
    lines += [f"    {_C_TYPE[tag]} {name} = 0;" for name, tag in decls]
    if decls and statements:
        lines.append("")
    lines += statements
    # a declared name may never be read (a write-only cell, an unused input
    # or counter); keep the strict compile quiet about every one of them
    lines += [f"    (void){name};" for name, _ in decls]
    lines += ["    return 0;", "}"]
    return "\n".join(lines) + "\n"


def c_compiler() -> str:
    """The compiler command, $CC or cc: a program and any leading flags."""
    return os.environ.get("CC", "cc")


def have_c_compiler() -> bool:
    try:
        words = shlex.split(c_compiler())
    except ValueError:  # unbalanced quotes
        return False
    return bool(words) and shutil.which(words[0]) is not None


def compile_c(source: str, workdir: Path, name: str = "prog") -> Path:
    """Compile source under the strict flag set; returns the executable
    path.  Raises with the compiler's diagnostics on any warning."""
    workdir = Path(workdir)
    c_file = workdir / f"{name}.c"
    exe = workdir / name
    c_file.write_text(source)
    try:
        command = [*shlex.split(c_compiler()), *STRICT_FLAGS, "-o", str(exe), str(c_file)]
        proc = subprocess.run(command, capture_output=True, text=True)
    except (OSError, ValueError) as err:
        raise DslError(f"cannot start the C compiler CC={c_compiler()!r}: {err}") from None
    if proc.returncode != 0 or proc.stderr:
        raise DslError(f"C compile failed:\n{proc.stderr}")
    return exe
