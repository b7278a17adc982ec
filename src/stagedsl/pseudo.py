"""Render programs as indented pseudo-code.

One statement per instruction, each on one line, loops as for/end-for
blocks, the whole program indented one level.  The walk itself, with its
fresh names and loop nesting, is core.listing, which core.listed keeps on
the program value for the C back end too; this module prints each entry,
its expressions by lang.render over the listing's scope, as C prints them.
"""

from __future__ import annotations

from . import lowexpr
from .core import (
    STRING_ESCAPES, ForLoop, GetRef, InitRef, Language, PrintStr, Program, ReadInput, Scope,
    SetRef, WriteOutput, generated, listed,
)


def quote_string(s: str) -> str:
    """Double-quote a string by core.STRING_ESCAPES, the table C quotes by
    too, so a control character never breaks a statement's line."""
    return '"' + s.translate(STRING_ESCAPES) + '"'


def _statement(cmd, name, expr, scope: Scope) -> str:
    match cmd:
        case GetRef():
            return f"{name} <- getRef {generated(cmd.ref, scope)}"
        case SetRef():
            return f"setRef {generated(cmd.ref, scope)} {expr(cmd.value, scope)}"
        case InitRef():
            return f"{name} <- initRef {expr(cmd.init, scope)}"
        case ForLoop():
            return f"for {name} < {expr(cmd.count, scope)}"
        case None:
            return "end for"
        case WriteOutput():
            return f"writeOutput {expr(cmd.value, scope)}"
        case ReadInput():
            return f"{name} <- readInput"
        case PrintStr():
            return f"printStr {quote_string(cmd.text)}"


def render_program(prog: Program, lang: Language = lowexpr.LANG) -> str:
    """Emit a whole program.  The empty program renders as empty text."""
    (entries, scope), expr = listed(prog), lang.render
    return "".join(
        "    " * depth + _statement(cmd, name, expr, scope) + "\n"
        for depth, cmd, name in entries
    )
