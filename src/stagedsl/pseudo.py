"""Render programs as indented pseudo-code.

One statement per instruction, each on one line, loops as for/end-for
blocks, the whole program indented one level.  The walk itself, with its
fresh names, indentation and loop recursion, is core.SymbolicWalk, shared
with the C back end; this module supplies only the text of each statement.
"""

from __future__ import annotations

from . import lowexpr
from .core import STRING_ESCAPES, Language, Program, SymbolicWalk, interpret


def quote_string(s: str) -> str:
    """Double-quote a string by core.STRING_ESCAPES, the table C quotes by
    too, so a control character never breaks a statement's line."""
    return '"' + s.translate(STRING_ESCAPES) + '"'


class _Pseudo(SymbolicWalk):
    """Statement text for the shared symbolic walk."""

    loop_end = "end for"

    def __init__(self, render) -> None:
        super().__init__()
        self.expr = render

    def init_ref(self, name: str, init) -> str:
        return f"{name} <- initRef {self.expr(init)}"

    def get_ref(self, name: str, ref: str) -> str:
        return f"{name} <- getRef {ref}"

    def set_ref(self, ref: str, value) -> str:
        return f"setRef {ref} {self.expr(value)}"

    def read_input(self, name: str) -> str:
        return f"{name} <- readInput"

    def write_output(self, value) -> str:
        return f"writeOutput {self.expr(value)}"

    def print_str(self, text: str) -> str:
        return f"printStr {quote_string(text)}"

    def for_loop(self, name: str, count) -> str:
        return f"for {name} < {self.expr(count)}"


def render_program(prog: Program, lang: Language = lowexpr.LANG) -> str:
    """Emit a whole program.  The empty program renders as empty text."""
    walk = _Pseudo(lang.render)
    interpret(walk.handle, prog)
    return "".join(line + "\n" for line in walk.statements)
