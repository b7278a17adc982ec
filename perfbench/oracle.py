"""Reference semantics for checking the benchmark's outputs.

Nothing here calls an interpretation from stagedsl: the program walker, the
expression evaluator, the input parser and the pseudo-code interpreter are
written from the README's description of the language.  The walker has to
call the program's own continuations, because loop and binder bodies are host
functions, and it builds the core's value classes to pass to them.
"""

from __future__ import annotations

import re


class OracleError(Exception):
    """The reference semantics rejected a program or its input."""


def wrap32(n: int) -> int:
    return (n + 2**31) % 2**32 - 2**31


def power_reference(m: int, n: int) -> str:
    """The whole transcript powerInput prints for inputs m and n."""
    return f"Please enter two numbers\n >  > Here's a fact: {m}^{n} = {wrap32(pow(m, n, 2**32))}.\n"


def sum_reference(values: list[int]) -> str:
    """The whole transcript sumInput prints for four inputs."""
    return f"Please enter 4 numbers\n{' > ' * 4}The sum of your numbers is {wrap32(sum(values))}.\n"


def parse_input_line(line: str) -> int:
    text = line.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or any(c not in "0123456789" for c in digits):
        raise OracleError(f"not a decimal integer: {text!r}")
    return wrap32(int(text))


class _Input:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        if self.lines[-1] == "":
            self.lines.pop()
        self.reads = 0

    def read(self) -> int:
        if self.reads >= len(self.lines):
            raise OracleError("input exhausted")
        value = parse_input_line(self.lines[self.reads])
        self.reads += 1
        return value


class ProgramOracle:
    """Runs a program tree over either expression language, by structural
    recursion on Ret / Bind / Instr and on the expression node classes."""

    def __init__(self, core, high_lit):
        self.core = core
        self.high_lit = high_lit  # Let and Iter bodies take rich-language literals

    def run(self, prog, text: str) -> tuple[str, int]:
        """Stdout and the number of input lines read."""
        self._out: list[str] = []
        self._input = _Input(text)
        self._program(prog)
        return "".join(self._out), self._input.reads

    def _program(self, prog):
        core = self.core
        if isinstance(prog, core.Ret):
            return prog.value
        if isinstance(prog, core.Bind):
            return self._program(prog.rest(self._program(prog.first)))
        if isinstance(prog, core.Instr):
            return self._instr(prog.cmd)
        raise OracleError(f"not a program node: {prog!r}")

    def _instr(self, cmd):
        core = self.core
        kind = type(cmd).__name__
        if kind == "InitRef":
            return core.ConcreteRef(cmd.init.tag, self.expr(cmd.init))
        if kind == "GetRef":
            return core.ConcreteVal(cmd.ref.tag, cmd.ref.value)
        if kind == "SetRef":
            cmd.ref.value = self.expr(cmd.value)
            return None
        if kind == "ReadInput":
            return core.ConcreteVal(core.TypeTag.I32, self._input.read())
        if kind == "WriteOutput":
            self._out.append(str(self.expr(cmd.value)))
            return None
        if kind == "PrintStr":
            self._out.append(cmd.text)
            return None
        if kind == "ForLoop":
            for k in range(max(self.expr(cmd.count), 0)):
                self._program(cmd.body(core.ConcreteVal(core.TypeTag.I32, k)))
            return None
        raise OracleError(f"not an instruction: {cmd!r}")

    def expr(self, e):
        """Value of a closed expression of either language."""
        kind = type(e).__name__
        if kind == "Lit":
            return e.value
        if kind == "Add":
            return wrap32(self.expr(e.left) + self.expr(e.right))
        if kind == "Mul":
            return wrap32(self.expr(e.left) * self.expr(e.right))
        if kind == "Not":
            return not self.expr(e.operand)
        if kind == "Eq":
            return self.expr(e.left) == self.expr(e.right)
        if kind == "Let":
            return self.expr(e.body(self._literal(self.expr(e.shared))))
        if kind == "Iter":
            state = self.expr(e.init)
            for _ in range(max(self.expr(e.count), 0)):
                state = self.expr(e.step(self._literal(state)))
            return state
        raise OracleError(f"cannot evaluate {e!r}")

    def _literal(self, value):
        tag = self.core.TypeTag.BOOL if isinstance(value, bool) else self.core.TypeTag.I32
        return self.high_lit(value, tag)


# --------------------------------------------------------------------------
# Pseudo-code, read back as a program.

_TOKEN = re.compile(r'\s*(\(|\)|==|\+|\*|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*)')
_STMT = re.compile(
    r"(?P<dst>[vr][0-9]+) <- (?P<op>initRef|getRef|readInput)(?: (?P<arg>.*))?"
    r"|(?P<op2>setRef|writeOutput|printStr|for) ?(?P<rest>.*)"
)
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _unquote(text: str) -> str:
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise OracleError(f"not a quoted string: {text!r}")
    out, i, body = [], 0, text[1:-1]
    while i < len(body):
        c = body[i]
        if c == "\\":
            if body[i + 1 : i + 2] not in _ESCAPES:
                raise OracleError(f"bad escape in {text!r}")
            out.append(_ESCAPES[body[i + 1]])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _parse_expr(text: str):
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise OracleError(f"cannot tokenize {text!r}")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise OracleError(f"truncated expression {text!r}")
        pos += 1
        return tokens[pos - 1]

    def parse():
        tok = take()
        if tok == "(":
            if tokens[pos : pos + 1] == ["not"]:
                take()
                node = ("not", parse())
            else:
                left = parse()
                op = take()
                if op not in ("+", "*", "=="):
                    raise OracleError(f"unknown operator {op!r} in {text!r}")
                node = (op, left, parse())
            if take() != ")":
                raise OracleError(f"unbalanced {text!r}")
            return node
        if tok in ("True", "False"):
            return ("lit", tok == "True")
        if tok[0] in "-0123456789":
            return ("lit", int(tok))
        return ("var", tok)

    node = parse()
    if pos != len(tokens):
        raise OracleError(f"trailing tokens in {text!r}")
    return node


def _parse_block(lines: list[str], pos: int, nested: bool):
    block = []
    while pos < len(lines):
        line = lines[pos].strip()
        pos += 1
        if line == "end for":
            if not nested:
                raise OracleError("end for without for")
            return block, pos
        m = _STMT.fullmatch(line)
        if not m:
            raise OracleError(f"unknown statement {line!r}")
        if m["dst"]:
            arg = m["arg"]
            block.append((m["op"], m["dst"], _parse_expr(arg) if m["op"] == "initRef" else arg))
        elif m["op2"] == "printStr":
            block.append(("printStr", _unquote(m["rest"])))
        elif m["op2"] == "setRef":
            ref, _, value = m["rest"].partition(" ")
            block.append(("setRef", ref, _parse_expr(value)))
        elif m["op2"] == "writeOutput":
            block.append(("writeOutput", _parse_expr(m["rest"])))
        else:
            var, _, bound = m["rest"].partition(" < ")
            body, pos = _parse_block(lines, pos, nested=True)
            block.append(("for", var, _parse_expr(bound), body))
    if nested:
        raise OracleError("for without end for")
    return block, pos


def run_pseudo(listing: str, text: str) -> tuple[str, int]:
    """Execute a pseudo-code listing; stdout and input lines read."""
    block, _ = _parse_block(listing.splitlines(), 0, nested=False)
    values: dict[str, object] = {}
    out: list[str] = []
    source = _Input(text)

    def ev(node):
        kind = node[0]
        if kind == "lit":
            return node[1]
        if kind == "var":
            if node[1] not in values:
                raise OracleError(f"unbound name {node[1]}")
            return values[node[1]]
        if kind == "not":
            return not ev(node[1])
        a, b = ev(node[1]), ev(node[2])
        if kind == "==":
            return a == b
        return wrap32(a + b if kind == "+" else a * b)

    def execute(stmts):
        for stmt in stmts:
            op = stmt[0]
            if op == "initRef":
                values[stmt[1]] = ev(stmt[2])
            elif op == "getRef":
                values[stmt[1]] = values[stmt[2]]
            elif op == "readInput":
                values[stmt[1]] = source.read()
            elif op == "setRef":
                values[stmt[1]] = ev(stmt[2])
            elif op == "writeOutput":
                out.append(str(ev(stmt[1])))
            elif op == "printStr":
                out.append(stmt[1])
            else:
                _, var, bound, body = stmt
                for k in range(max(ev(bound), 0)):
                    values[var] = k
                    execute(body)

    execute(block)
    return "".join(out), source.reads
