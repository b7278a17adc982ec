#!/usr/bin/env python3
"""Mutation runner: does tier-1 notice when the kit's code is wrong?

Each mutant in MUTANTS is one named text edit of the package: its old text,
which must occur exactly once in its file, becomes its new text.  For each
mutant the script copies the tree into a temporary directory, without
.git, .hypothesis, .pytest_cache or __pycache__, applies the edit there and
runs tier-1 with -x, less tests/test_mutants.py, which fails on any edit.
The test file of the module a mutant edits, tests/test_X.py for
src/stagedsl/X.py, runs first when there is one, then the other files.
A mutant is killed if a test fails, timed out if the run outlasts the
limit, and survived if tier-1 passes: a survivor marks a corner of the
code that no test reaches.

    python3 scripts/mutants.py

It first runs tier-1 on an unmutated copy, which must pass, and sets the
limit per mutant to three times that run's time.
Mutants run one at a time.  pytest starts in a session of its own, so a
time-out kills its whole process group, cc and the compiled binaries with
it.  The script prints one line per mutant and exits 1 if any survived.
It is not part of tier-1; tests/test_mutants.py checks only that every
edit still applies.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x"]
SKIPPED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the tree
    old: str
    new: str


MUTANTS = [
    # the staging rules the hot tier states once
    Mutant(
        "zero-trips-instantiate",
        "src/stagedsl/hot.py",
        "        if n <= 0:\n            return\n"
        "        if body is None:\n            body = instantiate()\n",
        "        if body is None:\n            body = instantiate()\n"
        "        if n <= 0:\n            return\n",
    ),
    Mutant(
        "counter-stored-as-n",
        "src/stagedsl/hot.py",
        "{'n - 1' if name == counter",
        "{'n' if name == counter",
    ),
    Mutant(
        "carried-position-off-by-one",
        "src/stagedsl/hot.py",
        "self.carried[target] = len(self.lines),",
        "self.carried[target] = len(self.lines) + 1,",
    ),
    Mutant(
        "reference-skips-generated",
        "src/stagedsl/runtime.py",
        "name = core.generated(ref, self.scope)",
        "name = ref.name",
    ),
    # one rule per kind of name in generated text, and the tier memo
    Mutant(
        "named-accepts-every-name",
        "src/stagedsl/lowexpr.py",
        "return e.name if scope is None or e.name in scope else _unbound(e, scope)",
        "return e.name",
    ),
    Mutant(
        "ref-skips-generated",
        "src/stagedsl/hot.py",
        "self.reads.add(generated(ref, self.scope))",
        "self.reads.add(ref.name)",
    ),
    Mutant(
        "store-canonical-branch-dropped",
        "src/stagedsl/hot.py",
        "if target not in self.residues:",
        "if False:",
    ),
    Mutant(
        "generate-kept-after-try",
        "src/stagedsl/hot.py",
        "            generate = None\n",
        "",
    ),
    # one trip loop, one compile path, one nesting bound, hot's own temporaries
    Mutant(
        "cold-loop-counter-off-by-one",
        "src/stagedsl/hot.py",
        "            env[counter] = k\n",
        "            env[counter] = k + 1\n",
    ),
    Mutant(
        "iter-counts-under-its-state",
        "src/stagedsl/highexpr.py",
        'iterate = hot.loop("_", count,',
        "iterate = hot.loop(name, count,",
    ),
    Mutant(
        "compile-open-skips-its-steps",
        "src/stagedsl/lowexpr.py",
        "    if not steps:\n        return result\n",
        "    if True:\n        return result\n",
    ),
    Mutant(
        "flat-never-spills",
        "src/stagedsl/lowexpr.py",
        "    if depth < _NEST:\n        return value, depth\n",
        "    if True:\n        return value, depth\n",
    ),
    Mutant("spill-depth-raised", "src/stagedsl/lowexpr.py", "_NEST = 40\n", "_NEST = 400\n"),
    Mutant(
        "hot-temporaries-share-one-name",
        "src/stagedsl/hot.py",
        'name = f"_t{len(source.lines)}"',
        'name = "_t"',
    ),
    # the hot tier's threshold and expression text
    Mutant(
        "hot-threshold-strict",
        "src/stagedsl/hot.py",
        "if generate and trips >= HOT:",
        "if generate and trips > HOT:",
    ),
    Mutant(
        "arithmetic-mask-dropped",
        "src/stagedsl/hot.py",
        'f"(({raw}) & 0xFFFFFFFF)"',
        'f"({raw})"',
    ),
    Mutant(
        "eq-compares-raw-operand-text",
        "src/stagedsl/hot.py",
        'text = f"({_canonical(*a)} == {_canonical(*b)})"',
        'text = f"({a[0]} == {b[0]})"',
    ),
    # the three loop forms of Source.function
    Mutant(
        "range-loop-counts-from-1",
        "src/stagedsl/hot.py",
        'body = [f"for {counter} in range(n):", *trip]',
        'body = [f"for {counter} in range(1, n + 1):", *trip]',
    ),
    Mutant(
        "repeat-loop-one-trip-short",
        "src/stagedsl/hot.py",
        'body = ["for _ in _repeat(None, n):", *trip]',
        'body = ["for _ in _repeat(None, n - 1):", *trip]',
    ),
    Mutant(
        "passes-drop-the-remainder",
        "src/stagedsl/hot.py",
        'f"for _ in _repeat(None, n % {_PASS}):",',
        'f"for _ in _repeat(None, 0):",',
    ),
    Mutant(
        "hot-print-str-as-value",
        "src/stagedsl/hot.py",
        'line = f"{write}({src.const(cmd.text)})"',
        'line = f"{write}({src.const(cmd.text.strip())})"',
    ),
    # one case of each instruction match
    Mutant(
        "perform-reaches-only-a-live-cell",
        "src/stagedsl/runtime.py",
        "cell = self.reference(cmd.ref)(self.env)",
        "cell = cmd.ref if isinstance(cmd.ref, ConcreteRef) else _unreached(self.env)",
    ),
    Mutant(
        "perform-init-ref-tagged-i32",
        "src/stagedsl/runtime.py",
        "return ConcreteRef(cmd.init.tag, self._eval(cmd.init))",
        "return ConcreteRef(TypeTag.I32, self._eval(cmd.init))",
    ),
    Mutant(
        "step-init-ref-shares-one-cell",
        "src/stagedsl/runtime.py",
        "                def step(env):\n                    env[name] = ConcreteRef(tag, value(env))\n",
        "                shared = ConcreteRef(tag, None)\n\n"
        "                def step(env):\n                    shared.value = value(env)\n"
        "                    env[name] = shared\n",
    ),
    Mutant(
        "hot-get-ref-of-a-residue-canonical",
        "src/stagedsl/hot.py",
        "if text in src.residues:  # an i32 cell's local",
        "if False:",
    ),
    Mutant(
        "pseudo-for-bound-inclusive",
        "src/stagedsl/pseudo.py",
        'return f"for {name} < {expr(cmd.count, scope)}"',
        'return f"for {name} <= {expr(cmd.count, scope)}"',
    ),
    Mutant(
        "c-for-bound-inclusive",
        "src/stagedsl/cgen.py",
        "{name} < {fold(_TEXT, cmd.count, scope)}; {name}++",
        "{name} <= {fold(_TEXT, cmd.count, scope)}; {name}++",
    ),
    Mutant(
        "symbolic-get-ref-named-r",
        "src/stagedsl/core.py",
        'name = scope.fresh("v", cmd.ref.tag)',
        'name = scope.fresh("r", cmd.ref.tag)',
    ),
    # one rule of each other table
    Mutant(
        "flat-mul-wrap-dropped",
        "src/stagedsl/lowexpr.py",
        "lambda fa, fb: lambda env: wrap_i32(fa(env) * fb(env))",
        "lambda fa, fb: lambda env: fa(env) * fb(env)",
    ),
    Mutant(
        "c-add-casts-dropped",
        "src/stagedsl/cgen.py",
        'Add: lambda _, a, b: f"(int32_t)((uint32_t){a} + (uint32_t){b})",',
        'Add: lambda _, a, b: f"({a} + {b})",',
    ),
    Mutant(
        "text-eq-as-assignment",
        "src/stagedsl/lowexpr.py",
        'Eq: lambda _, a, b: f"({a} == {b})",',
        'Eq: lambda _, a, b: f"({a} = {b})",',
    ),
    Mutant(
        "let-by-value-reads-init",
        "src/stagedsl/translate.py",
        "lower_expr(e.body(x), config)",
        "lower_expr(e.body(init), config)",
    ),
    # the C back end's print strings
    Mutant(
        "c-string-question-mark",
        "src/stagedsl/cgen.py",
        '_C_STRING = STRING_ESCAPES | {ord("?"): "\\\\?"}',
        "_C_STRING = STRING_ESCAPES",
    ),
    Mutant("fwrite-unreachable", "src/stagedsl/cgen.py", 'if "\\0" in text:', "if False:"),
    Mutant("string-cr-unescaped", "src/stagedsl/core.py", '    ord("\\r"): "\\\\r",\n', ""),
    # lowering, input and evaluation
    Mutant(
        "iter-range-check-2-31",
        "src/stagedsl/translate.py",
        "0 <= count.left.value < 2**30",
        "0 <= count.left.value < 2**31",
    ),
    Mutant(
        "c-scanf-failure-exits-0",
        "src/stagedsl/cgen.py",
        "!= 1) {{ return 1; }}",
        "!= 1) {{ return 0; }}",
    ),
    Mutant("read-keeps-10-digits", "src/stagedsl/runtime.py", "[-32:]", "[-10:]"),
    Mutant("decimal-accepts-empty", "src/stagedsl/runtime.py", 'r"[+-]?[0-9]+"', 'r"[+-]?[0-9]*"'),
    Mutant(
        "read-strip-form-feed",
        "src/stagedsl/runtime.py",
        'line.strip(" \\t\\n\\r\\f\\v")',
        'line.strip(" \\t\\n\\r")',
    ),
    Mutant(
        "reexpress-leaves-loop-body",
        "src/stagedsl/core.py",
        "ForLoop(c, lambda val: reexpress(translate_expr, cmd.body(val)))",
        "ForLoop(c, cmd.body)",
    ),
    # the native tier's rules
    Mutant(
        "c-mul-casts-dropped",
        "src/stagedsl/cgen.py",
        'Mul: lambda _, a, b: f"(int32_t)((uint32_t){a} * (uint32_t){b})",',
        'Mul: lambda _, a, b: f"({a} * {b})",',
    ),
    Mutant(
        "native-bool-stored-as-int",
        "src/stagedsl/hot.py",
        "_KIND = {TypeTag.I32: int, TypeTag.BOOL: bool}",
        "_KIND = {TypeTag.I32: int, TypeTag.BOOL: int}",
    ),
    Mutant(
        "native-counter-stored-as-n",
        "src/stagedsl/hot.py",
        "env[counter] = n - 1",
        "env[counter] = n",
    ),
    Mutant(
        "native-threshold-strict",
        "src/stagedsl/hot.py",
        "if record.trips >= NATIVE:",
        "if record.trips > NATIVE:",
    ),
    Mutant(
        "native-per-call-threshold-strict",
        "src/stagedsl/hot.py",
        "if native and n >= PER_CALL:",
        "if native and n > PER_CALL:",
    ),
    Mutant(
        "native-pass-remainder-dropped",
        "src/stagedsl/hot.py",
        'f"    for (int64_t k = 0; k < n % {_PASS}; k++) {{",',
        '"    for (int64_t k = 0; k < 0; k++) {",',
    ),
    Mutant(
        "record-key-drops-residues",
        "src/stagedsl/hot.py",
        "tuple(load), tuple(store), tuple(name for name in own if name in self.residues),",
        "tuple(load), tuple(store), (),",
    ),
    Mutant(
        "native-load-oserror-escapes",
        "src/stagedsl/hot.py",
        "except OSError:  # an object this process cannot load",
        "except ():  # an object this process cannot load",
    ),
    Mutant(
        "eval-add-wrap-dropped",
        "src/stagedsl/lowexpr.py",
        "Add: lambda _, a, b: wrap_i32(a + b),",
        "Add: lambda _, a, b: a + b,",
    ),
]


def apply(mutant: Mutant, tree: Path) -> None:
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text is not in {mutant.file} exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def tier1_files(mutant: Mutant | None) -> list[str]:
    """Tier-1's test files but tests/test_mutants.py, in name order, as
    pytest collects "tests", except that the mutated module's own file runs
    first.  Each is named once: pytest collects a file named twice once."""
    own = f"tests/test_{Path(mutant.file).stem}.py" if mutant else None
    files = sorted(p.relative_to(ROOT).as_posix() for p in ROOT.glob("tests/test_*.py"))
    files.remove("tests/test_mutants.py")
    return sorted(files, key=lambda f: f != own)


def tier1(mutant: Mutant | None, timeout: float | None) -> tuple[str, str, float]:
    """Tier-1 with -x on a copy of the tree with mutant applied: the
    outcome, the first failing test or "" and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        if mutant is not None:
            apply(mutant, tree)
        env = dict(os.environ, PYTHONPATH="src")
        start = time.monotonic()
        proc = subprocess.Popen(
            [*TIER1, *tier1_files(mutant)], cwd=tree, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        out = None
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if out is None:  # timed out or interrupted: leave no process of the run
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        seconds = time.monotonic() - start
    if out is None:
        return "timed out", "", seconds
    if proc.returncode == 0:
        return "survived", "", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"exit status {proc.returncode}", seconds


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a kill still reaches pytest
    outcome, first, seconds = tier1(None, None)
    if outcome != "survived":  # the unmutated tree "survives" when tier-1 passes
        print(f"tier-1 fails on the unmutated tree: {first}")
        return 2
    limit = 3 * seconds
    print(f"unmutated tier-1 passed in {seconds:.0f} s; limit {limit:.0f} s per mutant", flush=True)
    counts: dict[str, int] = {}
    for mutant in MUTANTS:
        outcome, first, seconds = tier1(mutant, limit)
        counts[outcome] = counts.get(outcome, 0) + 1
        print(f"{outcome:<10} {mutant.name:<28} {seconds:5.0f} s  {first}".rstrip(), flush=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in counts.items()), f"of {len(MUTANTS)}")
    return 1 if counts.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())
