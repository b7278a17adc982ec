#!/usr/bin/env python3
"""Mutation runner: does tier-1 notice when the kit's code is wrong?

Each mutant in MUTANTS is one named text edit of the package: its old text,
which must occur exactly once in its file, becomes its new text.  For each
mutant the script copies the tree into a temporary directory, without
.git, .hypothesis, .pytest_cache or __pycache__, applies the edit there and
runs tier-1 with -x, less tests/test_mutants.py, which fails on any edit.
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
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
    "--ignore=tests/test_mutants.py",
]
SKIPPED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the tree
    old: str
    new: str


MUTANTS = [
    # the four staging rules the hot tier states once
    Mutant(
        "tier-refusal-dropped",
        "src/stagedsl/runtime.py",
        "generate if self._tier else None)",
        "generate)",
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
        "self.carried[local] = len(self.lines),",
        "self.carried[local] = len(self.lines) + 1,",
    ),
    Mutant(
        "reference-skips-generated",
        "src/stagedsl/runtime.py",
        "name = core.generated(ref, self.scope)",
        "name = ref.name",
    ),
    # the hot tier's threshold and expression text
    Mutant("hot-threshold-strict", "src/stagedsl/hot.py", "if trips >= HOT:", "if trips > HOT:"),
    Mutant(
        "arithmetic-mask-dropped",
        "src/stagedsl/hot.py",
        'f"(({raw}) & 0xFFFFFFFF)"',
        'f"({raw})"',
    ),
    Mutant(
        "eq-operands-unmasked",
        "src/stagedsl/hot.py",
        "if ra is not None or rb is not None:",
        "if False:",
    ),
    Mutant("spill-depth-raised", "src/stagedsl/hot.py", "_NEST = 40\n", "_NEST = 400\n"),
    # the C back end's print strings
    Mutant(
        "c-string-question-mark",
        "src/stagedsl/cgen.py",
        '_C_STRING = STRING_ESCAPES | {ord("?"): "\\\\?"}',
        "_C_STRING = STRING_ESCAPES",
    ),
    Mutant("fwrite-unreachable", "src/stagedsl/cgen.py", 'if "\\0" in text:', "if False:"),
    # lowering, input and evaluation
    Mutant(
        "iter-range-check-2-31",
        "src/stagedsl/translate.py",
        "0 <= count.left.value < 2**30",
        "0 <= count.left.value < 2**31",
    ),
    Mutant(
        "read-strip-form-feed",
        "src/stagedsl/runtime.py",
        'line.strip(" \\t\\n\\r\\f\\v")',
        'line.strip(" \\t\\n\\r")',
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
            TIER1, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
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
