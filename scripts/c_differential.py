#!/usr/bin/env python3
"""Differential test: compiled C versus the staged interpreter.

Generates random programs, lowers them, compiles the emitted C under strict
flags, feeds both sides the same scripted stdin, and compares stdout bytes.
The interpreter side is the staged run, lowexpr.LANG, at both tiers, at the
default HOT and with every staged loop and Iter hot, and the two runs must
agree.  The reference interpreter, a Language with no compile such as
tests/support.py's REFERENCE, is not run here; the tests compare staged
runs with it.
Every bundled example is always included, lowered like the rest and fed
one input script long enough for each of them.  Runs every case, prints one
summary line, and exits 1 if any case mismatched, failed to compile, timed
out, or made the interpreter raise (reported as a disagreement like the
others).  outcome() is the one observation of an interpreter run, which the
tests compare; disagreement() is the one comparison with C, which every test
that runs emitted C calls.
"""

import argparse
import io
import subprocess
import sys
import tempfile
from pathlib import Path

from stagedsl import hot, lowexpr as lo
from stagedsl.cgen import c_compiler, compile_c, emit_c, have_c_compiler
from stagedsl.core import DslError, Language, Program
from stagedsl.examples import EXAMPLES
from stagedsl.randprog import corpus
from stagedsl.runtime import run
from stagedsl.translate import lower_program

# enough lines for every bundled example: sumInput reads four, powerInput two
EXAMPLE_INPUT = "3\n4\n5\n6\n"


def outcome(prog: Program, lang: Language, text: str = "") -> tuple:
    """What running prog on text observably did: (result, output, reads) as
    run_text returns, or (error type name, message, output before it) when
    the run raises a DslError."""
    out = io.StringIO()
    try:
        result, reads = run(prog, lang, io.StringIO(text), out)
    except DslError as err:
        return type(err).__name__, str(err), out.getvalue()
    return result, out.getvalue(), reads


def disagreement(low: Program, stdin_text: str, workdir: Path, name: str = "prog") -> str | None:
    """Compile a low program's C in workdir and run it on stdin_text.  None
    when the interpreter runs without error, alike at the default HOT and
    with HOT at 1, and the binary exits 0 having printed the interpreter's
    output byte for byte; otherwise a short report: both tiers' outcomes,
    the compile failure, a time-out, or the interpreter's error, both
    outputs (the interpreter's up to its error) and the exit status."""
    want = outcome(low, lo.LANG, stdin_text)
    default, hot.HOT = hot.HOT, 1
    try:
        forced = outcome(low, lo.LANG, stdin_text)
    finally:
        hot.HOT = default
    if forced != want:
        return f"{name}: TIERS DISAGREE\n  default: {want!r}\n  hot:     {forced!r}"
    source = emit_c(low)
    try:
        exe = compile_c(source, workdir, name)
    except DslError as err:
        return f"{name}: compile FAILED: {err}"
    try:
        proc = subprocess.run([exe], input=stdin_text.encode(), capture_output=True, timeout=60)
    except subprocess.TimeoutExpired as err:
        return f"{name}: TIMED OUT after {err.timeout} s"
    match want:
        case (_, printed, int()):  # ran to the end
            if proc.returncode == 0 and proc.stdout == printed.encode():
                return None
            verdict = "MISMATCH"
        case (error, message, printed):
            verdict = f"interpreter raised {error}: {message}"
    return (
        f"{name}: {verdict}\n"
        f"  interpreter: {printed.encode()!r}\n"
        f"  compiled:    {proc.stdout!r} (rc {proc.returncode})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100, help="generated programs")
    parser.add_argument("--seed", type=int, default=1, help="corpus seed")
    parser.add_argument("--keep", action="store_true", help="print failing C source")
    args = parser.parse_args()

    if not have_c_compiler():
        print(f"no C compiler ({c_compiler()}) on PATH", file=sys.stderr)
        return 2

    cases = [(name, lower_program(prog), EXAMPLE_INPUT) for name, prog in EXAMPLES.items()]
    for i, gp in enumerate(corpus(seed=args.seed, size=args.count)):
        cases.append((f"gen{i:03d}", lower_program(gp.program), gp.input_text))

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, low, stdin_text in cases:
            report = disagreement(low, stdin_text, Path(tmp), name)
            if report is not None:
                failures += 1
                print(report)
                if args.keep:
                    print(emit_c(low))

    total = len(cases)
    print(f"{total - failures}/{total} programs agree ({c_compiler()}, strict C99)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
