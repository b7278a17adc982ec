#!/usr/bin/env python3
"""Differential test: compiled C versus the reference interpreter.

Generates random programs, lowers them, compiles the emitted C under strict
flags, feeds both sides the same scripted stdin, and compares stdout bytes.
Every bundled example is always included, lowered like the rest and fed
one input script long enough for each of them.  Runs every case, prints one
summary line, and exits 1 if any case mismatched or failed to compile.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from stagedsl import lowexpr as lo
from stagedsl.cgen import c_compiler, compile_c, emit_c, have_c_compiler
from stagedsl.core import DslError
from stagedsl.examples import EXAMPLES
from stagedsl.randprog import corpus
from stagedsl.runtime import run_text
from stagedsl.translate import lower_program

# enough lines for every bundled example: sumInput reads four, powerInput two
EXAMPLE_INPUT = "3\n4\n5\n6\n"


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
        workdir = Path(tmp)
        for name, low, stdin_text in cases:
            source = emit_c(low)
            try:
                exe = compile_c(source, workdir, name=name)
            except DslError as err:
                failures += 1
                print(f"{name}: compile FAILED: {err}")
                if args.keep:
                    print(source)
                continue
            proc = subprocess.run(
                [str(exe)], input=stdin_text.encode(), capture_output=True, timeout=30
            )
            _, expected, _ = run_text(low, lo.LANG, stdin_text)
            if proc.returncode != 0 or proc.stdout.decode() != expected:
                failures += 1
                print(f"{name}: MISMATCH")
                print(f"  interpreter: {expected!r}")
                print(f"  compiled:    {proc.stdout.decode()!r} (rc {proc.returncode})")
                if args.keep:
                    print(source)

    total = len(cases)
    print(f"{total - failures}/{total} programs agree ({c_compiler()}, strict C99)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
