#!/usr/bin/env python3
"""Render every bundled example with both back ends.

Prints each form to stdout, or writes one file per (example, backend) pair
under --outdir.  Useful for eyeballing the generated code after a change.
"""

import argparse
import sys
from pathlib import Path

from stagedsl.cgen import emit_c
from stagedsl.examples import EXAMPLES
from stagedsl.pseudo import render_program
from stagedsl.translate import lower_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, help="write files instead of printing")
    args = parser.parse_args()

    if args.outdir:
        args.outdir.mkdir(parents=True, exist_ok=True)

    for name in sorted(EXAMPLES):
        low = lower_program(EXAMPLES[name].program)
        for backend, text in (("pseudo", render_program(low)), ("c", emit_c(low))):
            if args.outdir:
                suffix = "txt" if backend == "pseudo" else "c"
                path = args.outdir / f"{name}.{suffix}"
                path.write_text(text)
                print(f"wrote {path}")
            else:
                print(f"=== {name} [{backend}] ===")
                print(text, end="")
                print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
