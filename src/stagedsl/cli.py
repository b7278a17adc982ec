"""Command-line driver over the bundled examples."""

from __future__ import annotations

import argparse
import sys

from . import runtime
from .cgen import emit_c
from .core import DslError
from .examples import EXAMPLES
from .pseudo import render_program
from .translate import LetStrategy, TranslationConfig, UnrollPolicy, lower_program


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagedsl", description="Run or compile the bundled example programs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="name the available examples")

    run_p = sub.add_parser("run", help="interpret an example on this terminal")
    run_p.add_argument("example")

    comp = sub.add_parser("compile", help="print an example's compiled form")
    comp.add_argument("example")
    comp.add_argument("--backend", choices=["pseudo", "c"], default="pseudo")
    comp.add_argument(
        "--let",
        dest="let_strategy",
        choices=[s.value for s in LetStrategy],
        default=LetStrategy.BY_VALUE.value,
    )
    comp.add_argument(
        "--unroll",
        choices=[p.value for p in UnrollPolicy],
        default=UnrollPolicy.NONE.value,
    )
    return parser


def cli(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse already printed the diagnostic
        return int(exit_.code or 0)

    if args.command == "list":
        for name in sorted(EXAMPLES):
            print(name)
        return 0

    example = EXAMPLES.get(args.example)
    if example is None:
        print(f"unknown example: {args.example}", file=sys.stderr)
        return 1

    if args.command == "run":
        try:
            runtime.run(example.program, example.lang, sys.stdin, sys.stdout)
        except DslError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return 0

    config = TranslationConfig(
        let_strategy=LetStrategy(args.let_strategy),
        unroll=UnrollPolicy(args.unroll),
    )
    # lowering leaves a program that is already low as it is
    prog = lower_program(example.program, config)
    text = render_program(prog) if args.backend == "pseudo" else emit_c(prog)
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
