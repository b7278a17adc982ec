#!/usr/bin/env python3
"""Print sha256 hashes of the kit's outputs, to show a refactor left them
byte for byte unchanged.

    pseudo      pseudo-code of randprog.corpus(seed=3, size=200), program by
                program, each lowered under the four configs in LetStrategy x
                UnrollPolicy order, then every example (sorted by name)
                lowered under DEFAULT_CONFIG
    c           the C of the same programs
    c-no-void   that C without its `(void)name;` lines
    transcripts repr(run_text(...)) of each randprog.corpus(seed=1,
                size=3000) program, run directly under highexpr.LANG, then
                lowered under each config and run under lowexpr.LANG
    hot         every Python text the hot tier compiles, in compile order from
                a forgotten hot tier: the pseudo corpus programs run directly
                and lowered under each config with hot.HOT = 1, so every
                staged loop and Iter runs hot, then powerInput run directly
                and lowered under DEFAULT_CONFIG at 3 * HOT trips, at the
                default HOT
    native      every C kernel text Source.kernel() prints for the Sources the
                hot hash's runs generate, in generation order, each asked for
                as loop_body or iter_step returns it; a refusal, a body that
                cannot build as C, adds no text

Each hash covers its texts concatenated in that order.
"""

import hashlib
import re
from functools import partial

from stagedsl import highexpr as hi
from stagedsl import hot
from stagedsl import lowexpr as lo
from stagedsl.cgen import emit_c
from stagedsl.core import DslError
from stagedsl.examples import EXAMPLES
from stagedsl.pseudo import render_program
from stagedsl.randprog import corpus
from stagedsl.runtime import run_text
from stagedsl.translate import (
    DEFAULT_CONFIG, LetStrategy, TranslationConfig, UnrollPolicy, lower_program,
)

CONFIGS = [TranslationConfig(let, unroll) for let in LetStrategy for unroll in UnrollPolicy]
VOID = re.compile(r"^    \(void\)[rv][0-9]+;\n", re.MULTILINE)


def sha256(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


def hot_texts() -> tuple[list[str], list[str]]:
    """The texts of the hot hash, recorded where hot compiles them, and of
    the native hash, recorded where hot's printers return their Source."""
    texts, kernels = [], []

    def recorded(text, *args):
        texts.append(text)
        return compile(text, *args)

    def printed(printer, *args):
        src = printer(*args)
        try:
            kernels.append(src.kernel())
        except DslError:  # a refusal
            pass
        return src

    default, printers = hot.HOT, (hot.loop_body, hot.iter_step)
    hot.compile = recorded  # found before the builtin, as the sources fixture does
    hot.loop_body, hot.iter_step = (partial(printed, printer) for printer in printers)
    hot.forget()
    try:
        hot.HOT = 1
        for gp in corpus(seed=3, size=200):
            run_text(gp.program, hi.LANG, gp.input_text)
            for cfg in CONFIGS:
                run_text(lower_program(gp.program, cfg), lo.LANG, gp.input_text)
        hot.HOT = default
        power = EXAMPLES["powerInput"]
        for prog, lang in [(power, hi.LANG), (lower_program(power, DEFAULT_CONFIG), lo.LANG)]:
            run_text(prog, lang, f"3\n{3 * hot.HOT}\n")
    finally:
        hot.HOT = default
        hot.loop_body, hot.iter_step = printers
        del hot.compile
    return texts, kernels


def main() -> int:
    texts, kernels = hot_texts()
    lowered = [
        lower_program(gp.program, cfg) for gp in corpus(seed=3, size=200) for cfg in CONFIGS
    ]
    lowered += [lower_program(EXAMPLES[name], DEFAULT_CONFIG) for name in sorted(EXAMPLES)]
    c = [emit_c(prog) for prog in lowered]
    transcripts = []
    for gp in corpus(seed=1, size=3000):
        transcripts.append(repr(run_text(gp.program, hi.LANG, gp.input_text)))
        for cfg in CONFIGS:
            low = lower_program(gp.program, cfg)
            transcripts.append(repr(run_text(low, lo.LANG, gp.input_text)))
    print("pseudo", sha256(render_program(prog) for prog in lowered))
    print("c", sha256(c))
    print("c-no-void", sha256(VOID.sub("", text) for text in c))
    print("transcripts", sha256(transcripts))
    print("hot", sha256(texts))
    print("native", sha256(kernels))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
