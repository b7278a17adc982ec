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
                an empty hot._record: the pseudo corpus programs run directly
                and lowered under each config with hot.HOT = 1, so every
                staged loop and Iter runs hot, then powerInput run directly
                and lowered under DEFAULT_CONFIG at 3 * HOT trips, at the
                default HOT

Each hash covers its texts concatenated in that order.
"""

import hashlib
import re

from stagedsl import highexpr as hi
from stagedsl import hot
from stagedsl import lowexpr as lo
from stagedsl.cgen import emit_c
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


def hot_texts() -> list[str]:
    """The texts of the hot hash, recorded where hot compiles them."""
    texts = []

    def recorded(text, *args):
        texts.append(text)
        return compile(text, *args)

    default = hot.HOT
    hot.compile = recorded  # found before the builtin, as the sources fixture does
    hot._record.cache_clear()
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
        del hot.compile
    return texts


def main() -> int:
    texts = hot_texts()
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
