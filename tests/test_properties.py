"""Whole-pipeline properties on a generated corpus.

The acceptance suite reruns these at its contractual sizes; here a smaller
corpus keeps the feedback loop quick while covering the same ground from a
different seed.
"""

import random

import pytest

import support
from c_differential import outcome
from stagedsl import highexpr as hi, lowexpr as lo
from stagedsl.cgen import emit_c
from stagedsl.core import Bind, Ret, TagError, interpret, ret, reexpress
from stagedsl.pseudo import render_program
from stagedsl.randprog import GenConfig, corpus, random_program
from stagedsl.runtime import run_text
from stagedsl.translate import lower_expr, lower_program

CORPUS = corpus(seed=424242, size=60)


def _scripts(gp):
    """The full input script, then every prefix of 0 to max_reads lines, each
    also with a malformed last line."""
    lines = gp.input_text.splitlines(keepends=True)
    prefixes = ["".join(lines[:n]) + bad for n in range(gp.max_reads + 1) for bad in ("", "x\n")]
    return [gp.input_text] + prefixes


def _agree(gp, runs, want_prog, want_lang):
    # each run's outcome is want_prog's under want_lang, on every script;
    # on the full script no run raises
    for i, text in enumerate(_scripts(gp)):
        want = outcome(want_prog, want_lang, text)
        if i == 0:
            assert want == run_text(want_prog, want_lang, text)
        for prog, lang in runs:
            assert outcome(prog, lang, text) == want, text


# The three tests below are one differential of ten interpretations: the
# direct program and its four lowerings, each staged and each under the
# per-trip reference, all equal to the direct staged run; each runs at both
# tiers.
@pytest.mark.usefixtures("tier")
@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_staged_loops_match_the_per_trip_reference(idx):
    gp = CORPUS[idx]
    for prog in [gp.program] + [lower_program(gp.program, config) for config in support.CONFIGS]:
        _agree(gp, [(prog, support.REFERENCE)], prog, hi.LANG)


@pytest.mark.usefixtures("tier")
@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_lowering_preserves_behaviour(idx):
    gp = CORPUS[idx]
    _agree(gp, [(lower_program(gp.program), lo.LANG)], gp.program, hi.LANG)


@pytest.mark.usefixtures("tier")
def test_configurations_cannot_change_transcripts():
    for gp in CORPUS:
        runs = [(lower_program(gp.program, config), lo.LANG) for config in support.CONFIGS]
        _agree(gp, runs, lower_program(gp.program), lo.LANG)


def test_identity_reexpression_is_invisible():
    for gp in CORPUS:
        same = reexpress(lambda e: ret(e), gp.program)
        assert run_text(same, hi.LANG, gp.input_text) == run_text(
            gp.program, hi.LANG, gp.input_text
        )


def test_right_nesting_changes_nothing_observable():
    for gp in CORPUS[:30]:
        rotated = support.right_nest(gp.program)
        assert run_text(rotated, hi.LANG, gp.input_text) == run_text(
            gp.program, hi.LANG, gp.input_text
        )
        low, low_rotated = lower_program(gp.program), lower_program(rotated)
        assert render_program(low) == render_program(low_rotated)


def test_lowering_binds_no_returned_value():
    for gp in CORPUS:
        for config in support.CONFIGS:
            nodes = support.reached_nodes(lower_program(gp.program, config))
            assert not [n for n in nodes if isinstance(n, Bind) and isinstance(n.first, Ret)]


def test_generated_renders_allocate_names_in_first_use_order():
    for gp in CORPUS:
        low = lower_program(gp.program)
        for text in (render_program(low), emit_c(low)):
            suffixes = support.fresh_suffixes_in_order(text)
            assert suffixes == list(range(len(suffixes)))


def test_interpretations_agree_on_instruction_counts():
    for gp in CORPUS[:30]:
        low = lower_program(gp.program)
        handler = support.CountingHandler()
        interpret(handler, low)
        assert handler.count == support.fold_count(low)


def test_lowering_preserves_expression_tags():
    rng = random.Random(99)
    from stagedsl.randprog import _expr

    for _ in range(300):
        tag = rng.choice([lo.TypeTag.I32, lo.TypeTag.BOOL])
        builder = _expr(rng, GenConfig(), tag, depth=3, scope=[])
        e = builder([])
        assert e.tag is tag
        lowered = lower_expr(e)
        result = interpret(support.CountingHandler(), lowered)
        assert result.tag is tag


def test_generation_never_trips_tag_checks():
    rng = random.Random(5)
    for _ in range(80):
        gp = random_program(rng)
        try:
            run_text(gp.program, hi.LANG, gp.input_text)
            run_text(lower_program(gp.program), lo.LANG, gp.input_text)
        except TagError as err:  # pragma: no cover
            pytest.fail(f"generator produced an ill-tagged program: {err}")


def test_input_scripts_always_suffice():
    rng = random.Random(6)
    for _ in range(120):
        gp = random_program(rng)
        _, _, reads = run_text(gp.program, hi.LANG, gp.input_text)
        assert reads <= gp.max_reads
