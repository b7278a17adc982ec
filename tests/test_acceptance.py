"""Acceptance checklist for the package, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` status line (bypassing
pytest's capture so the lines show up on quiet runs) and enforces the
criterion's runtime budget.  The generated corpus is built once from a
fixed seed and shared by criteria 5 through 9.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import support
from c_differential import disagreement
from stagedsl import highexpr as hi, lowexpr as lo
from stagedsl.cgen import emit_c, have_c_compiler
from stagedsl.cli import cli
from stagedsl.core import reexpress, ret, write_output
from stagedsl.examples import power_input, sum_input
from stagedsl.pseudo import render_program
from stagedsl.randprog import corpus
from stagedsl.runtime import run_text
from stagedsl.translate import (
    LetStrategy,
    TranslationConfig,
    UnrollPolicy,
    lower_program,
)

SEED = 20260817
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def corpus200():
    return corpus(seed=SEED, size=200)


@contextmanager
def criterion(n: int, capsys, limit: float | None, note: str):
    """Time the enclosed checks, print one status line, enforce the budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {n}: FAIL ({elapsed:.2f}s) {note}")
        raise
    elapsed = time.perf_counter() - start
    within = limit is None or elapsed < limit
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if within else 'FAIL'} ({elapsed:.2f}s) {note}")
    assert within, f"criterion {n} took {elapsed:.2f}s, budget {limit}s"


def test_criterion_1_power_pseudo_golden(capsys):
    golden = (GOLDEN / "power_pseudo.txt").read_text()
    with criterion(1, capsys, 1.0, "powerInput pseudo-code matches the golden file"):
        assert render_program(lower_program(power_input())) == golden
        rc = cli(["compile", "powerInput", "--backend", "pseudo"])
        assert rc == 0
        assert capsys.readouterr().out == golden


def test_criterion_2_sum_pseudo_golden(capsys):
    golden = (GOLDEN / "sum_pseudo.txt").read_text()
    with criterion(2, capsys, 1.0, "sumInput pseudo-code matches the golden file"):
        assert render_program(sum_input()) == golden


def test_criterion_3_sum_transcript(capsys):
    golden = (GOLDEN / "sum_run.txt").read_text()
    with criterion(3, capsys, 1.0, "sumInput transcript matches the golden file"):
        result, output, reads = run_text(sum_input(), lo.LANG, "1\n2\n3\n4\n")
        assert output == golden
        assert output.endswith("The sum of your numbers is 10.\n")
        assert reads == 4


def test_criterion_4_iteration_fold_law(capsys):
    rng = random.Random(SEED)
    with criterion(4, capsys, 5.0, "500 loop-fold cases agree with the direct oracle"):
        for _ in range(500):
            n = rng.randint(0, 20)
            init = rng.randint(-(2**31), 2**31 - 1)
            template = support.gen_template(rng)
            expr = hi.Iter(
                hi.lit(n),
                hi.lit(init),
                lambda x, t=template: support.template_to_high(t, x),
            )
            assert hi.eval_closed(expr) == support.iter_oracle(n, init, template)


@pytest.mark.usefixtures("tier")
def test_criterion_5_lowering_soundness(corpus200, capsys):
    with criterion(5, capsys, 30.0, "200 programs: direct and lowered runs agree"):
        for gp in corpus200:
            direct = run_text(gp.program, hi.LANG, gp.input_text)
            lowered = run_text(lower_program(gp.program), lo.LANG, gp.input_text)
            assert direct == lowered


@pytest.mark.usefixtures("tier")
def test_criterion_6_translation_variants(corpus200, capsys):
    variants = [
        TranslationConfig(let_strategy=LetStrategy.BY_NAME),
        TranslationConfig(unroll=UnrollPolicy.EVEN_BY_2),
    ]
    with criterion(6, capsys, 30.0, "let/unroll variants leave transcripts unchanged"):
        for gp in corpus200:
            base = run_text(lower_program(gp.program), lo.LANG, gp.input_text)
            for config in variants:
                low = lower_program(gp.program, config)
                assert run_text(low, lo.LANG, gp.input_text) == base
        # even counts, written in the one shape the unroller recognises
        unrolling = TranslationConfig(unroll=UnrollPolicy.EVEN_BY_2)
        for k in range(11):
            count = hi.Mul(hi.lit(k), hi.lit(2))
            prog = write_output(hi.Iter(count, hi.lit(1), lambda x: x + hi.lit(3)))
            plain = run_text(lower_program(prog), lo.LANG, "")
            doubled = run_text(lower_program(prog, unrolling), lo.LANG, "")
            assert plain == doubled
            assert plain[1] == str(1 + 6 * k)


@pytest.mark.usefixtures("tier")
def test_criterion_7_identity_reexpression(corpus200, capsys):
    with criterion(7, capsys, 10.0, "identity re-expression preserves behaviour"):
        for gp in corpus200:
            same = reexpress(lambda e: ret(e), gp.program)
            assert run_text(same, hi.LANG, gp.input_text) == run_text(
                gp.program, hi.LANG, gp.input_text
            )


def test_criterion_8_fresh_name_discipline(corpus200, capsys):
    with criterion(8, capsys, None, "name suffixes count up from zero, no gaps"):
        texts = [
            (GOLDEN / "power_pseudo.txt").read_text(),
            (GOLDEN / "sum_pseudo.txt").read_text(),
        ]
        lowered = [lower_program(gp.program) for gp in corpus200]
        texts += [render_program(low) for low in lowered]
        texts += [emit_c(low) for low in lowered[:50]]
        for text in texts:
            suffixes = support.fresh_suffixes_in_order(text)
            assert suffixes == list(range(len(suffixes)))


def test_criterion_9_c_differential(corpus200, tmp_path, capsys):
    if not have_c_compiler():
        with capsys.disabled():
            print("criterion 9: SKIP (no C compiler on PATH)")
        pytest.skip("no C compiler on PATH")
    cases = [
        (sum_input(), "1\n2\n3\n4\n"),
        (lower_program(power_input()), "3\n4\n"),
    ]
    cases += [(lower_program(gp.program), gp.input_text) for gp in corpus200[:50]]
    with criterion(9, capsys, 60.0, "emitted C matches the interpreter byte-for-byte"):
        for i, (low, text) in enumerate(cases):
            assert disagreement(low, text, tmp_path, f"prog{i}") is None
