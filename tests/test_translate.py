"""The lowering pass: per-constructor mapping, let strategies, unrolling."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import support
from stagedsl import highexpr as hi, lowexpr as lo
from stagedsl.core import interpret, read_input, wrap_i32, write_output
from stagedsl.pseudo import render_program
from stagedsl.runtime import run_text
from stagedsl.translate import (
    DEFAULT_CONFIG,
    LetStrategy,
    TranslationConfig,
    UnrollPolicy,
    lower_expr,
    lower_program,
)

BY_NAME = TranslationConfig(let_strategy=LetStrategy.BY_NAME)
UNROLL = TranslationConfig(unroll=UnrollPolicy.EVEN_BY_2)


def _pure_result(prog):
    """Interpret a program that must not contain instructions."""
    def refuse(cmd):
        raise AssertionError(f"unexpected instruction {cmd!r}")
    return interpret(refuse, prog)


def test_simple_constructors_map_homomorphically():
    assert _pure_result(lower_expr(hi.lit(7))) == lo.lit(7)
    assert _pure_result(lower_expr(hi.Var("v1", hi.TypeTag.I32))) == lo.Var("v1", lo.TypeTag.I32)
    assert _pure_result(lower_expr(hi.Add(hi.lit(1), hi.lit(2)))) == lo.Add(lo.lit(1), lo.lit(2))
    assert _pure_result(lower_expr(hi.Not(hi.lit(True)))) == lo.Not(lo.lit(True))
    assert _pure_result(
        lower_expr(hi.Eq(hi.Mul(hi.lit(2), hi.lit(3)), hi.lit(6)))
    ) == lo.Eq(lo.Mul(lo.lit(2), lo.lit(3)), lo.lit(6))


def test_by_value_let_stores_once_and_reads_back():
    prog = write_output(hi.Let(hi.Add(hi.lit(2), hi.lit(3)), lambda x: x * x))
    text = render_program(lower_program(prog))
    assert text == (
        "    r0 <- initRef (2 + 3)\n"
        "    v1 <- getRef r0\n"
        "    writeOutput (v1 * v1)\n"
    )


def test_by_name_let_substitutes_instead():
    prog = write_output(hi.Let(hi.Add(hi.lit(2), hi.lit(3)), lambda x: x * x))
    text = render_program(lower_program(prog, BY_NAME))
    assert text == "    writeOutput ((2 + 3) * (2 + 3))\n"


def test_by_value_costs_exactly_one_init_get_pair_over_by_name():
    prog = write_output(hi.Let(hi.Add(hi.lit(1), hi.lit(1)), lambda x: x * x))
    by_value = support.fold_count(lower_program(prog))
    by_name = support.fold_count(lower_program(prog, BY_NAME))
    assert by_value == by_name + 2


@pytest.mark.usefixtures("tier")
def test_by_name_duplicates_work_when_sharing_is_lost():
    shared = hi.Iter(hi.lit(3), hi.lit(2), lambda s: s * s)
    prog = write_output(hi.Let(shared, lambda x: x + x))
    loops = lambda cfg: render_program(lower_program(prog, cfg)).count("for ")
    assert loops(DEFAULT_CONFIG) == 1
    assert loops(BY_NAME) == 2
    # same answer either way
    assert (
        run_text(lower_program(prog), lo.LANG)
        == run_text(lower_program(prog, BY_NAME), lo.LANG)
    )


def test_let_strategies_agree_on_transcripts():
    prog = write_output(
        hi.Let(
            hi.Add(hi.lit(10), hi.lit(5)),
            lambda x: hi.Let(x * x, lambda y: y + x),
        )
    )
    assert (
        run_text(lower_program(prog), lo.LANG)
        == run_text(lower_program(prog, BY_NAME), lo.LANG)
    )
    assert run_text(lower_program(prog), lo.LANG)[1] == "240"


@pytest.mark.usefixtures("tier")
def test_iteration_lowers_to_a_state_cell_and_loop():
    prog = write_output(hi.Iter(hi.lit(4), hi.lit(1), lambda x: x * 3))
    text = render_program(lower_program(prog))
    assert text == (
        "    r0 <- initRef 1\n"
        "    for v1 < 4\n"
        "        v2 <- getRef r0\n"
        "        setRef r0 (v2 * 3)\n"
        "    end for\n"
        "    v3 <- getRef r0\n"
        "    writeOutput v3\n"
    )
    assert run_text(lower_program(prog), lo.LANG)[1] == "81"


@pytest.mark.usefixtures("tier")
def test_lowered_iteration_agrees_with_the_reference_evaluator():
    cases = [
        hi.Iter(hi.lit(6), hi.lit(1), lambda x: x + x),
        hi.Iter(hi.Add(hi.lit(2), hi.lit(2)), hi.lit(3), lambda x: x * x),
        hi.Iter(hi.Let(hi.lit(2), lambda x: x + x), hi.lit(1), lambda s: s * 3),
        hi.Iter(hi.lit(0), hi.lit(-7), lambda x: x + 1),
    ]
    for e in cases:
        want = str(hi.eval_closed(e))
        _, out, _ = run_text(lower_program(write_output(e)), lo.LANG)
        assert out == want


@pytest.mark.usefixtures("tier")
def test_unrolling_fires_only_on_the_written_doubling_pattern():
    doubled = write_output(hi.Iter(hi.Mul(hi.lit(3), hi.lit(2)), hi.lit(1), lambda x: x + 1))
    text = render_program(lower_program(doubled, UNROLL))
    assert text == (
        "    r0 <- initRef 1\n"
        "    for v1 < 3\n"
        "        v2 <- getRef r0\n"
        "        setRef r0 (v2 + 1)\n"
        "        v3 <- getRef r0\n"
        "        setRef r0 (v3 + 1)\n"
        "    end for\n"
        "    v4 <- getRef r0\n"
        "    writeOutput v4\n"
    )
    assert run_text(lower_program(doubled, UNROLL), lo.LANG)[1] == "7"

    # the mirrored product is not the written pattern and stays a plain loop
    mirrored = write_output(hi.Iter(hi.Mul(hi.lit(2), hi.lit(3)), hi.lit(1), lambda x: x + 1))
    assert render_program(lower_program(mirrored, UNROLL)).count("getRef") == 2
    # and without the policy the doubled form stays a plain loop too
    assert render_program(lower_program(doubled)).count("setRef") == 1


@pytest.mark.usefixtures("tier")
@pytest.mark.parametrize("k", range(0, 11))
def test_unrolled_and_plain_translations_agree(k):
    prog = write_output(
        hi.Iter(hi.Mul(hi.lit(k), hi.lit(2)), hi.lit(1), lambda x: x + x + 1)
    )
    plain = run_text(lower_program(prog), lo.LANG)
    unrolled = run_text(lower_program(prog, UNROLL), lo.LANG)
    assert plain == unrolled


def _doubled_count(k: int):
    return write_output(hi.Iter(hi.Mul(hi.lit(k), hi.lit(2)), hi.lit(0), lambda x: x + 1))


def _doubled_count_transcripts(k: int) -> list:
    prog = _doubled_count(k)
    direct = run_text(prog, hi.LANG)
    return [direct] + [run_text(lower_program(prog, c), lo.LANG) for c in support.CONFIGS]


@pytest.mark.usefixtures("tier")
def test_unrolling_leaves_a_wrapping_doubled_count_alone():
    k = -(2**31) + 1  # k * 2 wraps to 2
    assert _doubled_count_transcripts(k) == [(None, "2", 0)] * 5
    text = render_program(lower_program(_doubled_count(k), UNROLL))
    assert text.count("getRef") == 2  # the plain loop

    # a half only known at run time cannot be unrolled either
    prog = read_input(hi.LANG).bind(
        lambda n: write_output(hi.Iter(hi.Mul(n, hi.lit(2)), hi.lit(0), lambda x: x + 1))
    )
    for config in support.CONFIGS:
        assert run_text(lower_program(prog, config), lo.LANG, f"{k}\n") == (None, "2", 1)


@pytest.mark.usefixtures("tier")
@given(
    base=st.sampled_from([0, 2**31, 2**30, -(2**30)]),
    offset=st.integers(-20, 20),
)
def test_unrolling_agrees_with_direct_runs_at_extreme_halves(base, offset):
    k = wrap_i32(base + offset)
    assume(wrap_i32(2 * k) <= 64)  # keep the loop short
    if not 0 <= k < 2**30:  # the plain loop, checked first: an unrolled one runs about k passes
        texts = [render_program(lower_program(_doubled_count(k), c)) for c in support.CONFIGS]
        assert [text.count("getRef") for text in texts] == [2] * len(texts)
    transcripts = _doubled_count_transcripts(k)
    assert transcripts == [transcripts[0]] * 5
    assert transcripts[0][1] == str(max(wrap_i32(2 * k), 0))


def test_lowered_power_input_renders_as_the_stored_power_listing():
    from pathlib import Path
    from stagedsl.examples import power_input

    golden = (Path(__file__).parent / "golden" / "power_pseudo.txt").read_text()
    assert render_program(lower_program(power_input())) == golden


def test_ten_thousand_statement_sequences_lower_run_and_print(tmp_path):
    from c_differential import disagreement
    from stagedsl.cgen import emit_c, have_c_compiler
    from stagedsl.core import print_str, seq

    n = 10**4
    prog = seq(
        *(
            write_output(hi.Let(hi.lit(i), lambda x: x * x)) if i % 2 else print_str(" ")
            for i in range(n)
        )
    )
    low = lower_program(prog)
    _, out, _ = run_text(low, lo.LANG)
    assert out == "".join(str(i * i) if i % 2 else " " for i in range(n))
    assert run_text(prog, hi.LANG)[1] == out
    listing = render_program(low)
    assert listing.count("\n") == 2 * n  # each of the n // 2 lets adds two lines
    source = emit_c(low)
    assert source.count("printf(") == n
    if have_c_compiler():
        assert disagreement(low, "", tmp_path, "deep") is None
