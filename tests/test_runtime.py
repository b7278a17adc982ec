"""The interpreter: console behaviour, input parsing, evaluation discipline."""

import dataclasses
import io

import pytest

from stagedsl import highexpr as hi, lowexpr as lo, runtime
from stagedsl.core import (
    ConcreteRef,
    DslError,
    Language,
    StageError,
    SymbolicRef,
    TypeTag,
    GetRef,
    Instr,
    UnboundVariableError,
    for_loop,
    get_ref,
    init_ref,
    modify_ref,
    print_str,
    read_input,
    ret,
    seq,
    set_ref,
    wrap_i32,
    write_output,
)
from stagedsl.examples import power_input, sum_input
from stagedsl.runtime import InputError, run, run_text


def test_sum_example_full_transcript():
    _, out, reads = run_text(sum_input(), lo.LANG, "1\n2\n3\n4\n")
    assert out == "Please enter 4 numbers\n >  >  >  > The sum of your numbers is 10.\n"
    assert reads == 4


@pytest.mark.parametrize(
    "m,n,result", [(3, 4, 81), (2, 10, 1024), (5, 0, 1), (-2, 3, -8), (0, 3, 0)]
)
def test_power_example_computes_m_to_the_n(m, n, result):
    _, out, reads = run_text(power_input(), hi.LANG, f"{m}\n{n}\n")
    assert out.endswith(f"{m}^{n} = {result}.\n")
    assert reads == 2


def test_read_parses_optionally_signed_decimals():
    prog = read_input(lo.LANG).bind(write_output)
    assert run_text(prog, lo.LANG, "-3\n")[1] == "-3"
    assert run_text(prog, lo.LANG, "+7\n")[1] == "7"
    assert run_text(prog, lo.LANG, "  42  \n")[1] == "42"


def test_read_wraps_oversized_decimals_into_32_bits():
    prog = read_input(lo.LANG).bind(write_output)
    assert run_text(prog, lo.LANG, "4294967294\n")[1] == "-2"


def test_read_rejects_garbage_naming_the_text():
    prog = read_input(lo.LANG)
    with pytest.raises(InputError, match="3x"):
        run_text(prog, lo.LANG, "3x\n")
    with pytest.raises(InputError):
        run_text(prog, lo.LANG, "\n")
    with pytest.raises(InputError, match="exhausted"):
        run_text(prog, lo.LANG, "")


# longer than the 4,300 digits int() accepts by default
LONG_ZEROS = "0" * 5000 + "7"
LONG_SEVENS = "-" + "7" * 5000
LONG_SEVENS_I32 = wrap_i32(-sum(7 * pow(10, k, 2**32) for k in range(5000)))


def test_read_wraps_decimals_too_long_for_int_into_32_bits():
    prog = read_input(lo.LANG).bind(write_output)
    assert run_text(prog, lo.LANG, LONG_ZEROS + "\n")[1] == "7"
    assert run_text(prog, lo.LANG, LONG_SEVENS + "\n")[1] == str(LONG_SEVENS_I32)


def test_reads_are_counted_per_execution_not_per_instruction():
    prog = for_loop(lo.LANG, lo.lit(3), lambda _i: read_input(lo.LANG).bind(write_output))
    result, out, reads = run_text(prog, lo.LANG, "5\n6\n7\n8\n")
    assert out == "567"
    assert reads == 3  # the fourth line was never consumed


def test_write_prints_decimal_without_newline():
    assert run_text(write_output(lo.lit(-2)), lo.LANG)[1] == "-2"
    assert run_text(seq(write_output(lo.lit(1)), write_output(lo.lit(2))), lo.LANG)[1] == "12"


def test_print_str_is_verbatim():
    assert run_text(print_str(""), lo.LANG)[1] == ""
    assert run_text(print_str('a\t"b"\n'), lo.LANG)[1] == 'a\t"b"\n'


def test_loop_bound_is_evaluated_exactly_once():
    calls = []

    def counting_eval(e):
        calls.append(e)
        return lo.eval_closed(e)

    lang = dataclasses.replace(lo.LANG, eval_closed=counting_eval)
    prog = for_loop(lang, lo.lit(5), lambda _i: print_str("."))
    _, out, _ = run_text(prog, lang)
    assert out == "....."
    assert calls == [lo.lit(5)]


def test_symbolic_values_cannot_reach_the_runtime():
    with pytest.raises(StageError):
        run_text(Instr(GetRef(SymbolicRef(TypeTag.I32, "r0"))), lo.LANG)


def test_the_runtime_refuses_a_non_instruction():
    with pytest.raises(DslError, match="not an instruction"):
        run_text(Instr("nope"), lo.LANG)


def test_languages_without_evaluation_cannot_run():
    mute = Language(name="mute", const=lo.LANG.const, var=lo.LANG.var)
    with pytest.raises(DslError):
        run_text(write_output(lo.lit(1)), mute)


def test_run_reports_result_and_consumed_lines():
    result, reads = run(ret(5), lo.LANG, io.StringIO(""), io.StringIO())
    assert (result, reads) == (5, 0)


# --------------------------------------------------------------------------
# Staged loop bodies.  Every test runs the program twice: staged, and on the
# reference path that rebuilds and interprets the body on every trip.

I32 = TypeTag.I32


def _reference(lang):
    return dataclasses.replace(lang, compile=None)


def _outcome(prog, lang, text=""):
    """(result, output, reads), or the error type and the output before it."""
    out = io.StringIO()
    try:
        result, reads = run(prog, lang, io.StringIO(text), out)
    except DslError as err:
        return type(err), out.getvalue()
    return result, out.getvalue(), reads


def _both(prog, lang, text=""):
    staged = _outcome(prog, lang, text)
    assert staged == _outcome(prog, _reference(lang), text)
    return staged


@pytest.mark.parametrize("bound", [0, -3])
def test_a_loop_that_never_runs_never_builds_its_body(bound):
    def body(_i):
        raise AssertionError("body built")

    for lang in (lo.LANG, hi.LANG):
        prog = for_loop(lang, lang.const(I32, bound), body)
        assert _both(prog, lang) == (None, "", 0)
        inner = for_loop(lang, lang.const(I32, bound), body)
        nested = for_loop(lang, lang.const(I32, 2), lambda _i: inner)
        assert _both(nested, lang) == (None, "", 0)


def test_reads_inside_staged_loops_are_counted_per_trip():
    prog = for_loop(
        lo.LANG,
        lo.lit(2),
        lambda _i: for_loop(lo.LANG, lo.lit(2), lambda _j: read_input(lo.LANG).bind(write_output)),
    )
    assert _both(prog, lo.LANG, "1\n2\n3\n4\n5\n") == (None, "1234", 4)
    assert _both(prog, lo.LANG, "1\n2\nx\n") == (InputError, "12")
    assert _both(prog, lo.LANG, "1\n") == (InputError, "1")


def test_init_ref_in_a_staged_loop_makes_a_fresh_cell_every_trip(monkeypatch):
    made = []

    class RecordedRef(ConcreteRef):
        def __init__(self, tag, value):
            super().__init__(tag, value)
            made.append(self)

    monkeypatch.setattr(runtime, "ConcreteRef", RecordedRef)
    prog = for_loop(
        lo.LANG,
        lo.lit(3),
        lambda i: init_ref(i).bind(
            lambda r: modify_ref(lo.LANG, r, lambda x: x + 10).then(
                get_ref(lo.LANG, r).bind(write_output)
            )
        ),
    )
    assert run_text(prog, lo.LANG) == (None, "101112", 0)
    assert [cell.value for cell in made] == [10, 11, 12]
    assert len({id(cell) for cell in made}) == 3


def test_nested_loop_bounded_by_the_outer_counter():
    for lang in (lo.LANG, hi.LANG):
        prog = for_loop(lang, lang.const(I32, 4), lambda i: for_loop(lang, i, write_output))
        assert _both(prog, lang) == (None, "001012", 0)


@pytest.mark.parametrize("name", ["v0", "r1", "v2"])
def test_generated_names_never_resolve_a_programs_own_variable(name):
    # the body binds generated names v0 (counter), r1 and v2
    def body(_i):
        return init_ref(lo.lit(7)).bind(
            lambda r: get_ref(lo.LANG, r).then(
                print_str("a").then(write_output(lo.Var(name, I32)))
            )
        )

    prog = for_loop(lo.LANG, lo.lit(2), body)
    assert _both(prog, lo.LANG) == (UnboundVariableError, "a")


def test_high_binders_in_staged_loops_keep_free_variables_unbound():
    def body(_i):
        return print_str("a").then(
            write_output(hi.Let(hi.lit(1), lambda x: x + hi.Var("x1", I32)))
        )

    prog = for_loop(hi.LANG, hi.lit(2), body)
    assert _both(prog, hi.LANG) == (UnboundVariableError, "a")


def test_program_supplied_symbolic_refs_in_staged_loops_are_stage_errors():
    # r1 is also the name staging gives the cell the body allocates
    def body(_i):
        return init_ref(lo.lit(0)).then(
            print_str("a").then(set_ref(SymbolicRef(I32, "r1"), lo.lit(1)))
        )

    prog = for_loop(lo.LANG, lo.lit(2), body)
    assert _both(prog, lo.LANG) == (StageError, "a")
    stray = Instr(GetRef(SymbolicRef(I32, "r0")))
    get = for_loop(lo.LANG, lo.lit(2), lambda _i: print_str("b").then(stray))
    assert _both(get, lo.LANG) == (StageError, "b")


def test_long_decimals_read_inside_a_staged_loop_match_the_reference():
    prog = for_loop(lo.LANG, lo.lit(2), lambda _i: read_input(lo.LANG).bind(write_output))
    assert _both(prog, lo.LANG, f"{LONG_SEVENS}\n{LONG_ZEROS}\n") == (
        None,
        f"{LONG_SEVENS_I32}7",
        2,
    )


@pytest.mark.parametrize("name", ["v0", "r1", "v2"])
def test_a_later_top_level_loop_never_resolves_a_name_an_earlier_one_generated(name):
    # staging the first loop generates v0 (its counter), r1 and v2
    first = for_loop(
        lo.LANG,
        lo.lit(2),
        lambda i: init_ref(i).bind(lambda r: get_ref(lo.LANG, r).bind(write_output)),
    )
    second = for_loop(
        lo.LANG, lo.lit(2), lambda _j: print_str("b").then(write_output(lo.Var(name, I32)))
    )
    assert _both(seq(first, second), lo.LANG) == (UnboundVariableError, "01b")
