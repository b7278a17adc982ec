"""The interpreter: console behaviour, input parsing, evaluation discipline."""

import dataclasses
import gc
import io

import pytest

import support
from c_differential import outcome
from stagedsl import highexpr as hi, lowexpr as lo, runtime
from stagedsl.cgen import emit_c
from stagedsl.core import (
    ConcreteRef,
    DslError,
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
from stagedsl.pseudo import render_program
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
    # only ASCII whitespace pads a number, as under C's scanf
    for line in ["\u00a07\n", "\x1c7\n"]:
        with pytest.raises(InputError, match="7"):
            run_text(prog, lo.LANG, line)
    assert run_text(prog.bind(write_output), lo.LANG, "  42  \n")[1] == "42"


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
    out = io.StringIO()

    def counting_compile(e, scope):
        compiled = lo.compile_open(e, scope)

        def counted(env):
            calls.append((e, out.getvalue()))
            return compiled(env)

        return counted

    lang = dataclasses.replace(lo.LANG, compile=counting_compile)
    prog = for_loop(lang, lo.lit(5), lambda _i: print_str("."))
    run(prog, lang, io.StringIO(), out)
    assert out.getvalue() == "....."
    assert calls == [(lo.lit(5), "")]  # once, before any trip


def test_symbolic_values_cannot_reach_the_runtime():
    with pytest.raises(StageError):
        run_text(GetRef(SymbolicRef(TypeTag.I32, "r0")), lo.LANG)


def test_the_runtime_refuses_a_non_instruction():
    with pytest.raises(DslError, match="not an instruction"):
        run_text(Instr(), lo.LANG)


def test_run_reports_result_and_consumed_lines():
    result, reads = run(ret(5), lo.LANG, io.StringIO(""), io.StringIO())
    assert (result, reads) == (5, 0)


def test_a_staged_run_leaves_no_reference_cycle():
    # staged steps hold the runner's read and write, so a runner holding
    # its steps would be freed only by the cyclic collector
    gc.collect()
    gc.disable()
    try:
        run_text(sum_input(), hi.LANG, "1\n2\n3\n4\n")
        assert gc.collect() == 0
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# Staged loop bodies.  Every test runs the program twice: staged, and on the
# reference path that rebuilds and interprets the body on every trip.

I32 = TypeTag.I32


def _both(prog, lang, text=""):
    staged = outcome(prog, lang, text)
    assert staged == outcome(prog, support.REFERENCE, text)
    return staged


@pytest.mark.parametrize("bound", [0, -3])
def test_a_loop_that_never_runs_never_builds_its_body(bound):
    def body(_i):
        raise AssertionError("body built")

    prog = for_loop(lo.LANG, lo.lit(bound), body)
    assert _both(prog, lo.LANG) == (None, "", 0)
    nested = for_loop(lo.LANG, lo.lit(2), lambda _i: prog)
    assert _both(nested, lo.LANG) == (None, "", 0)


def test_reads_inside_staged_loops_are_counted_per_trip():
    prog = for_loop(
        lo.LANG,
        lo.lit(2),
        lambda _i: for_loop(lo.LANG, lo.lit(2), lambda _j: read_input(lo.LANG).bind(write_output)),
    )
    assert _both(prog, lo.LANG, "1\n2\n3\n4\n5\n") == (None, "1234", 4)
    assert _both(prog, lo.LANG, "1\n2\nx\n") == ("InputError", "not a decimal integer: 'x'", "12")
    assert _both(prog, lo.LANG, "1\n") == ("InputError", "input exhausted", "1")


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
    prog = for_loop(lo.LANG, lo.lit(4), lambda i: for_loop(lo.LANG, i, write_output))
    assert _both(prog, lo.LANG) == (None, "001012", 0)


def test_a_staged_loop_builds_its_body_and_binder_bodies_once():
    built = {"body": 0, "step": 0}

    def step(x):
        built["step"] += 1
        return x * 3

    def body(i):
        built["body"] += 1
        return write_output(hi.Iter(hi.lit(4), i, step)).then(print_str(" "))

    prog = for_loop(hi.LANG, hi.lit(5), body)
    # staged: the step is built for Iter's tag check and once to compile it
    # reference: a tag check and four trips per Iter, on all five trips
    for lang, counts in [(hi.LANG, (1, 2)), (support.REFERENCE, (5, 25))]:
        built.update(body=0, step=0)
        assert run_text(prog, lang) == (None, "0 81 162 243 324 ", 0)
        assert (built["body"], built["step"]) == counts


def test_a_top_level_iter_builds_its_step_once_not_on_every_trip():
    def step_calls(lang):
        calls = []

        def step(x):
            calls.append(x)
            return x + 1

        prog = write_output(hi.Iter(hi.lit(1000), hi.lit(1), step))
        assert run_text(prog, lang) == (None, "1001", 0)
        return len(calls)

    # staged: the tag check and the compilation; reference: also every trip
    assert step_calls(hi.LANG) <= 2
    assert step_calls(support.REFERENCE) >= 1001


def _deepen(e, depth):
    """e + 1 + 1 ..., deeper than compiled closures nest."""
    for _ in range(depth):
        e = e + 1
    return e


# where two unbound variables, a and b, sit: b always after a in fold order
PLACES = {
    "top": lambda a, b: a + b,
    "let-shared": lambda a, b: hi.Let(a + b, lambda x: x * 2),
    "let-body": lambda a, b: hi.Let(hi.lit(3), lambda x: x * (a + b)),
    "let-both": lambda a, b: hi.Let(a, lambda x: x + b),
    "iter-step": lambda a, b: hi.Iter(hi.lit(2), hi.lit(1), lambda s: s * (a + b)),
    "iter-both": lambda a, b: hi.Iter(a, hi.lit(1), lambda s: s + b),
}


@pytest.mark.parametrize("place", PLACES)
def test_of_two_unbound_variables_the_first_in_fold_order_raises(place):
    want = ("UnboundVariableError", "unbound variable a", "x<")
    for depths in [(0, 0), (0, 300), (300, 0)]:
        a, b = (_deepen(hi.Var(name, I32), d) for name, d in zip("ab", depths))
        write = print_str("<").then(write_output(PLACES[place](a, b)))
        for stmt in (write, for_loop(hi.LANG, hi.lit(2), lambda _i: write)):
            prog = print_str("x").then(stmt)
            assert _both(prog, hi.LANG) == want, (depths, stmt)


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
    assert _both(prog, lo.LANG) == ("UnboundVariableError", f"unbound variable {name}", "a")
    with pytest.raises(UnboundVariableError, match=f"unbound variable {name}"):
        emit_c(prog)
    # pseudo-code prints the variable as written, since render takes no scope
    assert f"writeOutput {name}" in render_program(prog)


def test_high_binders_in_staged_loops_keep_free_variables_unbound():
    def body(_i):
        return print_str("a").then(
            write_output(hi.Let(hi.lit(1), lambda x: x + hi.Var("x1", I32)))
        )

    prog = for_loop(hi.LANG, hi.lit(2), body)
    assert _both(prog, hi.LANG) == ("UnboundVariableError", "unbound variable x1", "a")


def test_program_supplied_symbolic_refs_in_staged_loops_are_stage_errors():
    # r1 is also the name staging gives the cell the body allocates
    def body(_i):
        return init_ref(lo.lit(0)).then(
            print_str("a").then(set_ref(SymbolicRef(I32, "r1"), lo.lit(1)))
        )

    reached = "symbolic reference reached the runtime interpreter"
    prog = for_loop(lo.LANG, lo.lit(2), body)
    assert _both(prog, lo.LANG) == ("StageError", reached, "a")
    stray = GetRef(SymbolicRef(I32, "r0"))
    get = for_loop(lo.LANG, lo.lit(2), lambda _i: print_str("b").then(stray))
    assert _both(get, lo.LANG) == ("StageError", reached, "b")
    for printer in (emit_c, render_program):
        for foreign in (prog, get):
            with pytest.raises(StageError, match="not generated by this walk"):
                printer(foreign)


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
    want = ("UnboundVariableError", f"unbound variable {name}", "01b")
    assert _both(seq(first, second), lo.LANG) == want
