"""The interpreter: console behaviour, input parsing, evaluation discipline."""

import dataclasses
import gc
import io
import math

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
from stagedsl.randprog import corpus
from stagedsl.runtime import InputError, run, run_text
from stagedsl.translate import lower_program


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
        # a hot loop's generated function holds its namespace, which must
        # not hold the function
        run_text(lower_program(power_input()), lo.LANG, f"3\n{lo.HOT}\n")
        # and so must a hot Iter's
        run_text(power_input(), hi.LANG, f"3\n{lo.HOT}\n")
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
    "iter-count-init": lambda a, b: hi.Iter(a, b, lambda s: s),
    "iter-init-step": lambda a, b: hi.Iter(hi.lit(2), a, lambda s: s + b),
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


# --------------------------------------------------------------------------
# The source tier: a staged loop whose trips, summed over its runs, reach
# HOT runs its body as generated Python source.  The differential tests run
# each body just below, at and just above that count.

HOT = lo.HOT
AROUND_HOT = [HOT - 1, HOT, HOT + 1]


@pytest.mark.parametrize("trips", AROUND_HOT)
@pytest.mark.parametrize("m", [2**31 - 1, -(2**31)])
def test_a_hot_product_wraps_as_in_the_reference(m, trips, sources):
    # every trip writes the product: a value read later wraps anyway
    def body(acc, m, i):
        return modify_ref(lo.LANG, acc, lambda x: x * m + i).then(
            get_ref(lo.LANG, acc).bind(write_output).then(print_str(","))
        )

    prog = read_input(lo.LANG).bind(
        lambda m: init_ref(lo.lit(1)).bind(
            lambda acc: for_loop(lo.LANG, lo.lit(trips), lambda i: body(acc, m, i))
        )
    )
    want, acc = "", 1
    for i in range(trips):
        acc = wrap_i32(acc * m + i)
        want += f"{acc},"
    assert _both(prog, lo.LANG, f"{m}\n") == (None, want, 1)
    assert len(sources) == (trips >= HOT)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_hot_boolean_body_matches_the_reference(trips, sources):
    # flag becomes not (flag == (i * i == i)), which tells 0 and 1 apart
    def loop(flag):
        def body(i):
            return init_ref(lo.Eq(i * i, i)).bind(
                lambda r: get_ref(lo.LANG, r).bind(
                    lambda square: modify_ref(lo.LANG, flag, lambda f: lo.Not(lo.Eq(f, square)))
                )
            )

        return seq(for_loop(lo.LANG, lo.lit(trips), body), get_ref(lo.LANG, flag))

    want = False
    for i in range(trips):
        want = not (want == (i * i == i))
    prog = init_ref(lo.lit(False)).bind(loop)
    assert _both(prog, lo.LANG) == (lo.Lit(want, TypeTag.BOOL), "", 0)
    assert len(sources) == (trips >= HOT)


TRICKY = "\"'''\\\0{}'"


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_hot_print_string_never_becomes_source_text(trips, sources):
    prog = for_loop(lo.LANG, lo.lit(trips), lambda i: print_str(TRICKY).then(write_output(i)))
    want = "".join(f"{TRICKY}{k}" for k in range(trips))
    assert _both(prog, lo.LANG) == (None, want, 0)
    assert len(sources) == (trips >= HOT)
    assert all("'''" not in text and "{}" not in text for text in sources)


@pytest.mark.parametrize("trips", AROUND_HOT)
@pytest.mark.parametrize("last", ["", "x\n"])
def test_hot_reads_fail_mid_loop_as_in_the_reference(trips, last, sources):
    def body(i):
        return read_input(lo.LANG).bind(lambda x: write_output(x + i)).then(print_str(","))

    prog = for_loop(lo.LANG, lo.lit(trips), body)
    lines = trips - 5
    error = "input exhausted" if last == "" else "not a decimal integer: 'x'"
    want = ("InputError", error, "".join(f"{k + 1}," for k in range(lines)))
    assert _both(prog, lo.LANG, "1\n" * lines + last) == want
    assert len(sources) == (trips >= HOT)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_programs_own_variable_keeps_a_hot_body_on_the_steps(trips, sources):
    # v0 is also the name staging gives the counter
    prog = for_loop(
        lo.LANG, lo.lit(trips), lambda _i: print_str("a").then(write_output(lo.Var("v0", I32)))
    )
    assert _both(prog, lo.LANG) == ("UnboundVariableError", "unbound variable v0", "a")
    assert sources == []


def test_a_hot_loop_generates_its_source_once(sources):
    prog = lower_program(power_input())
    out = run_text(prog, lo.LANG, f"3\n{3 * HOT}\n")[1]
    assert out.endswith(f"3^{3 * HOT} = {wrap_i32(pow(3, 3 * HOT, 2**32))}.\n")
    # _c0 to _c2 are write, read and ConcreteRef; the live cell is a
    # constant each time it is named
    assert sources == [
        "def loop(env, n):\n"
        "    for v0 in range(n):\n"
        "        v1 = _c3.value\n"
        "        _c4.value = (((v1 * 3 + 0x80000000) & 0xFFFFFFFF) - 0x80000000)\n"
        "    env['v0'] = v0\n"
        "    env['v1'] = v1"
    ]


def test_cold_loops_and_the_default_corpus_never_generate_source(sources):
    run_text(lower_program(power_input()), lo.LANG, f"3\n{HOT - 1}\n")
    for gp in corpus(seed=1, size=200):
        for prog in [gp.program, *(lower_program(gp.program, cfg) for cfg in support.CONFIGS)]:
            outcome(prog, lo.LANG, gp.input_text)
    assert sources == []


def test_a_nested_leaf_loop_tiers_up_once_its_summed_trips_reach_hot(monkeypatch):
    out, seen = io.StringIO(), []

    def counted(text, *args):
        seen.append((text, out.getvalue()))
        return compile(text, *args)

    monkeypatch.setattr(lo, "compile", counted, raising=False)
    inner = 16
    runs = math.ceil(HOT / inner)  # the leaf loop's run that reaches HOT
    body = lambda i: for_loop(lo.LANG, lo.lit(inner), lambda j: write_output(i + j))
    prog = for_loop(lo.LANG, lo.lit(runs + 2), lambda i: body(i).then(print_str("|")))
    want = outcome(prog, support.REFERENCE)
    assert run(prog, lo.LANG, io.StringIO(), out) == (None, 0)
    assert out.getvalue() == want[1]
    [(text, before)] = seen
    assert before.count("|") == runs - 1
    # the outer body holds a loop, so it stays on the steps
    assert text.count(" for ") == 1
    assert "    v0 = env['v0']\n" in text  # the outer counter, read once per run


def test_a_swapped_in_compile_sees_every_trip_of_a_hot_loop(sources):
    evaluated = []

    def counting_compile(e, scope):
        compiled = lo.compile_open(e, scope)

        def counted(env):
            evaluated.append(e)
            return compiled(env)

        return counted

    lang = dataclasses.replace(lo.LANG, compile=counting_compile)
    prog = for_loop(lang, lo.lit(HOT), write_output)
    assert run_text(prog, lang)[1] == "".join(map(str, range(HOT)))
    assert len(evaluated) == HOT + 1  # the bound, then the counter on every trip
    assert sources == []


def test_a_hot_body_leaves_its_names_as_the_steps_do(sources):
    # the first loop's body hands its counter to the second's, which is
    # built after the first has run
    leaked = []

    def first(i):
        leaked.append(i)
        return print_str(".")

    def outer(_o):
        second = for_loop(lo.LANG, lo.lit(1), lambda _j: write_output(leaked[-1]))
        return for_loop(lo.LANG, lo.lit(HOT), first).then(second)

    prog = for_loop(lo.LANG, lo.lit(1), outer)
    assert _both(prog, lo.LANG) == (None, "." * HOT + str(HOT - 1), 0)
    assert len(sources) == 1


@pytest.mark.parametrize("trips", [2, HOT])
def test_a_name_kept_from_a_top_level_loop_reads_as_its_last_trip_left_it(trips, sources):
    # the run's instructions share one environment, so the counter the body
    # handed out is still bound after the loop
    leaked = []

    def body(i):
        leaked.append(i)
        return print_str(".")

    prog = for_loop(lo.LANG, lo.lit(trips), body).bind(lambda _: write_output(leaked[-1]))
    assert _both(prog, lo.LANG) == (None, "." * trips + str(trips - 1), 0)
    assert len(sources) == (trips >= HOT)


# --------------------------------------------------------------------------
# The Iter tier: an Iter whose trips, summed over its runs, reach HOT runs
# its step as generated source, through the same assembler as a hot loop.


@pytest.mark.parametrize("trips", AROUND_HOT)
@pytest.mark.parametrize("m", [2**31 - 1, -(2**31), 3])
def test_a_hot_iter_wraps_as_in_the_reference(m, trips, sources):
    power = wrap_i32(pow(m, trips, 2**32))
    want = f"Please enter two numbers\n >  > Here's a fact: {m}^{trips} = {power}.\n"
    assert _both(power_input(), hi.LANG, f"{m}\n{trips}\n") == (None, want, 2)
    assert len(sources) == (trips >= HOT)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_hot_boolean_iter_matches_the_reference(trips, sources):
    flag = hi.Iter(hi.lit(trips), hi.lit(True), lambda b: hi.Not(b))
    prog = init_ref(flag).bind(lambda r: get_ref(hi.LANG, r))
    assert _both(prog, hi.LANG) == (lo.Lit(trips % 2 == 0, TypeTag.BOOL), "", 0)
    assert len(sources) == (trips >= HOT)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_an_iter_in_a_cold_loop_tiers_up_mid_loop(trips, monkeypatch):
    # the loop's four runs of the Iter take c, c + d, c + 2d and c + 3d
    # trips, the first two summing to trips; the step reads the counter
    c = trips // 2 - 10
    d = trips - 2 * c

    def body(i):
        iterate = hi.Iter(i * d + c, hi.lit(1), lambda s: s * 3 + i)
        return write_output(iterate).then(print_str(","))

    want = ""
    for i in range(4):
        s = 1
        for _ in range(c + i * d):
            s = wrap_i32(s * 3 + i)
        want += f"{s},"
    prog = for_loop(hi.LANG, hi.lit(4), body)
    assert outcome(prog, support.REFERENCE) == (None, want, 0)
    out, seen = io.StringIO(), []

    def counted(text, *args):
        seen.append((text, out.getvalue().count(",")))
        return compile(text, *args)

    monkeypatch.setattr(lo, "compile", counted, raising=False)
    assert run(prog, hi.LANG, io.StringIO(), out) == (None, 0)
    assert out.getvalue() == want
    [(text, runs_before)] = seen
    assert runs_before == (1 if trips >= HOT else 2)
    assert "    v0 = env['v0']\n" in text  # the counter, read once per run


STEPS = {
    "let": lambda s: hi.Let(s + 1, lambda x: x * x),
    "iter": lambda s: hi.Iter(hi.lit(2), s, lambda t: t * 3 + 1),
    # s0 is also the name staging gives the state
    "own-var": lambda s: s + hi.Var("s0", I32),
}


@pytest.mark.parametrize("trips", AROUND_HOT)
@pytest.mark.parametrize("kind", STEPS)
def test_a_step_python_refuses_keeps_a_hot_iter_on_the_steps(kind, trips, sources):
    prog = print_str("a").then(write_output(hi.Iter(hi.lit(trips), hi.lit(1), STEPS[kind])))
    want = outcome(prog, support.REFERENCE)
    assert _both(prog, hi.LANG) == want
    if kind == "own-var":
        assert want == ("UnboundVariableError", "unbound variable s0", "a")
    # only a nested Iter, of two trips per outer trip, tiers up on its own
    assert len(sources) == (kind == "iter")
    assert all("for _ in range(n):\n        s0 = " not in text for text in sources)


def test_a_hot_step_that_ignores_the_state_still_sets_it(sources):
    prog = write_output(hi.Iter(hi.lit(HOT), hi.lit(1), lambda _s: hi.lit(5)))
    assert _both(prog, hi.LANG) == (None, "5", 0)
    assert len(sources) == 1


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("hot_first", [False, True])
def test_an_iter_of_no_trips_yields_its_init(count, hot_first, sources):
    # with hot_first the loop's first run makes the Iter hot and its second
    # takes count trips; otherwise the one run takes count trips
    runs, first = (2, HOT) if hot_first else (1, count)
    iterate = lambda i: hi.Iter(i * (count - first) + first, hi.lit(7), lambda s: s * 3)
    prog = for_loop(hi.LANG, hi.lit(runs), lambda i: write_output(iterate(i)).then(print_str(",")))
    want = f"{wrap_i32(7 * pow(3, HOT, 2**32))},7," if hot_first else "7,"
    assert _both(prog, hi.LANG) == (None, want, 0)
    assert len(sources) == hot_first


def test_a_hot_iter_generates_its_source_once(sources):
    out = run_text(power_input(), hi.LANG, f"3\n{3 * HOT}\n")[1]
    assert out.endswith(f"3^{3 * HOT} = {wrap_i32(pow(3, 3 * HOT, 2**32))}.\n")
    # the state is loaded once and stored back once; the base is a literal
    assert sources == [
        "def loop(env, n):\n"
        "    s0 = env['s0']\n"
        "    for _ in range(n):\n"
        "        s0 = (((s0 * 3 + 0x80000000) & 0xFFFFFFFF) - 0x80000000)\n"
        "    env['s0'] = s0"
    ]


def test_a_body_or_step_python_refuses_is_tried_once(monkeypatch, sources):
    # 3 * HOT one-trip runs of a loop whose body holds an Iter whose step
    # holds a Let, all in one run of an outer loop
    built = []

    class Counted(lo.Source):
        def __init__(self, scope):
            super().__init__(scope)
            built.append(self)

    monkeypatch.setattr(lo, "Source", Counted)
    iterate = lambda i: hi.Iter(hi.lit(1), i, lambda s: hi.Let(s + 1, lambda x: x * 3))
    body = lambda i: for_loop(hi.LANG, hi.lit(1), lambda _j: write_output(iterate(i)))
    prog = for_loop(hi.LANG, hi.lit(3 * HOT), body)
    want = "".join(str(3 * (i + 1)) for i in range(3 * HOT))
    assert _both(prog, hi.LANG) == (None, want, 0)
    # one Source each: the outer loop's, refused by the nested loop; the
    # loop's, refused by the Iter in its body; the Iter's, refused by the Let
    assert len(built) == 3
    assert sources == []
