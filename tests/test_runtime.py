"""The interpreter: console behaviour, input parsing, evaluation discipline."""

import dataclasses
import gc
import io
import math
from functools import partial

import pytest

import support
from c_differential import disagreement, outcome
from stagedsl import highexpr as hi, hot, lowexpr as lo, runtime
from stagedsl.cgen import emit_c, have_c_compiler
from stagedsl.core import (
    ConcreteRef,
    DslError,
    Scope,
    StageError,
    SymbolicRef,
    TypeTag,
    GetRef,
    Instr,
    ReadInput,
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
from stagedsl.translate import TranslationConfig, UnrollPolicy, lower_program


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


# every ASCII space C's scanf skips but space, tab and newline, on both sides
PADDED = ["\f7\v\n", "\v-8\f\n", "\f\v+9\r\n"]


def _padded_reads(trips):
    body = lambda _i: read_input(lo.LANG).bind(write_output).then(print_str(","))
    prog = for_loop(lo.LANG, lo.lit(trips), body)
    return prog, "".join(PADDED[k % 3] for k in range(trips))


@pytest.mark.parametrize("trips", [3, hot.HOT])
def test_input_padded_with_form_feeds_and_vertical_tabs_reads_as_its_number(trips):
    prog, text = _padded_reads(trips)
    want = "".join(["7,", "-8,", "9,"][k % 3] for k in range(trips))
    assert _both(prog, lo.LANG, text) == (None, want, trips)


@pytest.mark.skipif(not have_c_compiler(), reason="no C compiler on PATH")
def test_c_reads_input_padded_with_form_feeds_and_vertical_tabs_as_the_interpreter(tmp_path):
    assert disagreement(*_padded_reads(3), tmp_path, "padded") is None


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
        run_text(lower_program(power_input()), lo.LANG, f"3\n{hot.HOT}\n")
        # and so must a hot Iter's
        run_text(power_input(), hi.LANG, f"3\n{hot.HOT}\n")
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


def _step_calls(lang, count):
    """How often a top-level Iter of count trips builds its step."""
    calls = []

    def step(x):
        calls.append(x)
        return x + 1

    prog = write_output(hi.Iter(hi.lit(count), hi.lit(1), step))
    assert run_text(prog, lang) == (None, str(1 + max(count, 0)), 0)
    return len(calls)


def test_a_top_level_iter_builds_its_step_once_not_on_every_trip():
    # staged: the tag check and the compilation; reference: also every trip
    assert _step_calls(hi.LANG, 1000) <= 2
    assert _step_calls(support.REFERENCE, 1000) >= 1001


@pytest.mark.parametrize("count", [0, -3])
def test_an_iter_of_no_trips_builds_its_step_as_the_reference_does(count):
    # only the tag check at construction: a staged step is built on the
    # first run that takes a trip
    assert _step_calls(hi.LANG, count) == _step_calls(support.REFERENCE, count) == 1


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
    with pytest.raises(UnboundVariableError, match=f"unbound variable {name}"):
        render_program(prog)


def test_high_binders_in_staged_loops_keep_free_variables_unbound():
    def body(_i):
        return print_str("a").then(
            write_output(hi.Let(hi.lit(1), lambda x: x + hi.Var("x1", I32)))
        )

    prog = for_loop(hi.LANG, hi.lit(2), body)
    assert _both(prog, hi.LANG) == ("UnboundVariableError", "unbound variable x1", "a")


@pytest.mark.parametrize("trips", [2, hot.HOT])
def test_program_supplied_symbolic_refs_in_staged_loops_are_stage_errors(trips, sources):
    # r1 is also the name staging gives the cell the body allocates; at HOT
    # trips the generator refuses each body first, and the steps then raise
    def body(_i):
        return init_ref(lo.lit(0)).then(
            print_str("a").then(set_ref(SymbolicRef(I32, "r1"), lo.lit(1)))
        )

    reached = "symbolic reference reached the runtime interpreter"
    prog = for_loop(lo.LANG, lo.lit(trips), body)
    assert _both(prog, lo.LANG) == ("StageError", reached, "a")
    stray = GetRef(SymbolicRef(I32, "r0"))
    get = for_loop(lo.LANG, lo.lit(trips), lambda _i: print_str("b").then(stray))
    assert _both(get, lo.LANG) == ("StageError", reached, "b")
    assert sources == []
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


def _kept_reference(trips):
    """A loop body allocates a cell, and host code keeps the reference the
    body was built with; after the loop, top-level statements write 9 through
    it and print what they read back.  The reference keeps the last trip's
    cell, a staged run the cell its name holds, and C the one variable."""
    kept = []

    def body(i):
        return init_ref(i).bind(lambda r: kept.append(r) or ret())

    def after(_):
        return set_ref(kept[-1], lo.lit(9)).then(get_ref(lo.LANG, kept[-1]).bind(write_output))

    return for_loop(lo.LANG, lo.lit(trips), body).bind(after)


def _kept_reference_programs(trips):
    return [_kept_reference(trips)] + [
        lower_program(_kept_reference(trips), config) for config in support.CONFIGS
    ]


@pytest.mark.parametrize("trips", [3, hot.HOT, hot.HOT + 1])
def test_a_reference_kept_from_a_loop_body_resolves_at_top_level_as_in_a_loop(trips):
    for prog in _kept_reference_programs(trips):
        assert _both(prog, lo.LANG) == (None, "9", 0)


@pytest.mark.parametrize("trips", [3, hot.HOT, hot.HOT + 1])
def test_a_reference_kept_from_a_loop_body_prints_as_in_c(trips, tmp_path):
    if not have_c_compiler():
        pytest.skip("no C compiler on PATH")
    compiled = set()
    for prog in _kept_reference_programs(trips):
        source = emit_c(prog)
        if source in compiled:
            continue  # configs that lower a program alike give the same C
        compiled.add(source)
        assert disagreement(prog, "", tmp_path) is None


# --------------------------------------------------------------------------
# The source tier: a staged loop whose trips, summed over its runs, reach
# HOT runs its body as generated Python source.  The differential tests run
# each body just below, at and just above that count.

HOT = hot.HOT
AROUND_HOT = [HOT - 1, HOT, HOT + 1]
# a hot i32 Iter runs its trips in passes of four: one count per remainder
PAST_HOT = [HOT, HOT + 1, HOT + 2, HOT + 3]


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
    # the base is v0, read at top level and loaded from env like the cell
    # r2, reached by name twice: one local _r0 in residue form across the
    # trips, stored back canonical in a finally, as the name read from it is
    # at its store.  It is the one carried local stored and the counter is
    # unread, so the trips run in passes of four that mask the cell once each
    assert sources == [
        "def loop(env, n):\n"
        "    r2 = env['r2']\n"
        "    v0 = env['v0']\n"
        "    _r0 = r2.value\n"
        "    try:\n"
        "        for _ in _repeat(None, n // 4):\n"
        "            v4 = _r0\n"
        "            _r0 = v4 * v0\n"
        "            v4 = _r0\n"
        "            _r0 = v4 * v0\n"
        "            v4 = _r0\n"
        "            _r0 = v4 * v0\n"
        "            v4 = _r0\n"
        "            _r0 = ((v4 * v0) & 0xFFFFFFFF)\n"
        "        for _ in _repeat(None, n % 4):\n"
        "            v4 = _r0\n"
        "            _r0 = ((v4 * v0) & 0xFFFFFFFF)\n"
        "    finally:\n"
        "        r2.value = (((_r0 + 0x80000000) & 0xFFFFFFFF) - 0x80000000)\n"
        "    env['v3'] = n - 1\n"
        "    env['v4'] = (((v4 + 0x80000000) & 0xFFFFFFFF) - 0x80000000)"
    ]


@pytest.mark.parametrize("reads", [False, True])
def test_a_hot_body_counts_its_trips_in_ints_only_if_it_reads_its_counter(reads, sources):
    body = lambda i: write_output(i if reads else lo.lit(7))
    prog = for_loop(lo.LANG, lo.lit(HOT), body)
    want = "".join(str(k) if reads else "7" for k in range(HOT))
    assert _both(prog, lo.LANG) == (None, want, 0)
    [text] = sources
    assert ("    for v0 in range(n):\n" in text) is reads
    assert ("    for _ in _repeat(None, n):\n" in text) is not reads


def _held(make, inits, text=""):
    """The outcome of make(*cells), staged and on the reference, each with
    cells of its own that the test holds, one per init, and the values they
    then hold, each of its init's type."""
    results = []
    for lang in [lo.LANG, support.REFERENCE]:
        cells = [ConcreteRef(lo.lit(init).tag, init) for init in inits]
        results.append((outcome(make(*cells), lang, text), [cell.value for cell in cells]))
        assert [type(cell.value) for cell in cells] == [type(init) for init in inits]
    assert results[0] == results[1]
    return results[0]


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_promoted_cell_read_equals_an_operator_result_while_negative(trips, sources):
    # c holds -1 throughout, a residue in the source from its first write
    # on, which each Eq compares masked: eq keeps the last trip's v == -1,
    # and kept toggles on every trip where v * 1 == -1 is false
    def body(c, eq, kept, _i):
        return get_ref(lo.LANG, c).bind(
            lambda v: seq(
                set_ref(eq, lo.Eq(v, lo.lit(-1))),
                get_ref(lo.LANG, kept).bind(
                    lambda k: set_ref(kept, lo.Eq(k, lo.Eq(v * 1, lo.lit(-1))))
                ),
                write_output(v),
                set_ref(c, v * 1),
            )
        )

    make = lambda *cells: for_loop(lo.LANG, lo.lit(trips), partial(body, *cells))
    assert _held(make, [-1, False, True]) == ((None, "-1" * trips, 0), [-1, True, True])
    assert len(sources) == (trips >= HOT)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_name_kept_from_a_hot_loop_holds_a_negative_value(trips, sources):
    # v is a residue in the source, canonical once stored back to env
    leaked = []

    def body(c, _i):
        def keep(v):
            leaked.append(v)
            return set_ref(c, v * 1 + -1)

        return get_ref(lo.LANG, c).bind(keep)

    def make(c):
        loop = for_loop(lo.LANG, lo.lit(trips), partial(body, c))
        return loop.bind(
            lambda _: write_output(leaked[-1]).then(write_output(leaked[-1] * -3))
        )

    want = (None, f"-{trips}{3 * trips}", 0)
    assert _held(make, [-1]) == (want, [-trips - 1])
    assert len(sources) == (trips >= HOT)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_promoted_boolean_cell_matches_the_reference(trips, sources):
    # the flag holds on the trip where i is 0 and toggles on every other
    def body(flag, i):
        return get_ref(lo.LANG, flag).bind(
            lambda f: set_ref(flag, lo.Eq(f, lo.Eq(i * 1 + -1, lo.lit(-1))))
        )

    make = lambda flag: seq(
        for_loop(lo.LANG, lo.lit(trips), partial(body, flag)), get_ref(lo.LANG, flag)
    )
    want = trips % 2 == 1
    assert _held(make, [True]) == ((lo.Lit(want, TypeTag.BOOL), "", 0), [want])
    assert len(sources) == (trips >= HOT)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_one_cell_named_by_two_statements_is_one_local(trips, sources):
    def body(c, i):
        return get_ref(lo.LANG, c).bind(
            lambda a: set_ref(c, a * 3).then(get_ref(lo.LANG, c)).bind(
                lambda b: set_ref(c, b + i * -7).then(write_output(a + b)).then(print_str(","))
            )
        )

    make = lambda c: for_loop(lo.LANG, lo.lit(trips), partial(body, c))
    want, acc = "", -1
    for i in range(trips):
        b = wrap_i32(acc * 3)
        want += f"{wrap_i32(acc + b)},"
        acc = wrap_i32(b + i * -7)
    assert _held(make, [-1]) == ((None, want, 0), [acc])
    if trips >= HOT:
        [text] = sources
        assert text.count(".value") == 2  # the load, and the store in the finally


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_promoted_cell_holds_the_steps_value_after_an_input_error(trips, sources):
    # every trip multiplies the cell by -3 and then reads a line; the last
    # line is missing, so the error leaves the cell as that trip's write did
    def body(c, _i):
        return get_ref(lo.LANG, c).bind(
            lambda v: set_ref(c, v * -3).then(read_input(lo.LANG)).bind(write_output)
        )

    make = lambda c: for_loop(lo.LANG, lo.lit(trips), partial(body, c))
    lines = trips - 5
    want = ("InputError", "input exhausted", "1" * lines)
    assert _held(make, [-1], "1\n" * lines) == (want, [wrap_i32(-pow(-3, lines + 1, 2**32))])
    assert len(sources) == (trips >= HOT)


# A hot body that reads no counter and stores one i32 cell runs in passes of
# four, as a hot i32 Iter does; these run one count per remainder mod 4.

AROUND_PASSES = [HOT - 1, *PAST_HOT]
CELL_STEPS = {
    "square": lambda v: v * v,
    "double": lambda v: v + v,
    "times-minus-7": lambda v: v * -7,
}


@pytest.mark.parametrize("trips", AROUND_PASSES)
@pytest.mark.parametrize("init", [-(2**31), 2**31 - 1, 3])
@pytest.mark.parametrize("kind", CELL_STEPS)
def test_a_hot_cell_stored_in_passes_matches_the_reference(kind, init, trips, sources):
    step = CELL_STEPS[kind]
    body = lambda c, _i: get_ref(lo.LANG, c).bind(lambda v: set_ref(c, step(v)))
    make = lambda c: for_loop(lo.LANG, lo.lit(trips), partial(body, c))
    want = init
    for _ in range(trips):
        want = wrap_i32(step(want))
    assert _held(make, [init]) == ((None, "", 0), [want])
    assert len(sources) == (trips >= HOT)
    assert all("    for _ in _repeat(None, n // 4):\n" in text for text in sources)


@pytest.mark.parametrize("trips", AROUND_PASSES)
def test_a_hot_body_storing_its_cell_twice_per_trip_matches_the_reference(trips, sources):
    # even2 lowers the Iter to a loop whose body runs two steps, each storing
    # the cell: only the second store of a trip is left unmasked
    even2 = TranslationConfig(unroll=UnrollPolicy.EVEN_BY_2)
    prog = write_output(hi.Iter(hi.lit(trips) * 2, hi.lit(-5), lambda s: s * s + s))
    want = -5
    for _ in range(2 * trips):
        want = wrap_i32(want * want + want)
    assert _both(lower_program(prog, even2), lo.LANG) == (None, str(want), 0)
    assert len(sources) == (trips >= HOT)
    for text in sources:
        assert text.count("_r0 = ((v3 * v3) & 0xFFFFFFFF) + v3\n") == 3
        assert "_r0 = ((v1 * v1) & 0xFFFFFFFF) + v1\n" not in text


@pytest.mark.parametrize("trips", AROUND_PASSES)
def test_a_name_read_after_a_hot_cells_unmasked_store_is_written_canonical(trips, sources):
    # w reads the cell after the trip's one i32 store, which all but the
    # last trip of a pass leave unmasked; writing w and comparing it observe
    # it, and a boolean cell's store leaves the passes as they are
    def body(c, same, _i):
        return get_ref(lo.LANG, c).bind(
            lambda v: set_ref(c, v * v + -7).then(get_ref(lo.LANG, c)).bind(
                lambda w: seq(
                    write_output(w), print_str(","), set_ref(same, lo.Eq(w, v * v + -7))
                )
            )
        )

    make = lambda *cells: for_loop(lo.LANG, lo.lit(trips), partial(body, *cells))
    want, acc = "", 2**31 - 1
    for _ in range(trips):
        acc = wrap_i32(acc * acc - 7)
        want += f"{acc},"
    assert _held(make, [2**31 - 1, False]) == ((None, want, 0), [acc, True])
    assert len(sources) == (trips >= HOT)
    assert all("n // 4" in text for text in sources)


@pytest.mark.parametrize("trips", AROUND_PASSES)
@pytest.mark.parametrize("short", [5, 6, 7, 8])
def test_a_hot_cell_holds_the_steps_value_after_an_input_error_mid_pass(short, trips, sources):
    # every trip squares the cell, adds 3 and reads a line; the input runs
    # out on trip trips - short, at each place in a pass
    def body(c, _i):
        return get_ref(lo.LANG, c).bind(
            lambda v: set_ref(c, v * v + 3).then(read_input(lo.LANG)).bind(write_output)
        )

    make = lambda c: for_loop(lo.LANG, lo.lit(trips), partial(body, c))
    lines, acc = trips - short, 2**31 - 1
    for _ in range(lines + 1):
        acc = wrap_i32(acc * acc + 3)
    want = ("InputError", "input exhausted", "1" * lines)
    assert _held(make, [2**31 - 1], "1\n" * lines) == (want, [acc])
    assert len(sources) == (trips >= HOT)


KEEP_MASKS = {
    # each cell's store reads the other's value
    "two-cells": lambda a, b, x, y, _i: seq(set_ref(a, x * y), set_ref(b, y + x)),
    # one cell, whose store reads the counter
    "counter": lambda a, _b, x, y, i: set_ref(a, x * y + i),
}


@pytest.mark.parametrize("trips", AROUND_PASSES)
@pytest.mark.parametrize("kind", KEEP_MASKS)
def test_a_hot_body_storing_two_cells_or_reading_its_counter_keeps_every_mask(kind, trips, sources):
    def body(a, b, i):
        return get_ref(lo.LANG, a).bind(
            lambda x: get_ref(lo.LANG, b).bind(lambda y: KEEP_MASKS[kind](a, b, x, y, i))
        )

    make = lambda a, b: for_loop(lo.LANG, lo.lit(trips), partial(body, a, b))
    assert _held(make, [3, -5])[0] == (None, "", 0)
    assert len(sources) == (trips >= HOT)
    for text in sources:
        assert "n // 4" not in text
        operators = [line for line in text.splitlines() if " * " in line or " + " in line]
        assert all("& 0xFFFFFFFF" in line for line in operators)


def test_cold_loops_and_the_default_corpus_never_generate_source(sources):
    run_text(lower_program(power_input()), lo.LANG, f"3\n{HOT - 1}\n")
    for gp in corpus(seed=1, size=200):
        for prog in [gp.program, *(lower_program(gp.program, cfg) for cfg in support.CONFIGS)]:
            outcome(prog, lo.LANG, gp.input_text)
    assert sources == []


def test_a_nested_leaf_loop_tiers_up_once_its_summed_trips_reach_hot(sources):
    out = io.StringIO()
    sources.probe = out.getvalue
    inner = 16
    runs = math.ceil(HOT / inner)  # the leaf loop's run that reaches HOT
    body = lambda i: for_loop(lo.LANG, lo.lit(inner), lambda j: write_output(i + j))
    prog = for_loop(lo.LANG, lo.lit(runs + 2), lambda i: body(i).then(print_str("|")))
    want = outcome(prog, support.REFERENCE)
    assert run(prog, lo.LANG, io.StringIO(), out) == (None, 0)
    assert out.getvalue() == want[1]
    [(text, before)] = sources.seen
    assert before.count("|") == runs - 1
    # the outer body holds a loop, so it stays on the steps
    assert text.count(" for ") == 1
    assert "    v0 = env['v0']\n" in text  # the outer counter, read once per run


def test_a_swapped_in_compile_tiers_up_on_the_first_hot_run(sources):
    # the tier depends on the program, not on which compile the language
    # holds: the body goes to source, so the wrapper sees only the bound
    evaluated = []

    def counting_compile(e, scope):
        compiled = lo.compile_open(e, scope)

        def counted(env):
            evaluated.append(e)
            return compiled(env)

        return counted

    lang = dataclasses.replace(lo.LANG, compile=counting_compile)
    prog = for_loop(lang, lo.lit(HOT), write_output)
    assert outcome(prog, lang) == outcome(prog, support.REFERENCE)
    assert evaluated == [prog.count]
    assert len(sources) == 1


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


@pytest.mark.parametrize("trips", [2, *AROUND_HOT])
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
    # no line of the body reads the counter, so the hot text stores n - 1
    assert all("    env['v0'] = n - 1" in text for text in sources)


@pytest.mark.parametrize("trips", AROUND_HOT)
def test_a_counter_a_hot_body_reads_is_kept_as_its_last_trip_left_it(trips, sources):
    # the body writes its counter, so the hot text runs it under range, and
    # stores it back as n - 1 all the same
    leaked = []

    def body(i):
        leaked.append(i)
        return write_output(i).then(print_str(","))

    prog = for_loop(lo.LANG, lo.lit(trips), body).bind(lambda _: write_output(leaked[-1]))
    want = "".join(f"{k}," for k in range(trips)) + str(trips - 1)
    assert _both(prog, lo.LANG) == (None, want, 0)
    assert len(sources) == (trips >= HOT)
    assert all("    for v0 in range(n):\n" in text for text in sources)
    assert all("    env['v0'] = n - 1" in text for text in sources)


# --------------------------------------------------------------------------
# What a hot run sets up: a text is compiled once per process, and a loop
# builds steps only for a run that is not hot.


def test_a_hot_text_is_compiled_once_per_process(sources):
    prog = lower_program(power_input())
    for n in [HOT, HOT + 1]:
        out = run_text(prog, lo.LANG, f"3\n{n}\n")[1]
        assert out.endswith(f"3^{n} = {wrap_i32(pow(3, n, 2**32))}.\n")
    assert len(sources) == 1


def test_equal_hot_texts_keep_their_own_constants(sources):
    # the bodies print as one text: the print string and the cell are
    # constants that each run's function holds in its own namespace
    def prog(text, init):
        body = lambda acc, _i: print_str(text).then(modify_ref(lo.LANG, acc, lambda x: x * 3))
        return init_ref(lo.lit(init)).bind(
            lambda acc: for_loop(lo.LANG, lo.lit(HOT), partial(body, acc)).then(
                get_ref(lo.LANG, acc).bind(write_output)
            )
        )

    power = pow(3, HOT, 2**32)
    for text, init in [("a", 1), ("b", 2), ("a", 1)]:
        want = text * HOT + str(wrap_i32(init * power))
        assert run_text(prog(text, init), lo.LANG) == (None, want, 0)
    assert len(sources) == 1


@pytest.mark.parametrize("trips,steps", [(HOT - 1, 2), (HOT, 0)])
def test_a_loop_hot_on_its_first_run_builds_no_steps(trips, steps, monkeypatch, sources):
    built = []
    step = runtime._Runner.step

    def counted(self, cmd, name):
        built.append(cmd)
        return step(self, cmd, name)

    monkeypatch.setattr(runtime._Runner, "step", counted)
    prog = for_loop(lo.LANG, lo.lit(trips), lambda i: print_str(".").then(write_output(i)))
    assert run_text(prog, lo.LANG)[1] == "".join(f".{k}" for k in range(trips))
    assert built[0] is prog  # the top-level loop is staged by step too
    assert len(built[1:]) == steps
    assert len(sources) == (trips >= HOT)


def _recording_scopes(monkeypatch):
    scopes = []

    class Recorded(Scope):
        def __init__(self):
            super().__init__()
            scopes.append(self)

    monkeypatch.setattr(runtime, "Scope", Recorded)
    return scopes


def test_a_refused_hot_body_is_walked_once(monkeypatch, sources):
    # the nested loop keeps the body on the steps, built from the one walk
    scopes, walks = _recording_scopes(monkeypatch), []

    def body(i):
        walks.append(i.name)
        inner = lambda r: for_loop(
            lo.LANG, lo.lit(1), lambda j: get_ref(lo.LANG, r).bind(lambda v: write_output(v + j))
        )
        return init_ref(i * 2).bind(inner)

    prog = for_loop(lo.LANG, lo.lit(HOT), body)
    assert run_text(prog, lo.LANG) == (None, "".join(str(2 * k) for k in range(HOT)), 0)
    assert walks == ["v0"]
    assert [name for name, _ in scopes[0].names] == ["v0", "r1", "v2", "v3"]
    [text] = sources  # the nested leaf loop's, hot once its one-trip runs sum to HOT
    assert "    for v2 in range(n):\n" in text


def test_a_loop_hot_on_a_later_run_keeps_the_names_of_its_cold_walk(monkeypatch, sources):
    # the leaf loop runs HOT - 1 trips cold, then goes hot on its second run
    scopes, walks = _recording_scopes(monkeypatch), []

    def leaf(acc):
        def body(j):
            if isinstance(j, lo.Var):  # not the reference's literal
                walks.append(j.name)
            return modify_ref(lo.LANG, acc, lambda x: x * 3 + j)

        return lambda _o: for_loop(lo.LANG, lo.lit(HOT - 1), body)

    prog = init_ref(lo.lit(1)).bind(
        lambda acc: for_loop(lo.LANG, lo.lit(2), leaf(acc)).then(
            get_ref(lo.LANG, acc).bind(write_output)
        )
    )
    acc = 1
    for j in [*range(HOT - 1)] * 2:
        acc = wrap_i32(acc * 3 + j)
    assert _both(prog, lo.LANG) == (None, str(acc), 0)
    assert walks == ["v2"]
    assert [name for name, _ in scopes[0].names] == ["r0", "v1", "v2", "v3", "v4"]
    [text] = sources
    assert "    for v2 in range(n):\n            v3 = _r0\n" in text


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
def test_an_iter_in_a_cold_loop_tiers_up_mid_loop(trips, sources):
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
    out = io.StringIO()
    sources.probe = lambda: out.getvalue().count(",")
    assert run(prog, hi.LANG, io.StringIO(), out) == (None, 0)
    assert out.getvalue() == want
    [(text, runs_before)] = sources.seen
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
    assert all("s0" not in text for text in sources)


def test_a_hot_step_that_ignores_the_state_still_sets_it(sources):
    prog = write_output(hi.Iter(hi.lit(HOT), hi.lit(1), lambda _s: hi.lit(5)))
    assert _both(prog, hi.LANG) == (None, "5", 0)
    assert len(sources) == 1


@pytest.mark.parametrize("trips", [HOT - 1, *PAST_HOT])
def test_a_hot_boolean_iter_compares_a_residue_masked(trips, sources):
    # i is 0, so i * 1 + -1 is -1 as a residue: the first Iter's state is that
    # Eq, and the second's toggles on every trip it is false
    def body(last, kept, i):
        held = lambda _b: hi.Eq(i * 1 + -1, hi.lit(-1))
        return seq(
            set_ref(last, hi.Iter(hi.lit(trips), hi.lit(False), held)),
            set_ref(kept, hi.Iter(hi.lit(trips), hi.lit(True), lambda b: hi.Eq(b, held(b)))),
        )

    make = lambda *cells: for_loop(hi.LANG, hi.lit(1), partial(body, *cells))
    assert _held(make, [False, True]) == ((None, "", 0), [True, True])
    assert len(sources) == 2 * (trips >= HOT)


FINAL_STATES = {  # a step, an init, and the state after n trips
    "identity": (lambda s: s, -5, lambda n: -5),
    "negative": (lambda s: s * 1 + -1, 0, lambda n: -n),
    "product": (lambda s: s * -3, -1, lambda n: wrap_i32(-pow(-3, n, 2**32))),
}


@pytest.mark.parametrize("trips", AROUND_HOT)
@pytest.mark.parametrize("kind", FINAL_STATES)
def test_a_hot_iters_state_is_canonical_once_stored(kind, trips, sources):
    step, init, final = FINAL_STATES[kind]
    prog = write_output(hi.Iter(hi.lit(trips), hi.lit(init), step))
    assert _both(prog, hi.LANG) == (None, str(final(trips)), 0)
    assert len(sources) == (trips >= HOT)


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
    # the state is loaded once and stored back once, canonical, and is a
    # residue between trips; the base is v0, the name of the value read
    assert sources == [
        "def loop(env, n):\n"
        "    s2 = env['s2']\n"
        "    v0 = env['v0']\n"
        "    for _ in _repeat(None, n // 4):\n"
        "        s2 = s2 * v0\n"
        "        s2 = s2 * v0\n"
        "        s2 = s2 * v0\n"
        "        s2 = ((s2 * v0) & 0xFFFFFFFF)\n"
        "    for _ in _repeat(None, n % 4):\n"
        "        s2 = ((s2 * v0) & 0xFFFFFFFF)\n"
        "    env['s2'] = (((s2 + 0x80000000) & 0xFFFFFFFF) - 0x80000000)"
    ]


def _deep_step(s):
    # nests deeper than _NEST, so its temporaries repeat in every trip of a pass
    e = s
    for k in range(lo._NEST + 1):
        e = e * s + k
    return e


PASS_STEPS = {
    "square": lambda s: s * s,
    "double": lambda s: s + s,
    "square-plus": lambda s: s * s + s,
    "times-minus-7": lambda s: s * -7,
    "identity": lambda s: s,
    "deep": _deep_step,
}


@pytest.mark.parametrize("trips", PAST_HOT)
@pytest.mark.parametrize("init", [3, -(2**31)])
@pytest.mark.parametrize("kind", PASS_STEPS)
def test_a_hot_i32_iter_run_in_passes_matches_the_reference(kind, init, trips, sources):
    prog = write_output(hi.Iter(hi.lit(trips), hi.lit(init), PASS_STEPS[kind]))
    _both(prog, hi.LANG)
    [text] = sources
    assert "    for _ in _repeat(None, n // 4):\n" in text


def _deep_eq(last, i):
    # both sides are i + _NEST + 1, and each spills a temporary at _NEST:
    # i + _NEST on the left, i + 2 * _NEST on the right, so the Eq reads
    # two temporaries that hold different values
    left = right = i
    for _ in range(lo._NEST + 1):
        left = left + 1
    for _ in range(lo._NEST):
        right = right + 2
    return set_ref(last, lo.Eq(left, right + (1 - lo._NEST)))


@pytest.mark.parametrize("trips", [HOT - 1, HOT, HOT + 1])
def test_a_hot_eq_of_two_operands_deeper_than_nest_matches_the_reference(trips, sources):
    make = lambda last: for_loop(lo.LANG, lo.lit(trips), partial(_deep_eq, last))
    assert _held(make, [False]) == ((None, "", 0), [True])
    assert len(sources) == (trips >= HOT)


def test_a_hot_eq_that_spills_past_nest_has_this_exact_text(sources):
    # the left chain spills its first _NEST additions into _t0 and the right
    # one into _t1, each named by its line's position; the Eq reads both
    # through one more operator each, under the signed wrap
    make = lambda last: for_loop(lo.LANG, lo.lit(HOT), partial(_deep_eq, last))
    assert _held(make, [False]) == ((None, "", 0), [True])
    chain = lambda k: "((" * lo._NEST + "v0" + f" + {k}) & 0xFFFFFFFF)" * lo._NEST
    wrap = hot._WRAP.format
    assert sources == [
        "def loop(env, n):\n"
        "    _r0 = _c1.value\n"
        "    try:\n"
        "        for v0 in range(n):\n"
        f"            _t0 = {chain(1)}\n"
        f"            _t1 = {chain(2)}\n"
        f"            _r0 = ({wrap('_t0 + 1')} == {wrap(f'_t1 + {1 - lo._NEST}')})\n"
        "    finally:\n"
        "        _c1.value = _r0\n"
        "    env['v0'] = n - 1"
    ]


@pytest.mark.parametrize("first", [HOT - 1, HOT])
def test_a_hot_iters_later_runs_of_fewer_trips_than_a_pass_match_the_reference(first, sources):
    # each of the loop's runs reads the Iter's count: first, then 1, 2 and 3
    def body(i):
        iterate = lambda n: hi.Iter(n, hi.lit(5), lambda s: s * s + i)
        return read_input(hi.LANG).bind(lambda n: write_output(iterate(n))).then(print_str(","))

    prog = for_loop(hi.LANG, hi.lit(4), body)
    assert _both(prog, hi.LANG, f"{first}\n1\n2\n3\n")[0] is None
    assert len(sources) == 1


@pytest.mark.parametrize("trips,folds", [(HOT - 1, 1), (HOT, 0)])
def test_an_iter_hot_on_its_first_run_builds_no_closures(trips, folds, monkeypatch, sources):
    folded = []
    mul = lo.FLAT[lo.Mul]

    def counted(*args):
        folded.append(args)
        return mul(*args)

    monkeypatch.setitem(lo.FLAT, lo.Mul, counted)
    prog = write_output(hi.Iter(hi.lit(trips), hi.lit(1), lambda s: s * 3))
    assert run_text(prog, hi.LANG)[1] == str(wrap_i32(pow(3, trips, 2**32)))
    assert len(folded) == folds
    assert len(sources) == (trips >= HOT)


def test_a_body_or_step_python_refuses_is_tried_once(monkeypatch, sources):
    # 3 * HOT one-trip runs of a loop whose body holds an Iter whose step
    # holds a Let, all in one run of an outer loop
    built = []

    class Counted(hot.Source):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(hot, "Source", Counted)
    iterate = lambda i: hi.Iter(hi.lit(1), i, lambda s: hi.Let(s + 1, lambda x: x * 3))
    body = lambda i: for_loop(hi.LANG, hi.lit(1), lambda _j: write_output(iterate(i)))
    prog = for_loop(hi.LANG, hi.lit(3 * HOT), body)
    want = "".join(str(3 * (i + 1)) for i in range(3 * HOT))
    assert _both(prog, hi.LANG) == (None, want, 0)
    # one Source each: the outer loop's, refused by the nested loop; the
    # loop's, refused by the Iter in its body; the Iter's, refused by the Let
    assert len(built) == 3
    assert sources == []


# --------------------------------------------------------------------------
# The native tier: a hot body whose text has run NATIVE trips, summed over
# every run of it in the process, runs as C if it is pure.  The native
# fixture sets NATIVE to SMALL_NATIVE and lists the builds tried; each
# differential runs its body just below, at and just above that count.

SMALL_NATIVE = support.SMALL_NATIVE
AROUND_NATIVE = [SMALL_NATIVE - 1, SMALL_NATIVE, SMALL_NATIVE + 1]


def _built(trips):
    """The builds a loop run once, for trips trips, tries: one, at NATIVE."""
    return [True] * (trips >= SMALL_NATIVE)


@pytest.mark.parametrize("trips", AROUND_NATIVE)
def test_a_native_product_keeps_its_counter_and_names_as_the_last_trip_left_them(trips, native):
    # the body reads its counter; after the loop the program writes the
    # counter and the name the cell was read into, as the last trip left them
    kept, m = [], -(2**31) + 1

    def body(acc, i):
        kept.append(i)
        return get_ref(lo.LANG, acc).bind(lambda v: kept.append(v) or set_ref(acc, v * m + i))

    def make(acc):
        loop = for_loop(lo.LANG, lo.lit(trips), partial(body, acc))
        return loop.bind(lambda _: write_output(kept[-2]).then(write_output(kept[-1])))

    want, acc = "", 1
    for i in range(trips):
        want, acc = f"{i}{acc}", wrap_i32(acc * m + i)
    assert _held(make, [1]) == ((None, want, 0), [acc])
    assert native == _built(trips)


@pytest.mark.parametrize("trips", AROUND_NATIVE)
def test_a_native_boolean_cell_and_name_keep_their_tag(trips, native):
    # the flag holds on the trip where i is 0 and toggles on every other;
    # after the loop the name it was read into is stored in a second cell,
    # and _held checks that both cells hold bools
    kept = []

    def body(flag, i):
        return get_ref(lo.LANG, flag).bind(
            lambda f: kept.append(f) or set_ref(flag, lo.Eq(f, lo.Eq(i * 1 + -1, lo.lit(-1))))
        )

    def make(flag, seen):
        loop = for_loop(lo.LANG, lo.lit(trips), partial(body, flag))
        return loop.bind(lambda _: set_ref(seen, kept[-1]))

    want = trips % 2 == 1
    assert _held(make, [True, True]) == ((None, "", 0), [want, not want])
    assert native == _built(trips)


@pytest.mark.parametrize("inner", [HOT - 1, HOT, HOT + 1])
def test_a_native_leaf_loop_counts_the_trips_of_every_run_of_its_text(inner, native):
    # each of two outer trips makes a cell r and reads a value v by name, and
    # runs the leaf loop over both: its hot runs sum to SMALL_NATIVE on the
    # second at HOT trips a run, and a first run below HOT is not hot
    def leaf(r, v, j):
        return get_ref(lo.LANG, r).bind(lambda x: set_ref(r, x * v + j))

    def outer(c, i):
        return get_ref(lo.LANG, c).bind(
            lambda v: init_ref(i + 3).bind(
                lambda r: for_loop(lo.LANG, lo.lit(inner), partial(leaf, r, v))
                .then(get_ref(lo.LANG, r))
                .bind(lambda x: set_ref(c, x + v))
            )
        )

    make = lambda c: for_loop(lo.LANG, lo.lit(2), partial(outer, c))
    _held(make, [5])
    assert native == [True] * (inner >= HOT)


@pytest.mark.parametrize("trips", [2, 3, 4])
def test_a_native_eq_of_two_operands_deeper_than_nest_matches_the_reference(
    trips, native, monkeypatch
):
    # C nests the whole Eq where Python spills it: built or refused, it
    # agrees.  NATIVE is 3, every loop hot and every run past NATIVE on the
    # kernel, as the reference rebuilds the deep body on every trip
    monkeypatch.setattr(hot, "HOT", 1)
    monkeypatch.setattr(hot, "NATIVE", 3)
    monkeypatch.setattr(hot, "PER_CALL", 1)
    make = lambda last: for_loop(lo.LANG, lo.lit(trips), partial(_deep_eq, last))
    assert _held(make, [False]) == ((None, "", 0), [True])
    assert len(native) == (trips >= 3)


@pytest.mark.parametrize("trips", AROUND_NATIVE)
@pytest.mark.parametrize("lowered", [False, True])
def test_native_power_matches_the_reference(lowered, trips, native):
    prog, lang = (lower_program(power_input()), lo.LANG) if lowered else (power_input(), hi.LANG)
    out = _both(prog, lang, f"-7\n{trips}\n")[1]
    assert out.endswith(f"-7^{trips} = {wrap_i32(pow(-7, trips, 2**32))}.\n")
    assert native == _built(trips)


def test_a_native_run_leaves_no_reference_cycle(native):
    # once the kernels are built, a run that wraps them makes no garbage
    # that only the cyclic collector frees, such as a new ctypes array type
    programs = [(lower_program(power_input()), lo.LANG), (power_input(), hi.LANG)]
    text = f"3\n{SMALL_NATIVE}\n"
    for prog, lang in programs:
        run_text(prog, lang, text)
    gc.collect()
    gc.disable()
    try:
        for prog, lang in programs:
            run_text(prog, lang, text)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert native == [True, True]


@pytest.mark.parametrize("trips", AROUND_NATIVE)
def test_a_native_build_refuses_a_body_that_writes_output(trips, native):
    prog = for_loop(lo.LANG, lo.lit(trips), lambda i: write_output(i * 3))
    assert _both(prog, lo.LANG)[1] == "".join(str(3 * k) for k in range(trips))
    assert native == [False] * (trips >= SMALL_NATIVE)


# --------------------------------------------------------------------------
# A program value's plan: a compiled language stages the top level once per
# program value, on its first run, and later runs perform the kept steps.

def _echo_doubles(lang):
    """Three trips that each read a value and write its double and a comma,
    then a final read written as is: input, output and a hot body's
    generated read and write, at the top level and in a loop."""
    trip = lambda _i: read_input(lang).bind(lambda x: write_output(x * 2)).then(print_str(","))
    return for_loop(lang, lo.lit(3), trip).then(read_input(lang).bind(write_output))


@support.THREE_TIERS
def test_each_run_of_one_program_value_reads_writes_and_counts_its_own_io(tier):
    prog = _echo_doubles(lo.LANG)
    first_in, first_out = io.StringIO("1\n2\n3\n4\n"), io.StringIO()
    assert run(prog, lo.LANG, first_in, first_out) == (None, 4)
    second_in, second_out = io.StringIO("-5\n6\n7\n8\nextra\n"), io.StringIO()
    assert run(prog, lo.LANG, second_in, second_out) == (None, 4)
    # the first run's sink and source are left as that run left them
    assert first_out.getvalue() == "2,4,6,4"
    assert first_in.read() == ""
    assert second_out.getvalue() == "-10,12,14,8"
    assert second_in.read() == "extra\n"


@support.THREE_TIERS
def test_a_prefix_that_runs_out_then_the_full_script_on_one_value(tier):
    # the prefix's InputError stops the first run part-way, inside the loop;
    # the full script then runs the kept steps and stages the rest
    prog = _echo_doubles(lo.LANG)
    for text in ["1\n2\n", "1\n2\n3\n4\n", "1\nx\n", "1\n2\n3\n4\n"]:
        assert outcome(prog, lo.LANG, text) == outcome(prog, support.REFERENCE, text), text


class _Opaque(lo.Lit):
    """A literal no rule table knows, so no step can compile it."""


def _raises(_result):
    raise DslError("continuation raised")


@pytest.mark.parametrize("last", [
    lambda: write_output(_Opaque(3, TypeTag.I32)).then(print_str("!")),  # no step can be built
    lambda: print_str("!").bind(_raises),  # the continuation after it raises
], ids=["unbuilt-step", "raising-continuation"])
def test_a_run_stopped_while_staging_leaves_the_plan_to_stop_there_again(last):
    # every run of the value, the first that stages and the later ones that
    # go on from where it stopped, writes its own output, then raises where
    # the reference does ("cannot compile" there is "cannot evaluate")
    prog = print_str("a").then(read_input(lo.LANG)).bind(lambda x: write_output(x)).then(last())
    for text, error in [("5\n", "DslError"), ("6\n", "DslError"), ("", "InputError")]:
        got, want = (outcome(prog, lang, text) for lang in [lo.LANG, support.REFERENCE])
        assert (got[0], got[2]) == (want[0], want[2]) == (error, want[2]), text


def _results(lang):
    """Programs whose results hold a value read, a cell, the value read as
    an expression and an expression over it."""
    read = lambda: read_input(lang)
    return {
        "value": ReadInput,
        "cell": lambda: init_ref(lo.lit(5)).bind(
            lambda r: read().bind(lambda x: set_ref(r, x * 3)).then(ret(r))
        ),
        "expression": read,
        "expression-over-it": lambda: read().bind(lambda x: ret(hi.Not(hi.Eq(x * 3 + 1, x)))),
    }


@support.THREE_TIERS
@pytest.mark.parametrize("kind", ["value", "cell", "expression", "expression-over-it"])
def test_a_runs_result_is_read_back_as_the_reference_gives_it(kind, tier):
    prog = print_str("> ").then(_results(lo.LANG)[kind]())
    want = outcome(prog, support.REFERENCE, "7\n")
    for text in ["7\n", "-4\n"]:  # a first run stages; a second runs the plan
        got = outcome(prog, lo.LANG, text)
        if text != "7\n":
            want = outcome(prog, support.REFERENCE, text)
        if kind == "cell":  # a cell is equal only to itself, so compare what it holds
            (cell, *rest), (want_cell, *want_rest) = got, want
            assert (type(cell), cell.tag, cell.value, rest) == (
                ConcreteRef, want_cell.tag, want_cell.value, want_rest
            )
        else:
            assert got == want


@support.THREE_TIERS
def test_power_with_three_bases_compiles_one_hot_text_each_way(tier, monkeypatch, sources):
    # a read value is a name in a hot text, not a literal, so three fresh
    # programs with three bases share one text, direct and lowered alike
    monkeypatch.setattr(hot, "HOT", 1)
    for lang, make in [(hi.LANG, power_input), (lo.LANG, lambda: lower_program(power_input()))]:
        sources.clear()
        for m in [3, -7, 12345]:
            out = run_text(make(), lang, f"{m}\n5\n")[1]
            assert out.endswith(f"{m}^5 = {wrap_i32(m**5)}.\n")
        assert len(sources) == 1
    if tier is not None:  # native: one kernel, built once, for each way
        assert tier == [True, True]


def _counting(monkeypatch, names):
    """Count the calls of each named function of the package, wherever a
    module holds it, as the benchmark's tracer does."""
    import sys

    calls = dict.fromkeys(names, 0)
    for name in names:
        module, attr = name.rsplit(".", 1)
        original = getattr(sys.modules[f"stagedsl.{module}"], attr)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.startswith("stagedsl")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


STAGING = [
    "core.statements", "lowexpr.fold", "lowexpr.compile_open", "hot.loop_body", "hot.iter_step",
]


def test_the_second_and_third_runs_of_a_program_value_stage_nothing(monkeypatch, sources):
    # what the benchmark's traced passes check: each pass after the first
    # does the same work, so none may stage, fold or generate a text; a loop
    # of fewer than HOT trips a run stays on its steps however often it runs
    body = lambda r: lambda i: modify_ref(lo.LANG, r, lambda x: x * 3 + i)
    cold = init_ref(lo.lit(1)).bind(
        lambda r: for_loop(lo.LANG, lo.lit(HOT - 1), body(r)).then(
            get_ref(lo.LANG, r).bind(write_output)
        )
    )
    cases = [(cold, lo.LANG, ""), (power_input(), hi.LANG, f"3\n{3 * HOT}\n")]
    cases.append((lower_program(power_input()), lo.LANG, f"3\n{3 * HOT}\n"))
    cases += [(gp.program, hi.LANG, gp.input_text) for gp in corpus(seed=7, size=40)]
    calls = _counting(monkeypatch, STAGING)
    for prog, lang, text in cases:
        first = run_text(prog, lang, text)
        counted = dict(calls)
        assert run_text(prog, lang, text) == run_text(prog, lang, text) == first
        assert calls == counted
    # the cold loop never generated a text, and each power program one
    assert len(sources) == 2


def test_a_one_shot_run_leaves_no_reference_cycle():
    # a plan holds no step that holds it back, so a program run once, and
    # its plan, are freed without the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for lang, make in [(hi.LANG, power_input), (lo.LANG, lambda: lower_program(power_input()))]:
            for text in ["3\n4\n", f"3\n{3 * HOT}\n"]:
                run_text(make(), lang, text)
        for gp in corpus(seed=7, size=20):
            run_text(lower_program(gp.program), lo.LANG, gp.input_text)
        assert gc.collect() == 0
    finally:
        gc.enable()
