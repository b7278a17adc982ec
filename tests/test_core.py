"""Program trees, the generic fold, the front end, and operand translation."""

import dataclasses
import gc

import pytest

import support
from stagedsl import core, highexpr as hi, lowexpr as lo, randprog
from stagedsl.cgen import emit_c
from stagedsl.core import (
    Bind,
    ConcreteRef,
    ConcreteVal,
    DslError,
    ForLoop,
    GetRef,
    Instr,
    Ret,
    Scope,
    SetRef,
    StageError,
    SymbolicRef,
    SymbolicVal,
    TagError,
    TypeTag,
    for_loop,
    get_ref,
    init_ref,
    interpret,
    modify_ref,
    print_str,
    read_input,
    reexpress,
    ret,
    seq,
    set_ref,
    val_to_exp,
    write_output,
)
from stagedsl.examples import EXAMPLES, power_input
from stagedsl.pseudo import render_program
from stagedsl.runtime import run_text
from stagedsl.translate import lower_program


def test_ret_produces_its_value_without_effects():
    result, out, reads = run_text(ret(7), lo.LANG)
    assert (result, out, reads) == (7, "", 0)
    assert render_program(ret(None)) == ""


def test_bind_feeds_results_forward():
    prog = read_input(lo.LANG).bind(write_output)
    _, out, reads = run_text(prog, lo.LANG, "42\n")
    assert out == "42"
    assert reads == 1


def test_bind_rebracketing_is_invisible():
    first = core.ReadInput()

    def f(val):
        e = val_to_exp(lo.LANG, val)
        return write_output(e).then(Ret(e))

    def g(e):
        return write_output(lo.Add(e, lo.lit(1)))

    left = Bind(Bind(first, f), g)
    right = Bind(first, lambda v: Bind(f(v), g))
    assert run_text(left, lo.LANG, "5\n") == run_text(right, lo.LANG, "5\n")
    assert run_text(left, lo.LANG, "5\n")[1] == "56"


def test_binding_a_returned_value_applies_the_continuation_at_once():
    rest = print_str("x")
    seen = []
    assert ret(3).bind(lambda x: seen.append(x) or rest) is rest
    assert seen == [3]
    assert ret(3).then(rest) is rest
    assert isinstance(core.ReadInput().bind(lambda _x: rest), Bind)
    assert isinstance(rest.then(rest).bind(lambda _x: rest), Bind)


def test_seq_runs_in_order_and_returns_the_last_result():
    prog = seq(print_str("a"), print_str("b"), ret(3))
    assert run_text(prog, lo.LANG) == (3, "ab", 0)
    assert run_text(seq(), lo.LANG) == (None, "", 0)


def test_interpret_counting_handler_matches_fold_oracle():
    programs = [
        ret(None),
        print_str("x"),
        seq(print_str("a"), write_output(lo.lit(1)), print_str("b")),
        init_ref(lo.lit(0)).bind(
            lambda r: for_loop(
                lo.LANG, lo.lit(3), lambda _i: modify_ref(lo.LANG, r, lambda x: x + 1)
            ).then(get_ref(lo.LANG, r).bind(write_output))
        ),
        for_loop(
            lo.LANG,
            lo.lit(2),
            lambda _i: for_loop(lo.LANG, lo.lit(2), lambda _j: print_str("*")),
        ),
    ]
    for prog in programs:
        handler = support.CountingHandler()
        interpret(handler, prog)
        assert handler.count == support.fold_count(prog)


def test_right_nesting_preserves_runtime_and_emitted_text():
    prog = init_ref(lo.lit(10)).bind(
        lambda r: seq(
            print_str("start"),
            read_input(lo.LANG).bind(lambda n: set_ref(r, n + 1)),
            get_ref(lo.LANG, r).bind(write_output),
        )
    )
    rotated = support.right_nest(prog)
    assert run_text(prog, lo.LANG, "8\n") == run_text(rotated, lo.LANG, "8\n")
    assert render_program(prog) == render_program(rotated)


def test_for_loop_counts_up_from_zero():
    prog = for_loop(lo.LANG, lo.lit(4), write_output)
    assert run_text(prog, lo.LANG)[1] == "0123"


@pytest.mark.parametrize("bound", [0, -1, -100])
def test_for_loop_non_positive_bound_never_runs_the_body(bound):
    prog = for_loop(lo.LANG, lo.lit(bound), lambda _i: print_str("boom"))
    assert run_text(prog, lo.LANG)[1] == ""


def test_modify_ref_reads_then_writes():
    prog = init_ref(lo.lit(0)).bind(
        lambda r: seq(
            modify_ref(lo.LANG, r, lambda x: x + 1),
            modify_ref(lo.LANG, r, lambda x: x + 1),
            modify_ref(lo.LANG, r, lambda x: x + 1),
            get_ref(lo.LANG, r).bind(write_output),
        )
    )
    assert run_text(prog, lo.LANG)[1] == "3"


def test_get_ref_yields_a_usable_expression():
    prog = init_ref(lo.lit(5)).bind(lambda r: get_ref(lo.LANG, r).bind(write_output))
    assert run_text(prog, lo.LANG)[1] == "5"


def test_val_to_exp_injects_into_each_language():
    assert val_to_exp(lo.LANG, ConcreteVal(TypeTag.I32, 3)) == lo.Lit(3, TypeTag.I32)
    assert val_to_exp(lo.LANG, SymbolicVal(TypeTag.BOOL, "v3")) == lo.Var("v3", TypeTag.BOOL)
    assert val_to_exp(hi.LANG, ConcreteVal(TypeTag.BOOL, True)) == hi.Lit(True, TypeTag.BOOL)
    assert val_to_exp(hi.LANG, SymbolicVal(TypeTag.I32, "v0")) == hi.Var("v0", TypeTag.I32)


@pytest.mark.parametrize("lang", [lo.LANG, hi.LANG])
def test_eval_of_injected_constant_is_identity(lang):
    assert lang.eval_closed(lang.const(-17, TypeTag.I32)) == -17
    assert lang.eval_closed(lang.const(True, TypeTag.BOOL)) is True


def test_set_ref_tag_mismatch_fails_at_construction():
    cell = ConcreteRef(TypeTag.I32, 0)
    with pytest.raises(TagError):
        set_ref(cell, lo.lit(True))
    with pytest.raises(TagError):
        SetRef(cell, lo.lit(False))


def test_tag_mismatch_inside_a_continuation_fails_before_the_instruction_runs():
    prog = init_ref(lo.lit(0)).bind(lambda r: set_ref(r, lo.lit(True)))
    with pytest.raises(TagError):
        run_text(prog, lo.LANG)


def test_write_and_for_insist_on_i32():
    with pytest.raises(TagError):
        write_output(lo.lit(True))
    with pytest.raises(TagError):
        for_loop(lo.LANG, lo.lit(False), lambda _i: ret(None))


@pytest.mark.parametrize("text", [5, b"x", "\ud800"])
def test_print_str_refuses_what_is_not_utf8_text_at_construction(text):
    with pytest.raises(TagError, match="printStr: needs text that encodes as UTF-8"):
        print_str(text)


def test_cross_stage_values_are_internal_errors():
    with pytest.raises(StageError):
        run_text(GetRef(SymbolicRef(TypeTag.I32, "r0")), lo.LANG)
    with pytest.raises(StageError):
        render_program(GetRef(ConcreteRef(TypeTag.I32, 5)))


def test_scope_is_the_one_ordered_list_of_generated_names_and_tags():
    scope = Scope()
    made = [
        scope.fresh("r", TypeTag.I32),
        scope.fresh("v", TypeTag.BOOL),
        scope.fresh("x", TypeTag.I32),
        scope.fresh("s", TypeTag.BOOL),
    ]
    assert made == ["r0", "v1", "x2", "s3"]
    assert scope.names == list(zip(made, [TypeTag.I32, TypeTag.BOOL] * 2))
    assert all(name in scope for name in made)
    # same text as a generated name, but not made by the scope
    lookalike = "".join(["v", "1"])
    assert lookalike == made[1] and lookalike is not made[1]
    assert lookalike not in scope


def _one_of_each_instruction():
    cell = SymbolicRef(TypeTag.I32, "r0")
    return [
        core.InitRef(lo.lit(1)),
        GetRef(cell),
        SetRef(cell, lo.lit(2)),
        core.ReadInput(),
        core.WriteOutput(lo.lit(3)),
        core.PrintStr("a"),
        ForLoop(lo.lit(2), lambda _v: ret()),
    ]


def test_interpret_hands_the_handler_the_instruction_node_itself():
    for node in _one_of_each_instruction():
        seen = []
        assert interpret(lambda cmd: seen.append(cmd) or 5, node.bind(Ret)) == 5
        assert len(seen) == 1 and seen[0] is node


def test_statements_names_results_in_order_and_never_enters_a_loop_body():
    def body(_counter):
        raise AssertionError("body built")

    got = []  # what each continuation is passed

    def then(make):
        return lambda result: got.append(result) or make(result)

    prog = core.InitRef(lo.lit(True)).bind(then(GetRef))
    prog = prog.bind(then(lambda _v: ForLoop(lo.lit(2), body)))
    prog = prog.bind(then(lambda _none: core.ReadInput())).bind(then(lambda _v: print_str("a")))
    prog = prog.bind(then(Ret))
    scope = Scope()
    walk = core.statements(prog, scope)
    first = [next(walk) for _ in range(3)]
    assert [(type(cmd), name) for cmd, name in first] == [
        (core.InitRef, "r0"), (GetRef, "v1"), (ForLoop, "v2"),
    ]
    # the walk pauses at the loop, before its continuation is called
    assert got == [SymbolicRef(TypeTag.BOOL, "r0"), SymbolicVal(TypeTag.BOOL, "v1")]
    rest = [(type(cmd), name) for cmd, name in walk]
    assert rest == [(core.ReadInput, "v3"), (core.PrintStr, None)]
    assert got[2:] == [None, SymbolicVal(TypeTag.I32, "v3"), None]
    assert scope.names == [
        ("r0", TypeTag.BOOL), ("v1", TypeTag.BOOL), ("v2", TypeTag.I32), ("v3", TypeTag.I32),
    ]


@pytest.mark.parametrize("order", [1, -1], ids=["pseudo-first", "c-first"])
def test_both_printers_print_one_walk_of_a_program_value(order):
    printers = [render_program, emit_c][::order]
    builds = []

    def program():
        def body(i):
            builds.append(i)
            return write_output(hi.Let(i, lambda x: x + 1))

        return lower_program(print_str("n").then(for_loop(hi.LANG, hi.lit(2), body)))

    prog = program()
    texts = [printer(prog) for printer in printers]
    assert [printer(prog) for printer in printers] == texts
    assert len(builds) == 1
    # byte-equal to the texts of an identical program that was never printed
    assert [printer(program()) for printer in printers] == texts


def test_a_walk_that_raises_raises_from_every_printer():
    prog = print_str("n").then(for_loop(lo.LANG, lo.lit(2), lambda i: write_output(lo.Eq(i, i))))
    for printer in [render_program, emit_c, render_program]:
        with pytest.raises(TagError):
            printer(prog)


def test_printing_leaves_no_reference_cycle():
    # a Bind root keeps its listing; an instruction root, which its own
    # listing holds, must not, or root and listing would hold each other
    roots = [
        lambda: write_output(lo.lit(1)),
        lambda: for_loop(lo.LANG, lo.lit(2), write_output),
        lambda: lower_program(power_input()),
    ]
    gc.collect()
    gc.disable()
    try:
        for make in roots:
            prog = make()
            render_program(prog)
            emit_c(prog)
            del prog
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_constructors_that_only_construct_are_the_node_classes():
    r = SymbolicRef(TypeTag.I32, "r0")
    cases = [
        (init_ref, (lo.lit(1),), core.InitRef),
        (set_ref, (r, lo.lit(1)), SetRef),
        (write_output, (lo.lit(1),), core.WriteOutput),
        (print_str, ("a",), core.PrintStr),
        (ret, (4,), Ret),
    ]
    for make, args, cls in cases:
        assert make is cls
        node = make(*args)
        assert isinstance(node, cls) and isinstance(node, core.Program)
    assert ret() == Ret(None)


def test_reexpress_passes_operandless_instructions_through_as_they_are():
    nodes = _one_of_each_instruction()
    for node in nodes[1::2]:  # GetRef, ReadInput, PrintStr
        assert reexpress(lambda e: ret(e), node) is node
    for node in nodes[0:6:2]:  # InitRef, SetRef, WriteOutput: rebuilt, equal
        same = reexpress(lambda e: ret(e), node)
        assert same == node and same is not node


def test_interpret_refuses_a_non_program_node():
    with pytest.raises(DslError, match="not a program node"):
        interpret(lambda _cmd: None, print_str("a").then("nope"))


@pytest.mark.parametrize("printer", [render_program, emit_c])
def test_the_printers_refuse_a_non_program_node(printer):
    with pytest.raises(DslError, match="not a program node"):
        printer("nope")


def test_val_to_exp_refuses_a_non_value():
    with pytest.raises(StageError, match="not a value"):
        val_to_exp(lo.LANG, 3)


def test_reexpress_refuses_a_non_program_node():
    with pytest.raises(DslError, match="not a program node"):
        reexpress(ret, "nope")


def test_reexpress_refuses_a_non_instruction():
    with pytest.raises(DslError, match="not an instruction"):
        reexpress(ret, Instr())


def test_reexpress_with_identity_translation_preserves_behaviour():
    prog = init_ref(lo.lit(2)).bind(
        lambda r: for_loop(
            lo.LANG, lo.lit(3), lambda _i: modify_ref(lo.LANG, r, lambda x: x * 2)
        ).then(get_ref(lo.LANG, r).bind(write_output))
    )
    same = reexpress(lambda e: ret(e), prog)
    assert run_text(same, lo.LANG) == run_text(prog, lo.LANG)
    assert render_program(same) == render_program(prog)


def test_reexpress_setup_instructions_come_before_their_consumer():
    def noisy_identity(e):
        return print_str("setup;").then(ret(e))

    prog = write_output(lo.lit(1))
    _, out, _ = run_text(reexpress(noisy_identity, prog), lo.LANG)
    assert out == "setup;1"
    lines = render_program(reexpress(noisy_identity, prog)).splitlines()
    assert [ln.strip() for ln in lines] == ['printStr "setup;"', "writeOutput 1"]


def test_reexpress_translates_the_loop_bound_once():
    translated = []

    def recording_identity(e):
        translated.append(e)
        return ret(e)

    prog = for_loop(lo.LANG, lo.lit(2), write_output)
    run_text(reexpress(recording_identity, prog), lo.LANG)
    assert translated.count(lo.lit(2)) == 1
    # the body is staged once, so the written counter is translated once
    assert len(translated) == 2


def test_instructions_pass_through_reexpress_in_order():
    prog = seq(
        print_str("a"),
        read_input(lo.LANG).bind(write_output),
        print_str("b"),
    )
    same = reexpress(lambda e: ret(e), prog)
    assert run_text(same, lo.LANG, "9\n") == run_text(prog, lo.LANG, "9\n")
    assert support.fold_count(same) == support.fold_count(prog)


def test_the_package_api_the_benchmark_reads_stays():
    # perfbench/ reads an instruction's cmd, hands loop bodies concrete
    # counters, swaps the evaluator and renderer, builds GeneratedProgram
    node = print_str("a")
    assert node.cmd is node
    seen = []
    for_loop(lo.LANG, lo.lit(3), seen.append).body(ConcreteVal(TypeTag.I32, 2))
    assert seen == [lo.Lit(2, TypeTag.I32)]
    calls = []
    lang = dataclasses.replace(
        lo.LANG,
        eval_closed=lambda e: calls.append("eval") or 4,
        render=lambda e, scope: calls.append("render") or "four",
        compile=None,
    )
    prog = write_output(lo.lit(1))
    assert run_text(prog, lang)[1] == "4" and calls == ["eval"]
    assert render_program(prog, lang) == "    writeOutput four\n" and calls == ["eval", "render"]
    # a staged run compiles its closed expressions instead
    staged = dataclasses.replace(lang, compile=lo.LANG.compile)
    assert run_text(prog, staged)[1] == "1" and calls == ["eval", "render"]
    gp = randprog.GeneratedProgram(prog, "5\n", 1)
    assert (gp.program, gp.input_text, gp.max_reads) == (prog, "5\n", 1)


def test_no_interpretation_changes_a_shared_example():
    # Records are plain, assignable dataclasses and every caller shares
    # EXAMPLES, so each record on an example's top-level Bind spine, and
    # each expression operand it holds, must keep its field values.  Fields,
    # not vars(): a Let caches its tag lazily.
    def field_values(record):
        return tuple(getattr(record, f.name) for f in dataclasses.fields(record))

    def records(prog):
        todo = [prog]
        while todo:
            record = todo.pop()
            yield record
            todo += [v for v in field_values(record) if isinstance(v, (core.Program, lo.Expr))]

    stdin = "3\n4\n5\n6\n"  # enough for every example
    for name, prog in EXAMPLES.items():
        before = [(record, field_values(record)) for record in records(prog)]
        assert len(before) > 2, name
        run_text(prog, hi.LANG, stdin)
        for config in support.CONFIGS:
            low = lower_program(prog, config)
            run_text(low, lo.LANG, stdin)
            render_program(low)
            emit_c(low)
        assert [field_values(record) for record, _ in before] == [v for _, v in before], name
