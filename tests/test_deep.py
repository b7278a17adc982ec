"""Expressions 10^4 deep: every consumer folds them without recursion.

The trees come from support.deep_tree, whose oracle and printer are loops,
and are checked against evaluation, rendering, all four lowerings, direct
runs with and without staging, pseudo-code and strict C.  Loop nests are
listed and printed without recursion too; a staged run nests loops one
Python frame a level.  Each case fails after LIMIT seconds where the
platform has SIGALRM, since a fault that makes a walk quadratic in the
depth can make a case run for minutes; elsewhere cases run unbounded.
"""

import dataclasses
import signal
import sys

import pytest

import support
from c_differential import disagreement
from stagedsl import highexpr as hi
from stagedsl import hot
from stagedsl import lowexpr as lo
from stagedsl.cgen import emit_c, have_c_compiler
from stagedsl.core import (
    DslError, Ret, Scope, TypeTag, for_loop, get_ref, init_ref, listing, print_str, ret,
    write_output,
)
from stagedsl.pseudo import render_program
from stagedsl.runtime import run_text
from stagedsl.translate import lower_expr, lower_program

LIMIT = 60  # seconds per case


@pytest.fixture(autouse=True)
def bounded():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(_signum, _frame):
        pytest.fail(f"ran past {LIMIT} s, which no case of 10^4-deep trees needs", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _program(tree):
    """Keep the tree in a cell, write it when it is an i32, and yield the
    literal read back, so boolean trees are observable too."""

    def show(v):
        return (write_output(v) if v.tag is TypeTag.I32 else ret()).then(ret(v))

    return init_ref(tree).bind(lambda r: get_ref(hi.LANG, r).bind(show))


def _expected(deep):
    return "" if isinstance(deep.value, bool) else str(deep.value)


def _listing(deep):
    """The pseudo-code of _program over a tree with no Let or Iter."""
    lines = [f"r0 <- initRef {deep.text}", "v1 <- getRef r0"]
    if not isinstance(deep.value, bool):
        lines.append("writeOutput v1")
    return "".join(f"    {line}\n" for line in lines)


@pytest.mark.parametrize("shape", support.DEEP_SHAPES)
def test_deep_trees_evaluate_render_lower_and_run(shape):
    deep = support.deep_tree(1, shape)
    assert hi.eval_closed(deep.tree) == deep.value
    if deep.text is None:
        with pytest.raises(DslError):
            lo.render(deep.tree)
    else:
        assert lo.render(deep.tree) == deep.text
        # a tree with no Let or Iter lowers to itself, with no instructions
        lowered = lower_expr(deep.tree)
        assert isinstance(lowered, Ret)
        assert lo.render(lowered.value) == deep.text

    prog = _program(deep.tree)
    for config, lang in [
        (None, hi.LANG),
        (None, support.REFERENCE),
        *((config, lo.LANG) for config in support.CONFIGS),
    ]:
        low = prog if config is None else lower_program(prog, config)
        result, out, reads = run_text(low, lang)
        assert (result.value, out, reads) == (deep.value, _expected(deep), 0)
        if config is not None:
            listing = render_program(low)
            assert deep.text is None or listing == _listing(deep)


@pytest.mark.parametrize("shape", support.DEEP_SHAPES)
def test_deep_trees_compile_as_strict_c_that_matches_the_interpreter(shape, tmp_path):
    if not have_c_compiler():
        pytest.skip("no C compiler on PATH")
    deep = support.deep_tree(2, shape)
    prog = _program(deep.tree)
    compiled = set()
    for cfg in support.CONFIGS:
        low = lower_program(prog, cfg)
        source = emit_c(low)
        if source in compiled:
            continue  # configs that lower a tree alike give the same C
        compiled.add(source)
        _, want, _ = run_text(low, lo.LANG)
        assert want == _expected(deep)
        assert disagreement(low, "", tmp_path) is None


def test_compiled_deep_trees_agree_with_the_reference():
    deep = support.deep_tree(4, "let-shared", depth=300)
    assert hi.compile_open(deep.tree, Scope())({}) == deep.value
    # compiled closures nest only so deep, so a 10^4-deep tree runs too
    deep = support.deep_tree(4, "let-body")
    assert hi.compile_open(deep.tree, Scope())({}) == deep.value


@pytest.mark.usefixtures("tier")
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_deep_chain_in_a_loop_body_runs_as_in_the_reference(side):
    def body(i):
        e = i
        for k in range(support.DEEP):
            e = e + k if side == "left" else k + e
        return write_output(e).then(print_str(";"))

    prog = for_loop(hi.LANG, hi.lit(2), body)
    want = run_text(prog, support.REFERENCE)
    assert want == (None, "49995000;49995001;", 0)
    assert run_text(prog, hi.LANG) == want


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_deep_chain_in_a_hot_loop_body_runs_as_generated_source(side, sources):
    # as above, but for _HOT trips, so the body runs as generated source,
    # whose text must stay within CPython's nesting limits; the reference,
    # which rebuilds the chain on every trip, is left to the test above
    def body(i):
        e = i
        for k in range(support.DEEP):
            e = e + k if side == "left" else k + e
        return write_output(e).then(print_str(";"))

    prog = for_loop(hi.LANG, hi.lit(hot.HOT), body)
    want = "".join(f"{49995000 + i};" for i in range(hot.HOT))
    assert run_text(prog, hi.LANG) == (None, want, 0)
    assert len(sources) == 1


def test_the_tag_of_a_deep_let_nest_is_read_without_recursion():
    assert support.deep_tree(5, "let-body").tree.tag is TypeTag.I32
    assert support.deep_tree(5, "let-shared").tree.tag is TypeTag.I32
    boolean = hi.Let(hi.lit(1), lambda x: hi.Eq(x, x))
    for _ in range(support.DEEP):
        boolean = hi.Let(boolean, lambda b: hi.Not(b))
    assert boolean.tag is TypeTag.BOOL


def test_printers_reject_a_let_under_a_deep_chain_by_class_name():
    e = hi.Let(hi.lit(1), lambda x: x + 1)
    for _ in range(support.DEEP):
        e = e + 1
    with pytest.raises(DslError, match="Let"):
        lo.render(e)
    with pytest.raises(DslError, match="Let"):
        emit_c(write_output(e))


def test_every_consumer_rejects_a_class_it_has_no_rule_for():
    @dataclasses.dataclass(frozen=True)
    class Neg(lo.Expr):
        operand: lo.Expr
        tag = TypeTag.I32
        operands = ("operand",)

    e = Neg(lo.lit(1))
    for consume in (
        lo.eval_closed,
        lambda e: lo.compile_open(e, Scope()),
        lo.render,
        lower_expr,
        lambda e: emit_c(write_output(e)),
    ):
        with pytest.raises(DslError, match="Neg"):
            consume(e)


def test_a_deep_iter_nest_in_init_position_builds_evaluates_and_lowers():
    e = hi.lit(1)
    for _ in range(support.DEEP):
        e = hi.Iter(hi.lit(1), e, lambda s: s + 1)
    assert e.tag is TypeTag.I32
    assert hi.eval_closed(e) == support.DEEP + 1
    prog = write_output(e)
    assert run_text(prog, hi.LANG)[1] == str(support.DEEP + 1)
    assert run_text(lower_program(prog), lo.LANG)[1] == str(support.DEEP + 1)


def _loop_nest(depth):
    prog = print_str("x")
    for _ in range(depth):
        prog = for_loop(lo.LANG, lo.lit(1), lambda _i, body=prog: body)
    return prog


def test_a_deep_loop_nest_is_listed_and_printed_without_recursion():
    # the listing at 10^4 levels; the printed texts grow as the square of
    # the depth, by their indentation (400 MB each at 10^4 levels), so they
    # are checked at three times the default recursion limit
    kinds = [(k + 1, "ForLoop", f"v{k}") for k in range(support.DEEP)]
    kinds += [(support.DEEP + 1, "PrintStr", None)]
    kinds += [(k, None, None) for k in range(support.DEEP, 0, -1)]
    entries = listing(_loop_nest(support.DEEP), Scope())
    assert [(d, cmd and type(cmd).__name__, name) for d, cmd, name in entries] == kinds

    depth = 3_000
    pad = ["    " * (k + 1) for k in range(depth + 1)]
    pseudo = [f"{pad[k]}for v{k} < 1" for k in range(depth)] + [f'{pad[depth]}printStr "x"']
    pseudo += [f"{pad[k]}end for" for k in reversed(range(depth))]
    names = [f"v{k}" for k in range(depth)]
    c = ["#include <stdint.h>", "#include <stdio.h>", "", "int main(void)", "{"]
    c += [f"    int32_t {v} = 0;" for v in names] + [""]
    c += [f"{pad[k]}for ({v} = 0; {v} < 1; {v}++) {{" for k, v in enumerate(names)]
    c += [f'{pad[depth]}printf("x");'] + [f"{pad[k]}}}" for k in reversed(range(depth))]
    c += [f"    (void){v};" for v in names] + ["    return 0;", "}"]
    prog = _loop_nest(depth)
    for printed in (prog, lower_program(prog)):
        assert render_program(printed) == "".join(line + "\n" for line in pseudo)
        assert emit_c(printed) == "\n".join(c) + "\n"


@pytest.mark.usefixtures("tier")
@support.THREE_TIERS
def test_a_staged_run_nests_800_loops_under_the_default_recursion_limit():
    # a staged loop's step calls the step of the loop nested in it, so each
    # level costs one Python frame, which leaves room for about 989 levels;
    # a second frame a level would halve that
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        assert run_text(_loop_nest(800), lo.LANG) == (None, "x", 0)
    finally:
        sys.setrecursionlimit(limit)
