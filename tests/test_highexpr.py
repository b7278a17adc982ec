"""The rich expression language and its reference evaluator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from stagedsl import highexpr as hi
from stagedsl.core import Scope, TagError, TypeTag, UnboundVariableError, wrap_i32

templates = st.recursive(
    st.one_of(st.just(("hole",)), st.integers(-50, 50).map(lambda v: ("lit", v))),
    lambda kids: st.tuples(st.sampled_from(["add", "mul"]), kids, kids),
    max_leaves=8,
)


def test_iter_applies_the_step_count_times():
    e = hi.Iter(hi.lit(4), hi.lit(1), lambda x: x * 3)
    assert hi.eval_closed(e) == 81


def test_iter_zero_or_negative_count_yields_init():
    assert hi.eval_closed(hi.Iter(hi.lit(0), hi.lit(9), lambda x: x + 1)) == 9
    assert hi.eval_closed(hi.Iter(hi.lit(-2), hi.lit(9), lambda x: x + 1)) == 9


def test_iter_wraps_like_everything_else():
    e = hi.Iter(hi.lit(32), hi.lit(1), lambda x: x * 2)
    assert hi.eval_closed(e) == wrap_i32(2**32)


def test_let_binds_the_shared_value():
    assert hi.eval_closed(hi.Let(hi.lit(5), lambda x: x + x)) == 10


def test_let_can_change_the_result_tag():
    e = hi.Let(hi.lit(3), lambda x: hi.Eq(x, hi.lit(3)))
    assert e.tag is TypeTag.BOOL
    assert hi.eval_closed(e) is True


def test_iter_state_can_be_boolean():
    e = hi.Iter(hi.lit(3), hi.lit(True), hi.Not)
    assert hi.eval_closed(e) is False


def test_iter_rejects_bad_tags():
    with pytest.raises(TagError):
        hi.Iter(hi.lit(True), hi.lit(0), lambda x: x)
    with pytest.raises(TagError):
        hi.Iter(hi.lit(3), hi.lit(0), lambda x: hi.Eq(x, x))


def test_nested_binders_evaluate_inside_out():
    e = hi.Let(
        hi.lit(2),
        lambda a: hi.Iter(hi.lit(3), a, lambda s: s * a),
    )
    # 2 * 2^3
    assert hi.eval_closed(e) == 16


@given(st.integers(0, 20), st.integers(-(2**31), 2**31 - 1), templates)
def test_iter_matches_the_fold_oracle(n, init, template):
    e = hi.Iter(hi.lit(n), hi.lit(init), lambda x: support.template_to_high(template, x))
    assert hi.eval_closed(e) == support.iter_oracle(n, init, template)


@given(st.integers(-10, 10), templates)
def test_let_is_referentially_transparent_for_closed_sharing(shared, template):
    body = lambda x: support.template_to_high(template, x)
    direct = hi.eval_closed(body(hi.lit(shared)))
    assert hi.eval_closed(hi.Let(hi.lit(shared), body)) == direct


def _compiled(e):
    return hi.compile_open(e, Scope())({})


@given(st.integers(-3, 20), st.integers(-(2**31), 2**31 - 1), templates)
def test_compiled_iter_matches_the_fold_oracle(n, init, template):
    e = hi.Iter(hi.lit(n), hi.lit(init), lambda x: support.template_to_high(template, x))
    assert _compiled(e) == support.iter_oracle(n, init, template)


@given(st.integers(-10, 10), templates)
def test_compiled_let_matches_the_reference_evaluator(shared, template):
    e = hi.Let(hi.lit(shared), lambda x: support.template_to_high(template, x))
    assert _compiled(e) == hi.eval_closed(e)


def test_compiled_binders_build_their_bodies_once():
    built = []

    def step(s):
        built.append(s)
        return s * 3

    e = hi.Let(hi.lit(2), lambda a: hi.Iter(hi.lit(3), a, lambda s: step(s) + a))
    compiled = hi.compile_open(e, Scope())
    assert compiled({}) == compiled({}) == 80  # 2 -> 8 -> 26 -> 80
    # the Let body once, hence one Iter, whose tag check and compilation
    # each build the step once
    assert len(built) == 2


def test_compiled_binders_leave_a_programs_own_variables_unbound():
    # x0 is the name compilation generates for the Let
    e = hi.Let(hi.lit(1), lambda x: x + hi.Var("x0", TypeTag.I32))
    compiled = hi.compile_open(e, Scope())
    with pytest.raises(UnboundVariableError, match="x0"):
        compiled({})


# --------------------------------------------------------------------------
# The rich language is the core plus Let and Iter, not a copy of the core.

def test_core_nodes_and_lit_are_the_low_languages_own():
    from stagedsl import lowexpr as lo

    for name in ("Var", "Lit", "Add", "Mul", "Not", "Eq", "lit"):
        assert getattr(hi, name) is getattr(lo, name)
    assert hi.lit(3) == lo.lit(3)


def test_evaluators_and_language_record_are_the_low_languages_own():
    """highexpr adds node classes and their rules, not a second Language."""
    from stagedsl import lowexpr as lo

    assert hi.eval_closed is lo.eval_closed
    assert hi.compile_open is lo.compile_open
    assert hi.LANG is lo.LANG


def test_staged_runs_of_low_programs_equal_the_reference():
    from stagedsl import lowexpr as lo
    from stagedsl.examples import power_input, sum_input
    from stagedsl.randprog import corpus
    from stagedsl.runtime import run_text
    from stagedsl.translate import lower_program

    cases = [(sum_input(), "1\n2\n3\n4\n"), (lower_program(power_input()), "3\n4\n")]
    cases += [(lower_program(gp.program), gp.input_text) for gp in corpus(seed=5, size=20)]
    for prog, text in cases:
        reference = run_text(prog, support.REFERENCE, text)
        assert run_text(prog, lo.LANG, text) == reference


def test_low_language_printers_still_reject_let_and_iter():
    from stagedsl import lowexpr as lo
    from stagedsl.cgen import emit_c
    from stagedsl.core import DslError, write_output

    for e in (hi.Let(hi.lit(1), lambda x: x + 1), hi.Iter(hi.lit(2), hi.lit(1), lambda x: x * 3)):
        with pytest.raises(DslError):
            lo.render(e)
        with pytest.raises(DslError):
            emit_c(write_output(e))
