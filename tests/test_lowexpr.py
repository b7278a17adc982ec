"""The minimal expression language: evaluation, rendering, tag checks."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stagedsl import lowexpr as lo
from stagedsl.core import Scope, TagError, TypeTag, UnboundVariableError, wrap_i32

I32_MIN, I32_MAX = -(2**31), 2**31 - 1


def test_lit_infers_tags_and_wraps():
    assert lo.lit(3).tag is TypeTag.I32
    assert lo.lit(True).tag is TypeTag.BOOL
    assert lo.lit(2**31).value == I32_MIN
    assert lo.lit(-(2**31) - 1).value == I32_MAX
    with pytest.raises(TagError):
        lo.lit("nope")


def test_operator_sugar_builds_nodes_and_coerces_ints():
    e = lo.lit(1) + 2
    assert e == lo.Add(lo.lit(1), lo.lit(2))
    assert (3 * lo.lit(4)) == lo.Mul(lo.lit(3), lo.lit(4))


def test_eval_arithmetic():
    assert lo.eval_closed(lo.Add(lo.lit(5), lo.lit(6))) == 11
    assert lo.eval_closed(lo.Mul(lo.lit(7), lo.lit(-3))) == -21
    assert lo.eval_closed(lo.Eq(lo.lit(4), lo.lit(4))) is True
    assert lo.eval_closed(lo.Not(lo.lit(True))) is False


def test_eval_wraps_at_32_bits():
    # 2147483647 * 2 = 4294967294, which is -2 in two's complement
    assert lo.eval_closed(lo.Mul(lo.lit(2147483647), lo.lit(2))) == -2
    assert lo.eval_closed(lo.Add(lo.lit(I32_MAX), lo.lit(1))) == I32_MIN


def test_eval_open_expression_names_the_variable():
    with pytest.raises(UnboundVariableError, match="v9"):
        lo.eval_closed(lo.Add(lo.Var("v9", TypeTag.I32), lo.lit(1)))


def test_render_shapes():
    assert lo.render(lo.Var("v3", TypeTag.I32)) == "v3"
    assert lo.render(lo.lit(-5)) == "-5"
    assert lo.render(lo.lit(True)) == "True"
    assert lo.render(lo.lit(False)) == "False"
    assert lo.render(lo.Add(lo.Var("v3", TypeTag.I32), lo.Var("v2", TypeTag.I32))) == "(v3 + v2)"
    assert lo.render(lo.Mul(lo.lit(1), lo.Add(lo.lit(2), lo.lit(3)))) == "(1 * (2 + 3))"
    assert lo.render(lo.Not(lo.Eq(lo.lit(1), lo.lit(0)))) == "(not (1 == 0))"


def test_render_over_a_scope_prints_only_the_names_it_generated():
    scope = Scope()
    generated = lo.Var(scope.fresh("v", TypeTag.I32), TypeTag.I32)
    assert lo.render(generated + 1, scope) == "(v0 + 1)"
    # a program's own v0 has the same text but is not the scope's name
    own = lo.Var("v0", TypeTag.I32)
    with pytest.raises(UnboundVariableError, match="^unbound variable v0$"):
        lo.render(own + 1, scope)
    assert lo.render(own + 1) == "(v0 + 1)"


def test_tag_checks_reject_bad_operands():
    with pytest.raises(TagError):
        lo.Add(lo.lit(1), lo.lit(True))
    with pytest.raises(TagError):
        lo.Not(lo.lit(0))
    with pytest.raises(TagError):
        lo.Eq(lo.lit(1), lo.lit(True))
    with pytest.raises(TagError):
        lo.Lit(True, TypeTag.I32)
    with pytest.raises(TagError):
        lo.Lit(3, TypeTag.BOOL)


i32s = st.integers(I32_MIN, I32_MAX)


@given(i32s, i32s)
def test_add_matches_python_oracle(a, b):
    assert lo.eval_closed(lo.Add(lo.lit(a), lo.lit(b))) == wrap_i32(a + b)


@given(i32s, i32s)
def test_mul_matches_python_oracle(a, b):
    assert lo.eval_closed(lo.Mul(lo.lit(a), lo.lit(b))) == wrap_i32(a * b)


@given(st.integers())
def test_literal_wrapping_is_idempotent(n):
    assert lo.lit(n).value == wrap_i32(n)
    assert wrap_i32(lo.lit(n).value) == lo.lit(n).value


@given(st.integers(-(2**300), 2**300))
@example(2**31)
@example(-(2**31) - 1)
@example(2**32)
@example(-(2**300))
def test_wrap_i32_is_the_modular_formula(n):
    # wrap_i32 masks; this is the % formula it replaced
    assert wrap_i32(n) == (n + 2**31) % 2**32 - 2**31


# ---------------------------------------------------------------------------
# Open expressions against an environment oracle.  The oracle evaluates with
# an environment directly; the language only evaluates closed terms, so the
# test substitutes first.

I32_VARS = ["a", "b", "c"]
BOOL_VARS = ["p", "q"]


def eval_env(e, env):
    match e:
        case lo.Var(name, _):
            return env[name]
        case lo.Lit(value, _):
            return value
        case lo.Add(x, y):
            return wrap_i32(eval_env(x, env) + eval_env(y, env))
        case lo.Mul(x, y):
            return wrap_i32(eval_env(x, env) * eval_env(y, env))
        case lo.Not(x):
            return not eval_env(x, env)
        case lo.Eq(x, y):
            return eval_env(x, env) == eval_env(y, env)
    raise AssertionError(e)


def substitute(e, env):
    match e:
        case lo.Var(name, _):
            return lo.lit(env[name])
        case lo.Lit(_, _):
            return e
        case lo.Add(x, y):
            return lo.Add(substitute(x, env), substitute(y, env))
        case lo.Mul(x, y):
            return lo.Mul(substitute(x, env), substitute(y, env))
        case lo.Not(x):
            return lo.Not(substitute(x, env))
        case lo.Eq(x, y):
            return lo.Eq(substitute(x, env), substitute(y, env))
    raise AssertionError(e)


def rename(e, names):
    match e:
        case lo.Var(name, tag):
            return lo.Var(names[name], tag)
        case lo.Lit(_, _):
            return e
        case lo.Add(x, y):
            return lo.Add(rename(x, names), rename(y, names))
        case lo.Mul(x, y):
            return lo.Mul(rename(x, names), rename(y, names))
        case lo.Not(x):
            return lo.Not(rename(x, names))
        case lo.Eq(x, y):
            return lo.Eq(rename(x, names), rename(y, names))
    raise AssertionError(e)


def exprs_of(tag: TypeTag, depth: int):
    if tag is TypeTag.I32:
        leaves = st.one_of(
            st.sampled_from(I32_VARS).map(lambda n: lo.Var(n, TypeTag.I32)),
            st.integers(-100, 100).map(lo.lit),
        )
    else:
        leaves = st.one_of(
            st.sampled_from(BOOL_VARS).map(lambda n: lo.Var(n, TypeTag.BOOL)),
            st.booleans().map(lo.lit),
        )
    if depth <= 0:
        return leaves
    sub_i32 = exprs_of(TypeTag.I32, depth - 1)
    branches = [leaves]
    if tag is TypeTag.I32:
        branches.append(st.tuples(sub_i32, sub_i32).map(lambda ab: lo.Add(*ab)))
        branches.append(st.tuples(sub_i32, sub_i32).map(lambda ab: lo.Mul(*ab)))
    else:
        sub_bool = exprs_of(TypeTag.BOOL, depth - 1)
        branches.append(sub_bool.map(lo.Not))
        branches.append(st.tuples(sub_i32, sub_i32).map(lambda ab: lo.Eq(*ab)))
        branches.append(st.tuples(sub_bool, sub_bool).map(lambda ab: lo.Eq(*ab)))
    return st.one_of(*branches)


environments = st.fixed_dictionaries(
    {**{n: st.integers(I32_MIN, I32_MAX) for n in I32_VARS},
     **{n: st.booleans() for n in BOOL_VARS}}
)

any_expr = st.one_of(exprs_of(TypeTag.I32, 3), exprs_of(TypeTag.BOOL, 3))


@given(any_expr, environments)
def test_substitution_agrees_with_environment_oracle(e, env):
    assert lo.eval_closed(substitute(e, env)) == eval_env(e, env)


@given(any_expr)
def test_render_is_total_and_parenthesized(e):
    text = lo.render(e)
    assert text
    assert text.count("(") == text.count(")")


@given(any_expr, any_expr)
def test_distinct_trees_render_distinctly(e1, e2):
    if e1 != e2:
        assert lo.render(e1) != lo.render(e2)


@given(any_expr, environments)
def test_compiled_open_expressions_agree_with_environment_oracle(e, env):
    scope = Scope()
    names = {n: scope.fresh(n, TypeTag.I32 if n in I32_VARS else TypeTag.BOOL) for n in env}
    compiled = lo.compile_open(rename(e, names), scope)
    assert compiled({names[n]: v for n, v in env.items()}) == eval_env(e, env)


def test_compiled_free_variables_fail_when_evaluated_not_when_compiled():
    scope = Scope()
    bound = scope.fresh("a", TypeTag.I32)
    # same text as the generated name, but not generated by the scope
    e = lo.Add(lo.Var(bound, TypeTag.I32), lo.Var("a0", TypeTag.I32))
    assert bound == "a0"
    compiled = lo.compile_open(e, scope)
    with pytest.raises(UnboundVariableError, match="a0"):
        compiled({bound: 1})
