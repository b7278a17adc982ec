"""The hot tier called directly: its loop step, expression text, reference
text, code cache and Iter printer, apart from the programs that run through
them."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import support
from stagedsl import highexpr as hi, hot, lowexpr as lo
from stagedsl.core import (
    ConcreteRef, DslError, Scope, StageError, SymbolicRef, TypeTag, wrap_i32,
)

I32_MIN = -(2**31)


@given(st.integers(-(2**70), 2**70))
@example(2**31)
@example(-(2**31))
@example(2**32)
@example(-(2**32))
@example(0)
@example(-1)
def test_the_wrap_text_of_hot_source_is_wrap_i32(n):
    assert eval(hot._WRAP.format(n)) == wrap_i32(n)


# an i32 in hot source: a canonical name holds a signed value, a residue name
# any congruent integer, the masked results in [0, 2**32) among them and an
# Iter's raw state within a pass, which stays within 256 bits
operands = st.tuples(
    st.booleans(), st.one_of(st.integers(I32_MIN, 2**32 - 1), st.integers(-(2**256), 2**256))
).map(lambda t: t if t[0] else (False, wrap_i32(t[1])))


@given(st.sampled_from([lo.Add, lo.Mul, lo.Eq]), operands, operands)
@example(lo.Eq, (True, 2**32 - 1), (False, -1))
@example(lo.Mul, (True, 2**32 - 1), (True, 2**32 - 1))
@example(lo.Add, (False, I32_MIN), (True, 2**31))
@example(lo.Eq, (True, 2**256 - 1), (False, -1))
@example(lo.Mul, (True, -(2**256)), (True, 2**256 + 3))
def test_hot_source_texts_from_either_form_are_wrap_i32(node, a, b):
    scope, env = Scope(), {}
    src = hot.Source(scope)
    names = []
    for residue, value in [a, b]:
        name = scope.fresh("v", TypeTag.I32)
        if residue:
            src.residue(name, TypeTag.I32)
        env[name] = value
        names.append(lo.Var(name, TypeTag.I32))
    e = node(*names)
    want = lo.eval_closed(node(lo.lit(a[1]), lo.lit(b[1])))
    text = lo.fold(hot.PYTHON, e, src)[0]
    if node is lo.Eq:
        assert eval(text, env) is want
        return
    masked = eval(text, env)
    assert 0 <= masked < 2**32
    # the canonicalising text applied to the masked text, and value()'s text
    assert eval(hot._WRAP.format(text), env) == want
    assert eval(src.value(e), env) == want


def test_every_reference_is_read_and_written_through_ref():
    scope, env = Scope(), {}
    src = hot.Source(scope)
    cell = ConcreteRef(TypeTag.I32, 0)
    named = SymbolicRef(TypeTag.I32, scope.fresh("r", TypeTag.I32))
    assert src.ref(cell) == src.ref(cell) == "_r0"  # one local per cell
    assert src.ref(named) == "r0.value" and src.reads == {"r0"}
    with pytest.raises(StageError, match="not generated"):  # the same text, not the name
        src.ref(SymbolicRef(TypeTag.I32, "r0"))
    e = lo.lit(2**31 - 1) + lo.lit(1)
    # a cell's local is a carried residue: its store is masked, its line kept
    assert src.store("_r0", e) == "_r0 = ((2147483647 + 1) & 0xFFFFFFFF)"
    assert src.carried == {"_r0": (0, "_r0 = 2147483647 + 1")}
    # a write by name is observed, so it stores the canonical value
    line = src.store("r0.value", e)
    assert line == f"r0.value = {src.value(e)}" and list(src.carried) == ["_r0"]
    env["r0"] = ConcreteRef(TypeTag.I32, 0)
    exec(line, env)
    assert env["r0"].value == lo.eval_closed(e) == I32_MIN


HOT = hot.HOT
# a loop's runs, then what it calls, in order, when generate accepts and
# when it refuses: the first run at HOT goes hot at once, and HOT one-trip
# runs sum to HOT on the last of them
COLD_FIRST = ["instantiate", "stage", "generate"]
RUNS = {
    "hot-first": ([HOT, 2], ["instantiate", "generate"], ["instantiate", "generate", "stage"]),
    "hot-later": ([HOT - 1, 0, 1, 2], COLD_FIRST, COLD_FIRST),
    "summed": ([1] * HOT + [3], COLD_FIRST, COLD_FIRST),
}


@pytest.mark.parametrize("refuse", [False, True])
@pytest.mark.parametrize("kind", RUNS)
def test_loop_instantiates_once_and_tries_generate_once(kind, refuse):
    runs, *wants = RUNS[kind]
    calls, trips = [], []

    def instantiate():
        calls.append("instantiate")
        return "body"

    def stage(body):
        calls.append("stage")
        assert body == "body"
        return [lambda env: trips.append(env["k"])]

    def generate(body):
        calls.append("generate")
        assert body == "body"
        if refuse:
            raise DslError("refused")
        return lambda env, n: trips.append(f"{n} generated")

    step = hot.loop("k", lambda env: env["n"], instantiate, stage, generate)
    for n in [0, -3]:
        step({"n": n})
    assert calls == trips == []  # a run of no trips instantiates nothing
    summed = 0
    for n in runs:
        step({"n": n})
        summed += n
        if summed >= HOT and not refuse:
            assert trips[-1] == f"{n} generated"
        elif n > 0:
            assert trips[-n:] == list(range(n))
    # a refused body falls back to the steps, built once
    assert calls == wants[refuse]


# i32 steps over the state and literals: hole is the state, and s * s among
# them doubles a raw state's bits on every trip of a pass
steps = st.recursive(
    st.one_of(st.just(("hole",)), st.integers(-(2**31), 2**31 - 1).map(lambda v: ("lit", v))),
    lambda kids: st.tuples(st.sampled_from(["add", "mul"]), kids, kids),
    max_leaves=8,
)


@given(st.integers(1, 12), st.integers(-(2**31), 2**31 - 1), steps)
@example(12, 3, ("mul", ("hole",), ("hole",)))
@example(11, -(2**31) + 1, ("add", ("mul", ("hole",), ("hole",)), ("hole",)))
def test_an_iters_generated_function_matches_the_reference_evaluator(n, init, template):
    scope = Scope()
    name = scope.fresh("s", TypeTag.I32)
    stepped = support.template_to_high(template, hi.Var(name, TypeTag.I32))
    env = {name: init}
    hot.iter_step(scope, name, stepped)(env, n)
    step = lambda x: support.template_to_high(template, x)
    assert env[name] == hi.eval_closed(hi.Iter(hi.lit(n), hi.lit(init), step))


def test_the_code_cache_holds_at_most_its_bound(sources):
    bound = hot._code.cache_info().maxsize
    for k in range(bound + 3):
        src, env = hot.Source(Scope()), {}
        src.lines.append(f"v0 = {k}")
        src.function("_", [], ["v0"])(env, 1)
        assert env == {"v0": k}
    assert len(sources) == bound + 3
    assert hot._code.cache_info().currsize == bound
