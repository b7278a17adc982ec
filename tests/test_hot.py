"""The hot tier called directly: its loop step, expression text, reference
text, record cache and Iter printer, apart from the programs that run through
them; and its native tier: the build decision, the kernel text, the wrapper
and every refusal."""

import ctypes
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import support
from c_differential import outcome
from stagedsl import highexpr as hi, hot, lowexpr as lo
from stagedsl.cgen import c_compiler
from stagedsl.core import (
    ConcreteRef, DslError, GetRef, Scope, SetRef, StageError, SymbolicRef, TypeTag, for_loop,
    get_ref, init_ref, set_ref, wrap_i32, write_output,
)
from stagedsl.examples import power_input
from stagedsl.randprog import corpus
from stagedsl.translate import lower_program

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
        run = lambda env, n: trips.append(f"{n} generated")
        # a Source's two fields loop reads, with a record far from NATIVE
        return SimpleNamespace(run=run, record=SimpleNamespace(trips=0))

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
    hot.iter_step(scope, name, stepped).run(env, n)
    step = lambda x: support.template_to_high(template, x)
    assert env[name] == hi.eval_closed(hi.Iter(hi.lit(n), hi.lit(init), step))


def test_the_record_cache_holds_at_most_its_bound(sources):
    bound = hot._record.cache_info().maxsize
    for k in range(bound + 3):
        src, env = hot.Source(Scope()), {}
        src.lines.append(f"v0 = {k}")
        src.function("_", [], ["v0"])(env, 1)
        assert env == {"v0": k}
    assert len(sources) == bound + 3
    assert hot._record.cache_info().currsize == bound


def test_three_power_runs_past_native_compile_and_assemble_their_text_once(sources, native):
    trips = support.SMALL_NATIVE
    for _ in range(3):
        out = outcome(power_input(), hi.LANG, f"3\n{trips}\n")[1]
        assert out.endswith(f"3^{trips} = {wrap_i32(pow(3, trips, 2**32))}.\n")
    assert len(sources) == hot._record.cache_info().misses == 1
    assert native == [True]


# --------------------------------------------------------------------------
# The native tier.  Its tests have "native" in their names, so that
# `pytest tests/test_hot.py -k native` runs them all, as CI does under a
# sanitizer's CC.

I32, BOOL = TypeTag.I32, TypeTag.BOOL


@pytest.fixture
def records():
    """No hot text's record before the test or after it."""
    hot._record.cache_clear()
    yield
    hot._record.cache_clear()


@pytest.mark.usefixtures("records")
def test_loop_tries_a_native_build_once_per_text(monkeypatch):
    # two loops of one text and one of a text whose build is refused, each
    # hot from its first run; a run is recorded as its text, the kernel or
    # "python" that ran it, and its trips, and a build as its text
    native, per_call = 2 * HOT, hot.PER_CALL
    monkeypatch.setattr(hot, "NATIVE", native)
    ran, records = [], {}

    def build(source):
        ran.append((source.record.text, "build"))
        return source.record.text == "t" and "kernel"

    monkeypatch.setattr(hot, "_build", build)

    def looping(text):
        def generate(body):
            record = SimpleNamespace(text=text, trips=0, kernel=hot.UNTRIED)
            return SimpleNamespace(
                record=records.setdefault(text, record),
                run=lambda env, n: ran.append((text, "python", n)),
                native=lambda kernel: lambda env, n: ran.append((text, kernel, n)),
            )

        return hot.loop("k", lambda env: env["n"], lambda: "body", lambda body: [], generate)

    first, second, refused = looping("t"), looping("t"), looping("u")
    for n in [HOT, native - HOT - 1, 1, per_call - 1, per_call]:
        first({"n": n})
    # the text has its kernel, so a later loop of it runs the kernel at once,
    # on a run of PER_CALL trips or more
    for n in [HOT, per_call - 1]:
        second({"n": n})
    for n in [native, 3]:
        refused({"n": n})
    assert ran == [
        ("t", "python", HOT), ("t", "python", native - HOT - 1), ("t", "build"),
        ("t", "python", 1), ("t", "python", per_call - 1), ("t", "kernel", per_call),
        ("t", "kernel", HOT), ("t", "python", per_call - 1),
        ("u", "build"), ("u", "python", native), ("u", "python", 3),
    ]


def test_native_kernel_text_of_an_iter_step():
    # the power step's shape: every slot is read at the start and written
    # at the end, the arithmetic is cgen's, in unsigned casts, and the trips
    # run in passes of four, then the rest one at a time
    scope = Scope()
    name = scope.fresh("s", I32)
    src = hot.iter_step(scope, name, lo.Var(name, I32) * 7 + 1)
    trip = "s0 = (int32_t)((uint32_t)(int32_t)((uint32_t)s0 * (uint32_t)7) + (uint32_t)1);"
    assert src.kernel() == (
        "#include <stdint.h>\n"
        "void body(int32_t *slot, int64_t n)\n"
        "{\n"
        "    int32_t s0 = slot[0];\n"
        "    for (int64_t k = 0; k < n / 4; k++) {\n"
        f"        {trip}\n"
        f"        {trip}\n"
        f"        {trip}\n"
        f"        {trip}\n"
        "    }\n"
        "    for (int64_t k = 0; k < n % 4; k++) {\n"
        f"        {trip}\n"
        "    }\n"
        "    slot[0] = s0;\n"
        "}\n"
    )


def _every_slot():
    """A loop body over every kind of slot: v0, a value it reads; r1, a bool
    cell it reaches by name; the live i32 cell _r0; the counter v2 it reads;
    and v3, its own bool name.  Returns its Source and the live cell."""
    scope = Scope()
    v, r, i, x = (scope.fresh(*kind) for kind in [("v", I32), ("r", BOOL), ("v", I32), ("v", BOOL)])
    cell = ConcreteRef(I32, 5)
    staged = [
        (GetRef(SymbolicRef(BOOL, r)), x),
        (SetRef(SymbolicRef(BOOL, r), lo.Not(lo.Var(x, BOOL))), None),
        (SetRef(cell, lo.Var(v, I32) * lo.Var(i, I32) + -3), None),
    ]
    return hot.loop_body(scope, print, input, i, staged), cell


def test_native_kernel_text_of_a_loop_body_over_every_kind_of_slot():
    src, _ = _every_slot()
    assert src.slots() == (["v0"], ["r1"], ["_r0"], ["v2", "v3"])
    assert src.kernel() == (
        "#include <stdint.h>\n"
        "void body(int32_t *slot, int64_t n)\n"
        "{\n"
        "    int32_t v0 = slot[0];\n"
        "    int32_t r1 = slot[1];\n"
        "    int32_t _r0 = slot[2];\n"
        "    int32_t v2 = slot[3];\n"
        "    int32_t v3 = slot[4];\n"
        "    for (int64_t k = 0; k < n; k++) {\n"
        "        v2 = (int32_t)k;\n"
        "        v3 = r1;\n"
        "        r1 = (!v3);\n"
        "        _r0 = "
        "(int32_t)((uint32_t)(int32_t)((uint32_t)v0 * (uint32_t)v2) + (uint32_t)-3);\n"
        "    }\n"
        "    slot[0] = v0;\n"
        "    slot[1] = r1;\n"
        "    slot[2] = _r0;\n"
        "    slot[3] = v2;\n"
        "    slot[4] = v3;\n"
        "}\n"
    )


def test_a_native_kernel_stores_back_what_the_python_function_does(native):
    # every slot's store: v0 unchanged, r1 and the live cell by their tags,
    # v2 as n - 1 and v3 as a bool; the live cell's product wraps
    kernel = hot._build(_every_slot()[0])
    for n in [1, 2, 7]:
        runs = []
        for tier in ["python", "native"]:
            src, cell = _every_slot()
            cell.value = 2**31 - 1
            env = {"v0": -(2**31) + 3, "r1": ConcreteRef(BOOL, True)}
            (src.run if tier == "python" else src.native(kernel))(env, n)
            runs.append([
                (k, v.value if k == "r1" else v, type(v.value if k == "r1" else v))
                for k, v in sorted(env.items())
            ] + [(cell.value, type(cell.value))])
        assert runs[0] == runs[1]
        assert runs[0][2] == ("v2", n - 1, int) and runs[0][3][2] is bool
    assert native == [True]


def _copy(tag):
    """A loop body that reads the cell r0 by name into v3 and stores v3 in the
    cell r1, both of tag, with v2 its counter: its text is the same for
    either tag.  Returns its Source."""
    scope = Scope()
    r, q = (SymbolicRef(tag, scope.fresh("r", tag)) for _ in range(2))
    i, v = scope.fresh("v", I32), scope.fresh("v", tag)
    staged = [(GetRef(r), v), (SetRef(q, lo.Var(v, tag)), None)]
    return hot.loop_body(scope, print, input, i, staged)


def test_one_native_text_stores_back_each_runs_own_kinds(native):
    # the bool run and the i32 run share their text, record and kernel;
    # the i32 run still stores ints, and a third bool run stores bools
    bools, ints = _copy(BOOL), _copy(I32)
    assert bools.record is ints.record
    kernel = hot._build(bools)
    runs = [(bools, BOOL, True, False), (ints, I32, -5, 9), (bools, BOOL, False, True)]
    for src, tag, value, other in runs:
        env = {"r0": ConcreteRef(tag, value), "r1": ConcreteRef(tag, other)}
        src.native(kernel)(env, 3)
        assert [(v, type(v)) for v in [env["r1"].value, env["v3"]]] == [(value, type(value))] * 2
        assert env["v2"] == 2
    assert native == [True]


def _two_cells(trips):
    """trips trips of a loop over two cells, each stored from the other, so
    both are carried locals of its text, then both cells written."""

    def body(a, b, _i):
        return get_ref(lo.LANG, a).bind(
            lambda x: get_ref(lo.LANG, b).bind(
                lambda y: set_ref(a, y * -3 + 1).then(set_ref(b, x * y + (2**31 - 5)))
            )
        )

    def written(a, b):
        loop = for_loop(lo.LANG, lo.lit(trips), lambda i: body(a, b, i))
        return loop.then(get_ref(lo.LANG, a)).bind(write_output).then(
            get_ref(lo.LANG, b).bind(write_output)
        )

    return init_ref(lo.lit(7)).bind(lambda a: init_ref(lo.lit(-2)).bind(lambda b: written(a, b)))


# a program of each shape a kernel runs in passes, its language and input
# for a run of n trips: an Iter's step, a loop body that stores one cell,
# and one that stores two
PASSES = {
    "iter-step": lambda n: (power_input(), hi.LANG, f"-7\n{n}\n"),
    "one-cell": lambda n: (lower_program(power_input()), lo.LANG, f"-7\n{n}\n"),
    "two-cells": lambda n: (_two_cells(n), lo.LANG, ""),
}


@pytest.mark.parametrize("shape", PASSES)
def test_native_and_python_trips_match_the_reference_at_every_remainder(shape, native, monkeypatch):
    # every loop and Iter hot from its first run: the Python runs first, with
    # NATIVE out of reach, then every run on the kernel, built once
    monkeypatch.setattr(hot, "HOT", 1)
    runs = [PASSES[shape](n) for n in range(1, 2 * hot._PASS + 2)]
    want = [outcome(prog, support.REFERENCE, text) for prog, _, text in runs]
    monkeypatch.setattr(hot, "NATIVE", 2**62)
    assert [outcome(prog, lang, text) for prog, lang, text in runs] == want
    monkeypatch.setattr(hot, "NATIVE", 1)
    monkeypatch.setattr(hot, "PER_CALL", 1)
    assert [outcome(prog, lang, text) for prog, lang, text in runs] == want
    assert native == [True]


@pytest.mark.parametrize("lowered", [False, True])
def test_native_power_around_per_call_matches_the_reference(lowered, native, monkeypatch):
    # every loop and Iter hot from its first run, which builds the kernel;
    # a later run takes the kernel from PER_CALL trips on
    monkeypatch.setattr(hot, "HOT", 1)
    calls, build = [], hot._build

    def counted(source):
        kernel = build(source)
        return kernel and (lambda slot, n: calls.append(n) or kernel(slot, n))

    monkeypatch.setattr(hot, "_build", counted)
    prog, lang = (lower_program(power_input()), lo.LANG) if lowered else (power_input(), hi.LANG)
    per_call, first = hot.PER_CALL, support.SMALL_NATIVE
    for trips in [first, per_call - 1, per_call, per_call + 1]:
        text = f"-7\n{trips}\n"
        assert outcome(prog, lang, text) == outcome(prog, support.REFERENCE, text)
    assert calls == [first, per_call, per_call + 1]
    assert native == [True]


def _unused_local(kernel):
    """A kernel text with one more local, which no statement reads."""
    return lambda self: kernel(self).replace("{\n", "{\n    int32_t unused = 0;\n", 1)


def _unloadable(path):
    raise OSError(f"{path}: cannot load")


REFUSALS = {
    "cc-false": lambda monkeypatch: monkeypatch.setenv("CC", "false"),
    "cc-empty": lambda monkeypatch: monkeypatch.setenv("CC", ""),
    "cc-missing": lambda monkeypatch: monkeypatch.setenv("CC", "/nonexistent/cc -O2"),
    "strict-compile-fails": lambda monkeypatch: monkeypatch.setattr(
        hot.Source, "kernel", _unused_local(hot.Source.kernel)
    ),
    "oserror-loading": lambda monkeypatch: monkeypatch.setattr(ctypes, "CDLL", _unloadable),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_a_native_refusal_keeps_every_body_on_python_with_outputs_unchanged(
    refusal, native, monkeypatch
):
    # every staged loop and Iter hot, and every hot text native, from its first
    # run: powerInput direct and lowered, and for a missing compiler the
    # default corpus direct and lowered too
    REFUSALS[refusal](monkeypatch)
    monkeypatch.setattr(hot, "HOT", 1)
    monkeypatch.setattr(hot, "NATIVE", 1)
    cases = [(power_input(), "-7\n9\n")]
    if refusal.startswith("cc-"):
        cases += [(gp.program, gp.input_text) for gp in corpus(seed=3, size=30)]
    for prog, text in cases:
        want = outcome(prog, support.REFERENCE, text)
        assert outcome(prog, hi.LANG, text) == want
        assert outcome(lower_program(prog), lo.LANG, text) == want
    assert native and not any(native)  # each build tried was refused


def test_a_sanitizer_cc_builds_native_kernels_with_its_plain_program(native, monkeypatch):
    # $CC's flags never reach the build: a sanitizer's object could abort an
    # uninstrumented Python instead of failing to load
    program = shlex.split(c_compiler())[0]
    monkeypatch.setenv("CC", f"{program} -O1 -fsanitize=undefined,address")
    commands, run = [], subprocess.run

    def recorded(command, **kw):
        commands.append(command)
        return run(command, **kw)

    monkeypatch.setattr(subprocess, "run", recorded)
    monkeypatch.setattr(hot, "NATIVE", 5)
    prog = lower_program(power_input())
    assert outcome(prog, lo.LANG, "3\n300\n") == outcome(prog, support.REFERENCE, "3\n300\n")
    assert native == [True]
    [command] = commands
    assert command[0] == program and not [word for word in command if "sanitize" in word]


def test_native_objects_live_in_one_directory_removed_at_exit(native):
    # a process that builds two kernels, then exits
    code = (
        "from stagedsl import examples, highexpr, hot, lowexpr, runtime, translate\n"
        "hot.NATIVE = 5\n"
        "p = examples.power_input()\n"
        "runtime.run_text(p, highexpr.LANG, '3\\n300\\n')\n"
        "runtime.run_text(translate.lower_program(p), lowexpr.LANG, '3\\n300\\n')\n"
        "print(hot._objects)\n"
        "print(*sorted(path.name for path in hot._objects.iterdir()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hot.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    directory, names = proc.stdout.splitlines()
    assert names == "body0.c body0.so body1.c body1.so"
    assert not Path(directory).exists()
