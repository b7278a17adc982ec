"""The C backend: emitted shape, escaping, and the differential harness."""

import re
import shutil
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from c_differential import disagreement
from stagedsl import hot, lowexpr as lo
from stagedsl.cgen import c_escape, compile_c, emit_c, have_c_compiler
from stagedsl.core import (
    DslError,
    Instr,
    for_loop,
    get_ref,
    init_ref,
    print_str,
    read_input,
    ret,
    seq,
    set_ref,
    write_output,
)
from stagedsl.examples import power_input, sum_input
from stagedsl.pseudo import render_program
from stagedsl.runtime import run_text
from stagedsl.translate import lower_program

needs_cc = pytest.mark.skipif(not have_c_compiler(), reason="no C compiler on PATH")


def test_skeleton_headers_main_and_return():
    src = emit_c(ret(None))
    assert src.startswith("#include <stdint.h>\n#include <stdio.h>\n")
    assert "int main(void)" in src
    assert src.rstrip().endswith("}")
    assert "    return 0;" in src


def test_declarations_are_hoisted_and_typed_by_tag():
    prog = init_ref(lo.lit(True)).bind(
        lambda b: read_input(lo.LANG).bind(
            lambda n: init_ref(n).bind(lambda r: set_ref(b, lo.Not(lo.lit(False))))
        )
    )
    src = emit_c(prog)
    body = src.split("int main(void)")[1]
    assert "    int r0 = 0;" in body
    assert "    int32_t v1 = 0;" in body
    assert "    int32_t r2 = 0;" in body
    # declarations precede all statements
    assert body.index("int r0 = 0;") < body.index('scanf("%d", &v1)')


def test_statement_mapping():
    prog = init_ref(lo.lit(3)).bind(
        lambda r: seq(
            read_input(lo.LANG).bind(lambda n: set_ref(r, n)),
            print_str("ok\n"),
            for_loop(lo.LANG, lo.lit(2), lambda i: write_output(i)),
        )
    )
    src = emit_c(prog)
    assert "    r0 = 3;" in src
    assert '    if (scanf("%d", &v1) != 1) { return 1; }' in src
    assert "    r0 = v1;" in src
    assert '    printf("ok\\n");' in src
    assert "    for (v2 = 0; v2 < 2; v2++) {" in src
    assert '        printf("%d", v2);' in src


def test_wraparound_goes_through_unsigned_arithmetic():
    src = emit_c(write_output(lo.Add(lo.lit(1), lo.Mul(lo.lit(2), lo.lit(3)))))
    assert (
        'printf("%d", (int32_t)((uint32_t)1 + '
        "(uint32_t)(int32_t)((uint32_t)2 * (uint32_t)3)));" in src
    )


def test_booleans_are_ints_with_bare_literals():
    prog = init_ref(lo.lit(False)).bind(
        lambda b: set_ref(b, lo.Eq(lo.lit(1), lo.lit(1)))
    )
    src = emit_c(prog)
    assert "int r0 = 0;" in src
    assert "r0 = (1 == 1);" in src
    assert "stdbool" not in src


def test_int_min_literal_avoids_the_constant_overflow_trap():
    src = emit_c(write_output(lo.lit(-(2**31))))
    assert "(-2147483647 - 1)" in src


def test_escaping_covers_printf_metacharacters():
    assert c_escape('%d "x"\\\n\t') == '%%d \\"x\\"\\\\\\n\\t'
    src = emit_c(print_str("100% sure\n"))
    assert 'printf("100%% sure\\n");' in src


def test_escaping_defuses_trigraphs_and_control_characters():
    assert c_escape("a??!b") == "a\\?\\?!b"
    assert c_escape("x\ry") == "x\\ry"
    # octal escapes are always three digits, so a digit after one stays a digit
    assert c_escape("a\x01" + "7\x7f") == "a\\0017\\177"


def test_empty_print_emits_no_statement():
    assert 'printf("")' not in emit_c(print_str(""))


def test_write_only_cells_are_marked_used():
    prog = init_ref(lo.lit(0)).bind(lambda r: set_ref(r, lo.lit(5)))
    src = emit_c(prog)
    assert "    (void)r0;" in src


def test_c_names_match_the_pseudo_code_names():
    low = lower_program(power_input())
    pseudo_names = support.fresh_suffixes_in_order(render_program(low))
    c_names = support.fresh_suffixes_in_order(emit_c(low))
    assert pseudo_names == c_names


@needs_cc
def test_compile_c_reports_the_compilers_rejection(tmp_path):
    with pytest.raises(DslError, match="C compile failed"):
        compile_c("int main(void) { return undeclared; }\n", tmp_path, "bad")


def test_emit_c_refuses_a_non_instruction():
    with pytest.raises(DslError, match="not an instruction"):
        emit_c(print_str("a").then(Instr()))


@needs_cc
def test_cc_may_carry_flags_after_the_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", f"{shutil.which('cc')} -O0")
    assert have_c_compiler()
    prog = read_input(lo.LANG).bind(lambda n: print_str("n=").then(write_output(n * n)))
    assert disagreement(prog, "7\n", tmp_path, "flags") is None


def test_cc_names_its_compiler_by_the_first_word(monkeypatch):
    for unusable in ("/nonexistent/cc -O0", "", 'cc "-O0'):
        monkeypatch.setenv("CC", unusable)
        assert not have_c_compiler()


def test_compile_c_without_a_compiler_raises_a_dsl_error(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with pytest.raises(DslError, match="CC='/nonexistent/cc'"):
        compile_c(emit_c(print_str("a")), tmp_path, "none")
    monkeypatch.setenv("CC", 'cc "-O0')
    with pytest.raises(DslError, match="cannot start the C compiler"):
        compile_c(emit_c(print_str("a")), tmp_path, "none")


def _names_left_unread():
    # a write-only cell, a discarded read and getRef, an ignored counter
    return init_ref(lo.lit(1)).bind(
        lambda r: seq(
            set_ref(r, lo.lit(2)),
            read_input(lo.LANG).then(get_ref(lo.LANG, r)).then(print_str("a")),
            for_loop(lo.LANG, lo.lit(2), lambda _i: print_str(".")),
        )
    )


def _names_all_read():
    return init_ref(lo.lit(1)).bind(
        lambda r: seq(
            set_ref(r, lo.lit(2)),
            read_input(lo.LANG).bind(
                lambda n: get_ref(lo.LANG, r).bind(lambda v: write_output(n + v))
            ),
            for_loop(lo.LANG, lo.lit(2), write_output),
        )
    )


@pytest.mark.parametrize("make", [_names_left_unread, _names_all_read])
def test_every_declared_name_is_voided_exactly_once(make):
    src = emit_c(make())
    declared = re.findall(r"^    (?:int|int32_t) (\w+) = 0;$", src, re.M)
    assert declared == ["r0", "v1", "v2", "v3"]
    voided = re.findall(r"^    \(void\)(\w+);$", src, re.M)
    assert voided == declared


@needs_cc
@pytest.mark.parametrize("make", [_names_left_unread, _names_all_read])
def test_read_and_unread_names_compile_strictly_and_match_the_interpreter(tmp_path, make):
    assert disagreement(make(), "5\n", tmp_path, "void") is None


@needs_cc
def test_compiled_examples_match_the_interpreter(tmp_path):
    for name, prog, stdin_text in [
        ("sum", sum_input(), "1\n2\n3\n4\n"),
        ("power", lower_program(power_input()), "3\n4\n"),
        ("power2", lower_program(power_input()), "2\n10\n"),
    ]:
        assert disagreement(prog, stdin_text, tmp_path, name) is None


@needs_cc
def test_compiled_wraparound_matches_the_interpreter(tmp_path):
    prog = seq(
        write_output(lo.Add(lo.lit(2**31 - 1), lo.lit(1))),
        print_str(" "),
        write_output(lo.Mul(lo.lit(2147483647), lo.lit(2))),
        print_str(" "),
        write_output(lo.lit(-(2**31))),
    )
    _, want, _ = run_text(prog, lo.LANG)
    assert want == "-2147483648 -2 -2147483648"
    assert disagreement(prog, "", tmp_path, "wrap") is None


@needs_cc
def test_compiled_code_survives_negative_loop_bounds(tmp_path):
    prog = for_loop(lo.LANG, lo.lit(-5), lambda _i: write_output(lo.lit(1)))
    assert run_text(prog, lo.LANG)[1] == ""
    assert disagreement(prog, "", tmp_path, "neg") is None


@needs_cc
@pytest.mark.parametrize("text", ["a??!b", "x\ry", "a\x01b", "q?\x1b[0m?\x7f"])
def test_compiled_print_strings_match_the_interpreter_byte_for_byte(tmp_path, text):
    prog = seq(print_str(text), write_output(lo.lit(1)))
    assert disagreement(prog, "", tmp_path, "strings") is None


@needs_cc
@pytest.mark.parametrize("text", ["a\0b", "\0", "%\0%d\0"])
def test_print_strings_holding_nul_match_the_interpreter_byte_for_byte(tmp_path, text):
    prog = seq(print_str(text), print_str("50%\n"), write_output(lo.lit(1)))
    assert disagreement(prog, "", tmp_path, "nul") is None


@needs_cc
def test_an_interpreter_error_is_reported_not_raised(tmp_path):
    report = disagreement(read_input(lo.LANG).bind(write_output), "", tmp_path, "short")
    assert report is not None and "InputError" in report


def test_tiers_that_disagree_are_reported_before_any_compile(tmp_path, monkeypatch):
    # a hot body that runs no trip: the run with HOT at 1 prints nothing
    # the fields hot.loop reads, with a record far from NATIVE
    idle = SimpleNamespace(run=lambda env, n: None, record=SimpleNamespace(trips=0))
    monkeypatch.setattr(hot, "loop_body", lambda *args: idle)
    default = hot.HOT
    report = disagreement(for_loop(lo.LANG, lo.lit(2), write_output), "", tmp_path, "tiers")
    assert report == "tiers: TIERS DISAGREE\n  default: (None, '01', 0)\n  hot:     (None, '', 0)"
    assert hot.HOT == default and not list(tmp_path.iterdir())


@needs_cc
def test_a_binary_that_runs_past_the_time_out_is_one_failed_case(tmp_path, monkeypatch):
    real_run = subprocess.run

    def run(command, *args, **kwargs):
        if command == [tmp_path / "hangs"]:  # the binary, not the compiler
            raise subprocess.TimeoutExpired(command, kwargs["timeout"])
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    report = disagreement(print_str("a"), "", tmp_path, "hangs")
    assert report == "hangs: TIMED OUT after 60 s"


def test_only_strings_holding_nul_leave_printf():
    src = emit_c(seq(print_str("a\0b%"), print_str("c%")))
    assert '    fwrite("a\\000b%", 1, 4, stdout);' in src
    assert '    printf("c%%");' in src


# Pieces a C string literal or printf format string can get wrong: NUL, CR,
# other C0 characters, DEL, trigraphs, conversion specifiers, quotes and
# backslash, next to plain characters and digits that could extend an escape.
C_STRING_PIECES = [
    "\0", "\r", "\x01", "\x1b", "\x1f", "\x7f", "??!", "??=", "??/", "??(", "?",
    "%", "%d", "%%", '"', "'", "\\", "\n", "\t", "a", "7", " ",
]
c_texts = st.lists(st.sampled_from(C_STRING_PIECES), max_size=8).map("".join)


@needs_cc
@settings(max_examples=12, deadline=None)
@given(st.lists(c_texts, min_size=1, max_size=4))
def test_compiled_generated_print_strings_match_the_interpreter_byte_for_byte(texts):
    prog = seq(*(print_str(t) for t in texts), write_output(lo.lit(7)))
    with tempfile.TemporaryDirectory() as tmp:
        assert disagreement(prog, "", Path(tmp), "texts") is None
