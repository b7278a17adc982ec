"""Statement shapes, quoting, indentation, and the fresh-name supply."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from stagedsl import highexpr as hi, lowexpr as lo
from stagedsl.cgen import emit_c
from stagedsl.core import (
    DslError,
    Instr,
    TypeTag,
    UnboundVariableError,
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
from stagedsl.pseudo import quote_string, render_program


def test_each_instruction_has_its_statement_shape():
    prog = init_ref(lo.lit(0)).bind(
        lambda r: seq(
            read_input(lo.LANG).bind(lambda n: set_ref(r, n)),
            get_ref(lo.LANG, r).bind(write_output),
            print_str("done"),
        )
    )
    assert render_program(prog) == (
        "    r0 <- initRef 0\n"
        "    v1 <- readInput\n"
        "    setRef r0 v1\n"
        "    v2 <- getRef r0\n"
        "    writeOutput v2\n"
        '    printStr "done"\n'
    )


def test_quote_string_gives_backslash_quote_newline_and_tab_short_escapes():
    assert quote_string("") == '""'
    assert quote_string("plain") == '"plain"'
    assert quote_string(".\n") == '".\\n"'
    assert quote_string("a\tb") == '"a\\tb"'
    assert quote_string('say "hi"') == '"say \\"hi\\""'
    assert quote_string("back\\slash") == '"back\\\\slash"'
    assert quote_string('\\"\n\t') == '"\\\\\\"\\n\\t"'


def test_quote_string_escapes_carriage_return_and_octal_control_characters():
    assert quote_string("a\rb\x00c\x7f") == '"a\\rb\\000c\\177"'


_QUOTING_ALPHABET = [*map(chr, range(32)), "\x7f", '"', "\\", "?", "%", "a", "\u00e9"]


@given(st.text(st.sampled_from(_QUOTING_ALPHABET), max_size=12))
def test_every_print_string_stays_on_its_statement_line(s):
    text = render_program(seq(print_str(s), print_str("x")))
    first, second = text.splitlines()
    assert [c for c in text if ord(c) < 32 or ord(c) == 127] == ["\n", "\n"]
    assert first.startswith("    printStr ") and second == '    printStr "x"'
    assert support.unquote(first.removeprefix("    printStr ")) == s


def test_loops_indent_their_bodies_one_level():
    prog = for_loop(
        lo.LANG,
        lo.lit(2),
        lambda i: for_loop(lo.LANG, i, lambda j: write_output(j)).then(print_str("x")),
    ).then(print_str("after"))
    assert render_program(prog) == (
        "    for v0 < 2\n"
        "        for v1 < v0\n"
        "            writeOutput v1\n"
        "        end for\n"
        '        printStr "x"\n'
        "    end for\n"
        '    printStr "after"\n'
    )


def test_one_counter_feeds_both_name_prefixes():
    prog = init_ref(lo.lit(1)).bind(
        lambda a: read_input(lo.LANG).bind(
            lambda n: init_ref(n).bind(
                lambda b: get_ref(lo.LANG, b).bind(lambda x: set_ref(a, x))
            )
        )
    )
    text = render_program(prog)
    assert support.fresh_suffixes_in_order(text) == [0, 1, 2, 3]
    assert "r0" in text and "v1" in text and "r2" in text and "v3" in text


def test_rendering_is_deterministic_and_repeatable():
    prog = for_loop(lo.LANG, lo.lit(3), lambda i: write_output(i))
    assert render_program(prog) == render_program(prog)


def test_empty_program_renders_as_empty_text():
    assert render_program(ret(None)) == ""


def test_the_symbolic_walk_refuses_a_non_instruction():
    with pytest.raises(DslError, match="not an instruction"):
        render_program(Instr())


def test_the_high_language_prints_only_low_expressions():
    let = hi.Let(hi.lit(1), lambda x: x + 1)
    it = hi.Iter(hi.lit(2), hi.lit(1), lambda x: x * 3)
    with pytest.raises(DslError, match="not a low expression: Let"):
        render_program(write_output(let), hi.LANG)
    with pytest.raises(DslError, match="not a low expression: Iter"):
        render_program(init_ref(hi.lit(0)).then(write_output(it)), hi.LANG)


def test_a_programs_own_variable_is_unbound_as_in_c():
    # v0 is also the name the walk gives the input, but not this variable
    n0 = lo.Var("v0", TypeTag.I32)
    prog = read_input(lo.LANG).bind(lambda n: write_output(n0 + n))
    with pytest.raises(UnboundVariableError) as c_error:
        emit_c(prog)
    with pytest.raises(UnboundVariableError) as pseudo_error:
        render_program(prog)
    assert str(pseudo_error.value) == str(c_error.value) == "unbound variable v0"
