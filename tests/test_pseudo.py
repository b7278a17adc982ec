"""Statement shapes, quoting, indentation, and the fresh-name supply."""

import pytest

import support
from stagedsl import highexpr as hi, lowexpr as lo
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


def test_quote_string_escapes_exactly_four_characters():
    assert quote_string("") == '""'
    assert quote_string("plain") == '"plain"'
    assert quote_string(".\n") == '".\\n"'
    assert quote_string("a\tb") == '"a\\tb"'
    assert quote_string('say "hi"') == '"say \\"hi\\""'
    assert quote_string("back\\slash") == '"back\\\\slash"'
    assert quote_string('\\"\n\t') == '"\\\\\\"\\n\\t"'


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
        render_program(Instr("nope"))


def test_languages_without_a_renderer_are_rejected():
    with pytest.raises(DslError):
        render_program(write_output(hi.lit(1)), hi.LANG)
