"""The bundled example programs, by name.

sumInput is written directly over the minimal expression language;
powerInput uses the rich language and needs the lowering pass before either
backend can print it.  The runtime treats both languages alike, so every
example runs under highexpr.LANG.
"""

from __future__ import annotations

from . import highexpr as hi
from . import lowexpr as lo
from .core import (
    Program,
    for_loop,
    get_ref,
    init_ref,
    modify_ref,
    print_str,
    read_input,
    seq,
    write_output,
)


def sum_input() -> Program:
    """Prompt for four numbers and print their sum."""
    lang = lo.LANG
    return init_ref(lo.lit(0)).bind(
        lambda total: seq(
            print_str("Please enter 4 numbers\n"),
            for_loop(
                lang,
                lo.lit(4),
                lambda _i: print_str(" > ")
                .then(read_input(lang))
                .bind(lambda n: modify_ref(lang, total, lambda acc: acc + n)),
            ),
            print_str("The sum of your numbers is "),
            get_ref(lang, total).bind(write_output),
            print_str(".\n"),
        )
    )


def power_input() -> Program:
    """Prompt for two numbers and print the first raised to the second."""
    lang = hi.LANG
    return (
        print_str("Please enter two numbers\n")
        .then(print_str(" > "))
        .then(read_input(lang))
        .bind(
            lambda m: print_str(" > ")
            .then(read_input(lang))
            .bind(
                lambda n: seq(
                    print_str("Here's a fact: "),
                    write_output(m),
                    print_str("^"),
                    write_output(n),
                    print_str(" = "),
                    write_output(hi.Iter(n, hi.lit(1), lambda x: x * m)),
                    print_str(".\n"),
                )
            )
        )
    )


EXAMPLES: dict[str, Program] = {"sumInput": sum_input(), "powerInput": power_input()}
