"""The example registry and the command-line driver."""

import io
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stagedsl import highexpr as hi
from stagedsl.cgen import have_c_compiler
from stagedsl.cli import cli
from stagedsl.core import for_loop, read_input, wrap_i32, write_output
from stagedsl.examples import EXAMPLES

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def test_registry_names_and_languages():
    assert set(EXAMPLES) == {"sumInput", "powerInput"}


def test_list_prints_sorted_names(capsys):
    assert cli(["list"]) == 0
    assert capsys.readouterr().out == "powerInput\nsumInput\n"


def test_run_wires_process_stdio(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n2\n3\n4\n"))
    assert cli(["run", "sumInput"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "sum_run.txt").read_text()


def test_run_reports_bad_input_on_stderr(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\nnope\n"))
    assert cli(["run", "sumInput"]) == 1
    assert "error:" in capsys.readouterr().err


def test_compile_defaults_to_pseudo_code(capsys):
    assert cli(["compile", "powerInput"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "power_pseudo.txt").read_text()


def test_compile_already_low_examples_directly(capsys):
    assert cli(["compile", "sumInput"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "sum_pseudo.txt").read_text()


def test_compile_c_backend(capsys):
    assert cli(["compile", "powerInput", "--backend", "c"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#include <stdint.h>")
    assert "int main(void)" in out


def test_compile_accepts_strategy_flags(capsys):
    assert cli(["compile", "powerInput", "--let", "by-name", "--unroll", "even2"]) == 0
    # powerInput has no let and no doubled count, so the flags cannot show
    assert capsys.readouterr().out == (GOLDEN / "power_pseudo.txt").read_text()


def test_compile_lowers_already_low_examples_unchanged_under_every_flag(capsys):
    assert cli(["compile", "sumInput", "--let", "by-name", "--unroll", "even2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "sum_pseudo.txt").read_text()
    assert cli(["compile", "sumInput", "--backend", "c"]) == 0
    default_c = capsys.readouterr().out
    flags = ["--let", "by-name", "--unroll", "even2"]
    assert cli(["compile", "sumInput", "--backend", "c", *flags]) == 0
    assert capsys.readouterr().out == default_c


def test_compile_is_deterministic_across_invocations(capsys):
    cli(["compile", "powerInput"])
    first = capsys.readouterr().out
    cli(["compile", "powerInput"])
    assert capsys.readouterr().out == first


def test_unknown_example_fails_with_a_diagnostic(capsys):
    assert cli(["run", "fibonacci"]) != 0
    assert "fibonacci" in capsys.readouterr().err
    assert cli(["compile", "fibonacci"]) != 0
    assert "fibonacci" in capsys.readouterr().err


def test_unknown_flags_and_subcommands_fail(capsys):
    assert cli(["compile", "powerInput", "--optimize"]) != 0
    assert capsys.readouterr().err != ""
    assert cli(["frobnicate"]) != 0
    assert capsys.readouterr().err != ""
    assert cli([]) != 0


def test_bad_backend_value_fails(capsys):
    assert cli(["compile", "powerInput", "--backend", "llvm"]) != 0
    assert "--backend" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("stagedsl") is None, reason="entry point not on PATH")
def test_installed_entry_point_runs():
    proc = subprocess.run(
        ["stagedsl", "list"], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0
    assert proc.stdout == "powerInput\nsumInput\n"


def _module_cli(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "stagedsl", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def test_python_dash_m_runs_the_cli():
    listed = _module_cli("list")
    assert (listed.returncode, listed.stdout) == (0, "powerInput\nsumInput\n")
    compiled = _module_cli("compile", "powerInput")
    assert compiled.returncode == 0
    assert compiled.stdout == (GOLDEN / "power_pseudo.txt").read_text()


SCRIPTS = Path(__file__).parent.parent / "scripts"


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


@pytest.mark.skipif(not have_c_compiler(), reason="no C compiler on PATH")
def test_c_differential_script_agrees_on_a_small_corpus():
    proc = _script("c_differential.py", "--count", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("7/7 programs agree")


@pytest.mark.skipif(not have_c_compiler(), reason="no C compiler on PATH")
def test_c_differential_takes_its_examples_from_the_registry(capsys, monkeypatch):
    lang = hi.LANG
    echo = for_loop(
        lang, hi.lit(3), lambda _i: read_input(lang).bind(lambda n: write_output(n * n))
    )
    monkeypatch.setitem(EXAMPLES, "echoSquares", echo)
    monkeypatch.setattr(sys, "argv", ["c_differential.py", "--count", "0"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "c_differential.py"), run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("3/3 programs agree")


@pytest.mark.skipif(not have_c_compiler(), reason="no C compiler on PATH")
def test_c_differential_counts_an_interpreter_error_as_a_failure(capsys, monkeypatch):
    # the examples share one input script of four lines, so this one runs dry
    lang = hi.LANG
    five = for_loop(lang, hi.lit(5), lambda _i: read_input(lang).bind(write_output))
    monkeypatch.setitem(EXAMPLES, "readsFive", five)
    monkeypatch.setattr(sys, "argv", ["c_differential.py", "--count", "0"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "c_differential.py"), run_name="__main__")
    assert done.value.code == 1
    out = capsys.readouterr().out
    assert "readsFive: interpreter raised InputError" in out
    assert out.splitlines()[-1].startswith("2/3 programs agree")


def test_c_differential_without_a_compiler_exits_2():
    env = {**os.environ, "PYTHONPATH": str(SRC), "CC": "/nonexistent/cc"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "c_differential.py"), "--count", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no C compiler (/nonexistent/cc) on PATH" in proc.stderr


def test_run_wraps_an_overlong_input_line_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "stagedsl", "run", "powerInput"],
        input="-" + "7" * 5000 + "\n3\n",
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    m = wrap_i32(-sum(7 * pow(10, k, 2**32) for k in range(5000)))
    assert proc.stdout.endswith(f"{m}^3 = {wrap_i32(m**3)}.\n")


def test_output_hashes_script_prints_the_pinned_hashes():
    # pseudo-code, C, C without its (void) lines, and run transcripts, as
    # they stood before expressions were folded on an explicit stack; then
    # the 552 texts the hot tier compiles and the 652 C kernels printed for
    # those runs' Sources, since a run stages its top level, so a loop body
    # reaches a top-level value or cell by its generated name
    proc = _script("output_hashes.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "pseudo 2116dc82f1366430aee8990c17104806bc565bd61810c158185bf4d0c093f8d4",
        "c c64166901958c3b5035282fb7563ca4b05586f94bd2eb2f95fb14e35ef906892",
        "c-no-void 55d4d76415c1b99b5c4531e9cf46db3b0245d30366c9abbe77a748fdd9e46b66",
        "transcripts 9fbc56279792e4c7c43d8e9337ad56240498085747002e21cd622ba69f5e8d37",
        "hot 82660dd639157a77872f202529901271e91b17ccbe85aaced6808504109faa76",
        "native 0d319979fe859b912b5c200d61178315d401d5f196f0ae1d83aa57896d2cc68f",
    ]
