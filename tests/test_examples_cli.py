"""The example registry and the command-line driver."""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stagedsl import highexpr as hi, lowexpr as lo
from stagedsl.cgen import have_c_compiler
from stagedsl.cli import cli
from stagedsl.examples import EXAMPLES

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def test_registry_names_and_languages():
    assert set(EXAMPLES) == {"sumInput", "powerInput"}
    assert EXAMPLES["sumInput"].lang is lo.LANG
    assert EXAMPLES["powerInput"].lang is hi.LANG


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


def test_compile_examples_script_prints_both_back_ends():
    proc = _script("compile_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert "=== powerInput [pseudo] ===" in proc.stdout
    assert "=== sumInput [c] ===" in proc.stdout
    assert (GOLDEN / "power_pseudo.txt").read_text() in proc.stdout


@pytest.mark.skipif(not have_c_compiler(), reason="no C compiler on PATH")
def test_c_differential_script_agrees_on_a_small_corpus():
    proc = _script("c_differential.py", "--count", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("7/7 programs agree")
