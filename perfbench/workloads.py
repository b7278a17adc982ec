"""The benchmark's set-up and its five workloads.

A workload is a fixed list of operations built from the seed.  Each
operation calls into stagedsl and returns its result plus per-layer tallies;
its check compares the result with a reference from oracle.py or a golden
file, never with another stagedsl result alone.  Operations hold on to the
programs they use and not to the Env, so once the Env is dropped the heap,
and with it the collector's work, holds only the workload's own programs.  README.md says why each
workload was chosen and which layers it stresses and bypasses.
"""

from __future__ import annotations

import importlib
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

from oracle import OracleError, ProgramOracle, power_reference, run_pseudo, sum_reference

CORPUS_SIZE = 3000        # randprog programs generated by every set-up
POWER_N_LOWERED = 2000    # loop trips of each lowered powerInput run
POWER_N_DIRECT = 10_000   # loop trips of each direct run: as long as a lowered one
CDIFF_PROGRAMS = 150      # corpus programs compiled to C by c-diff
CDIFF_POWER_N = 300_000_000  # loop trips of the compiled powerInput run
BINARY_TIMEOUT_S = 60

MODULES = ("core", "lowexpr", "highexpr", "translate", "pseudo", "cgen", "runtime", "randprog", "examples")


@dataclass
class Env:
    """Fresh stagedsl modules and the inputs built from one seed."""

    mods: Any
    power: Any        # powerInput, over the rich language
    sum: Any          # sumInput, over the minimal language
    corpus: list      # randprog.GeneratedProgram


@dataclass
class Op:
    label: str
    run: Callable[[], tuple[Any, dict]]   # (result, per-layer tallies)
    check: Callable[[Any], str | None]    # a problem, or None when correct


def setup(seed: int) -> Env:
    """Import stagedsl afresh, build the examples and generate the corpus."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "stagedsl"]:
        del sys.modules[name]
    importlib.import_module("stagedsl")
    mods = SimpleNamespace(**{name: importlib.import_module(f"stagedsl.{name}") for name in MODULES})
    return Env(
        mods=mods,
        power=mods.examples.power_input(),
        sum=mods.examples.sum_input(),
        corpus=mods.randprog.corpus(seed, CORPUS_SIZE),
    )


def configs(mods) -> list:
    t = mods.translate
    return [t.TranslationConfig(let, unroll) for let in t.LetStrategy for unroll in t.UnrollPolicy]


def _power_m(seed: int) -> int:
    # odd, so the running product never collapses to zero mod 2**32
    return 2 * random.Random(seed).randrange(1, 500) + 1


def _expect(actual, expected) -> str | None:
    return None if actual == expected else f"expected {expected!r}, got {actual!r}"


class _References:
    """Oracle transcripts, computed on first use and kept."""

    def __init__(self, env: Env):
        self._oracle = ProgramOracle(env.mods.core, env.mods.highexpr.Lit)
        self._memo: dict[int, tuple[str, int]] = {}

    def __call__(self, gp) -> tuple[str, int]:
        key = id(gp)
        if key not in self._memo:
            self._memo[key] = self._oracle.run(gp.program, gp.input_text)
        return self._memo[key]


# --------------------------------------------------------------------------

def power_ops(env: Env, seed: int, lowered: bool) -> list[Op]:
    """One powerInput session, lowered by default config or run directly."""
    mods, power = env.mods, env.power
    m, n = _power_m(seed), POWER_N_LOWERED if lowered else POWER_N_DIRECT
    text = f"{m}\n{n}\n"

    def run():
        if lowered:
            prog, lang = mods.translate.lower_program(power), mods.lowexpr.LANG
        else:
            prog, lang = power, mods.highexpr.LANG
        _, out, reads = mods.runtime.run_text(prog, lang, text)
        return (out, reads), {"runtime.reads": reads}

    return [Op(f"powerInput m={m} n={n}", run, lambda r: _expect(r, (power_reference(m, n), 2)))]


def compile_ops(env: Env, seed: int, golden: Path) -> list[Op]:
    """Every corpus program plus powerInput, lowered under all four configs
    and rendered by both back ends; sumInput rendered as written."""
    mods = env.mods
    cfgs = configs(mods)
    refs = _References(env)
    golden_power = (golden / "power_pseudo.txt").read_text()
    golden_sum = (golden / "sum_pseudo.txt").read_text()
    m = _power_m(seed)
    power_case = mods.randprog.GeneratedProgram(env.power, f"{m}\n5\n", 2)

    def render(low) -> tuple[str, str]:
        return mods.pseudo.render_program(low, mods.lowexpr.LANG), mods.cgen.emit_c(low)

    def tallies(texts) -> dict:
        return {
            "pseudo.lines": sum(t.count("\n") for t in texts[0::2]),
            "cgen.c_bytes": sum(len(t) for t in texts[1::2]),
        }

    def lowered_op(label, gp, extra_check=None) -> Op:
        def run():
            texts = []
            for cfg in cfgs:
                texts.extend(render(mods.translate.lower_program(gp.program, cfg)))
            return tuple(texts), tallies(texts)

        def check(texts):
            if extra_check and (problem := extra_check(texts)):
                return problem
            expected = refs(gp)
            for cfg, listing in zip(cfgs, texts[0::2]):
                try:
                    problem = _expect(run_pseudo(listing, gp.input_text), expected)
                except OracleError as err:
                    problem = f"does not read back: {err}"
                if problem:
                    return f"{cfg}: pseudo-code {problem}"
            return None

        return Op(label, run, check)

    def run_sum(program=env.sum):
        texts = render(program)
        return texts, tallies(texts)

    ops = [lowered_op(f"gen{i:04d}", gp) for i, gp in enumerate(env.corpus)]
    ops.append(lowered_op("powerInput", power_case, lambda t: _expect(t[0], golden_power)))
    ops.append(Op("sumInput", run_sum, lambda t: _expect(t[0], golden_sum)))
    return ops


def run_ops(env: Env, seed: int) -> list[Op]:
    """Every corpus program run directly and after each of the four lowerings."""
    mods = env.mods
    cfgs = configs(mods)
    refs = _References(env)

    def op(label, gp) -> Op:
        def run():
            runtime, translate = mods.runtime, mods.translate
            results = [runtime.run_text(gp.program, mods.highexpr.LANG, gp.input_text)[1:]]
            for cfg in cfgs:
                low = translate.lower_program(gp.program, cfg)
                results.append(runtime.run_text(low, mods.lowexpr.LANG, gp.input_text)[1:])
            return tuple(results), {"runtime.reads": sum(reads for _, reads in results)}

        def check(results):
            expected = refs(gp)
            for name, result in zip(["direct"] + [str(c) for c in cfgs], results):
                if (problem := _expect(result, expected)):
                    return f"{name}: {problem}"
            return None

        return Op(label, run, check)

    return [op(f"gen{i:04d}", gp) for i, gp in enumerate(env.corpus)]


def cdiff_ops(env: Env, seed: int, workdir: Path) -> list[Op]:
    """Strict-C99 compile and run of the first corpus programs, both examples
    and one long powerInput, compared with the interpreter and the oracle."""
    mods = env.mods
    refs = _References(env)
    rng = random.Random(seed)
    m = _power_m(seed)
    sum_values = [rng.randint(-1000, 1000) for _ in range(4)]

    def compile_and_exec(name, low, text):
        source = mods.cgen.emit_c(low)
        exe = mods.cgen.compile_c(source, workdir, name=name)
        start = perf_counter()
        proc = subprocess.run(
            [str(exe)], input=text.encode(), capture_output=True, timeout=BINARY_TIMEOUT_S
        )
        exec_s = perf_counter() - start
        return (proc.returncode, proc.stdout.decode()), {"cgen.c_bytes": len(source), "cgen.binary.exec_s": exec_s}

    def differential(name, prog, lowered, text, expected) -> Op:
        def run():
            low = mods.translate.lower_program(prog) if lowered else prog
            binary, tallies = compile_and_exec(name, low, text)
            _, out, reads = mods.runtime.run_text(low, mods.lowexpr.LANG, text)
            return (binary, (out, reads)), {**tallies, "runtime.reads": reads}

        def check(result):
            (rc, stdout), interpreted = result
            if rc != 0:
                return f"binary exited with {rc}"
            if (problem := _expect(interpreted, expected())):
                return f"interpreter {problem}"
            problem = _expect(stdout, interpreted[0])
            return problem and f"binary {problem}"

        return Op(name, run, check)

    ops = [
        differential(f"gen{i:04d}", gp.program, True, gp.input_text, lambda gp=gp: refs(gp))
        for i, gp in enumerate(env.corpus[:CDIFF_PROGRAMS])
    ]
    sum_text = "".join(f"{v}\n" for v in sum_values)
    ops.append(differential("sumInput", env.sum, False, sum_text, lambda: (sum_reference(sum_values), 4)))
    ops.append(differential("powerInput", env.power, True, f"{m}\n7\n", lambda: (power_reference(m, 7), 2)))

    def run_long_power(program=env.power):
        low = mods.translate.lower_program(program)
        return compile_and_exec("powerLong", low, f"{m}\n{CDIFF_POWER_N}\n")

    ops.append(Op(
        f"powerInput binary n={CDIFF_POWER_N}",
        run_long_power,
        lambda r: _expect(r, (0, power_reference(m, CDIFF_POWER_N))),
    ))
    return ops


WORKLOADS = {
    "power-loop": lambda env, seed, paths: power_ops(env, seed, lowered=True),
    "power-direct": lambda env, seed, paths: power_ops(env, seed, lowered=False),
    "corpus-compile": lambda env, seed, paths: compile_ops(env, seed, paths.golden),
    "corpus-run": lambda env, seed, paths: run_ops(env, seed),
    "c-diff": lambda env, seed, paths: cdiff_ops(env, seed, paths.workdir),
}
