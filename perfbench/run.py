#!/usr/bin/env python3
"""stagedsl benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload power-loop --seed 1 --seconds 15 --trace 0

Run from the repository root; stagedsl is imported from ./src.  With
--trace 0 the end-to-end metrics are printed; with --trace 1 the layer
modules are wrapped (tracing.py) and the per-layer metrics are printed.  The
last stdout line is the JSON result; the lines before it repeat each metric
with its unit, the raw wall-clock figures and the run's metadata.

End-to-end times are scaled to a fixed machine speed: a calibration loop
that uses no stagedsl code runs after every CALIBRATION_EVERY_S of
operations, and each time is multiplied by CALIBRATION_NOMINAL_S / (median
of the calibration samples around it).  On a shared machine the speed of a
core drifts by a third for seconds at a time; the scaled figures cancel most
of that drift, and a change to stagedsl moves them as it moves wall time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3                      # set-ups per run; setup_s is their median
CALIBRATION_EVERY_S = 0.05      # operation time between calibration samples
CALIBRATION_NOMINAL_S = 0.003   # calibration time at the reference speed
CALIBRATION_NEIGHBOURS = 1      # samples on each side that scale an operation
MAX_PROBLEMS_SHOWN = 5

END_TO_END = {  # name: unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

# name: (unit, source, key).  Sources: calls / self / total are a span's call
# count and median per-pass self or total time; tally is what the operations
# report; "setup" is a span timed while the corpus is generated once more.
PER_LAYER = {
    "core.interpret.calls": ("count", "calls", "core.interpret"),
    "core.interpret.self_s": ("s", "self", "core.interpret"),
    "core.instrs": ("count", "calls", "core.instrs"),
    "core.reexpress.calls": ("count", "calls", "core.reexpress"),
    "core.reexpress.self_s": ("s", "self", "core.reexpress"),
    "translate.lower_expr.calls": ("count", "calls", "translate.lower_expr"),
    "translate.lower_expr.self_s": ("s", "self", "translate.lower_expr"),
    "runtime.handler.self_s": ("s", "self", "runtime.handler"),
    "runtime.reads": ("count", "tally", "runtime.reads"),
    "lowexpr.eval_closed.calls": ("count", "calls", "lowexpr.eval_closed"),
    "lowexpr.eval_closed.self_s": ("s", "self", "lowexpr.eval_closed"),
    "highexpr.eval_closed.calls": ("count", "calls", "highexpr.eval_closed"),
    "highexpr.eval_closed.self_s": ("s", "self", "highexpr.eval_closed"),
    "lowexpr.render.calls": ("count", "calls", "lowexpr.render"),
    "lowexpr.render.self_s": ("s", "self", "lowexpr.render"),
    "pseudo.render_program.self_s": ("s", "self", "pseudo.render_program"),
    "pseudo.handler.self_s": ("s", "self", "pseudo.handler"),
    "pseudo.lines": ("count", "tally", "pseudo.lines"),
    "cgen.emit_c.self_s": ("s", "self", "cgen.emit_c"),
    "cgen.handler.self_s": ("s", "self", "cgen.handler"),
    "cgen.c_bytes": ("bytes", "tally", "cgen.c_bytes"),
    "cgen.compile_c.s": ("s", "total", "cgen.compile_c"),
    "cgen.binary.exec_s": ("s", "tally", "cgen.binary.exec_s"),
    "randprog.corpus.s": ("s", "setup", "randprog.corpus"),
    "trace.overhead_s": ("s", "overhead", None),
}


# The calibration loop: a fixed miniature of what the reference interpreter
# does per instruction (frozen dataclass nodes checked in __post_init__, a
# class-pattern match, a continuation closure, wrapping arithmetic).  It is
# written here so that no change to stagedsl changes its cost; of the loops
# tried, it tracked the drift of the corpus workloads most closely.

@dataclass(frozen=True)
class _Lit:
    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int):
            raise TypeError(self.value)
        object.__setattr__(self, "value", (self.value + 2**31) % 2**32 - 2**31)


@dataclass(frozen=True)
class _Add:
    left: object
    right: object


@dataclass(frozen=True)
class _Mul:
    left: object
    right: object


@dataclass(frozen=True)
class _Step:
    value: object
    rest: object


def _evaluate(e) -> int:
    match e:
        case _Lit(value):
            return value
        case _Add(a, b):
            return (_evaluate(a) + _evaluate(b) + 2**31) % 2**32 - 2**31
        case _Mul(a, b):
            return (_evaluate(a) * _evaluate(b) + 2**31) % 2**32 - 2**31
    raise TypeError(e)


def calibration_loop() -> int:
    """The collector is off so the time does not depend on how much the
    program under test keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = 3
        for k in range(300):
            step = _Step(_Mul(_Lit(state), _Add(_Lit(k), _Lit(7))), lambda v: _Step(_Lit(v), None))
            while step is not None:
                state = _evaluate(step.value)
                step = step.rest(state) if step.rest else None
        return state
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Calibration samples taken between operations.  An operation is scaled
    by the samples taken just before and after it, so that a slow spell of a
    few seconds scales only the operations that ran in it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._pending_s = 0.0

    def sample(self) -> None:
        start = perf_counter()
        calibration_loop()
        self.samples.append(perf_counter() - start)
        self._pending_s = 0.0

    def after(self, op_s: float) -> int:
        """Note an operation's time; returns its epoch, for scaled()."""
        epoch = len(self.samples)
        self._pending_s += op_s
        if self._pending_s >= CALIBRATION_EVERY_S:
            self.sample()
        return epoch

    def scaled(self, seconds: float, epoch: int) -> float:
        nearby = self.samples[max(epoch - CALIBRATION_NEIGHBOURS, 0) : epoch + CALIBRATION_NEIGHBOURS]
        return seconds * CALIBRATION_NOMINAL_S / statistics.median(nearby)

    def speed(self) -> float:
        """How much faster than the reference speed the whole run was."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples)


class Outcomes:
    """Attempts, failures and the determinism check: every operation that
    runs more than once must give the same result each time, and every
    attempt whose result is wrong counts as failed."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[int, tuple] = {}  # index: (result, problem)

    def attempt(self, i: int) -> tuple[float | None, dict]:
        """Run operation i; its wall time if it succeeded, and its tallies."""
        op = self.ops[i]
        self.attempted += 1
        start = perf_counter()
        try:
            result, tallies = op.run()
            elapsed = perf_counter() - start
            problem = self._verdict(i, result)
        except Exception as err:  # counted as a failure; the run goes on
            elapsed, tallies, problem = None, {}, f"{type(err).__name__}: {err}"
        if problem:
            self.fail(f"{op.label}: {problem}")
            return None, tallies
        return elapsed, tallies

    def _verdict(self, i: int, result) -> str | None:
        if i not in self._first:
            self._first[i] = (result, self.ops[i].check(result))
        first, problem = self._first[i]
        if result != first:
            return "result differs from the first run of the same operation"
        return problem

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS_SHOWN:
            self.problems.append(problem[:500])


def measure(ops, seconds: float, cal: Calibration, outcomes: Outcomes) -> list[tuple[float, int]]:
    """Whole passes over the operations, at least two and until the time is
    up, so every operation is weighted alike and runs twice; (time, epoch)
    of each operation that succeeded."""
    times = []
    deadline = perf_counter() + seconds
    passes = 0
    while passes < 2 or perf_counter() < deadline:
        for i in range(len(ops)):
            elapsed, _ = outcomes.attempt(i)
            if elapsed is not None:
                times.append((elapsed, cal.after(elapsed)))
        passes += 1
    cal.sample()
    return times


def end_to_end(setups, times, cal: Calibration) -> tuple[dict, dict]:
    """Scaled metrics, and the same figures as measured."""
    if not times:
        raise SystemExit("no operation succeeded; nothing to report")

    def figures(setup_s, op_s):
        p90 = statistics.quantiles(op_s, n=10)[8] if len(op_s) > 1 else op_s[0]
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "op_p90_ms": p90 * 1e3,
        }

    raw = figures([s for s, _ in setups], [t for t, _ in times])
    scaled = figures([cal.scaled(*s) for s in setups], [cal.scaled(*t) for t in times])
    return scaled, raw


def traced_passes(ops, seconds: float, outcomes: Outcomes, setup_tracer) -> dict:
    """Alternate untraced and traced passes over all operations until the
    time is up; counts must repeat exactly from pass to pass."""
    plain_s, traced_s, per_pass = [], [], []
    deadline = perf_counter() + seconds
    while not per_pass or perf_counter() < deadline:
        start = perf_counter()
        for i in range(len(ops)):
            outcomes.attempt(i)
        plain_s.append(perf_counter() - start)

        tracer, tallies = Tracer(), Counter()
        start = perf_counter()
        with installed(tracer):
            for i in range(len(ops)):
                tallies.update(outcomes.attempt(i)[1])
        traced_s.append(perf_counter() - start)
        per_pass.append((tracer, tallies))

    def counts(tracer, tallies):
        exact = {k: v for k, v in tallies.items() if not k.endswith("_s")}
        return dict(tracer.calls), exact

    first = counts(*per_pass[0])
    for p in per_pass[1:]:
        if counts(*p) != first:
            outcomes.fail("per-layer counts differ between traced passes of the same operations")

    med = statistics.median
    metrics = {}
    tracer0, tallies0 = per_pass[0]
    for name, (unit, source, key) in PER_LAYER.items():
        if source == "calls":
            value = tracer0.calls[key]
        elif source == "tally":
            value = med([t[key] for _, t in per_pass]) if key.endswith("_s") else tallies0[key]
        elif source == "self":
            value = med([tr.self_s[key] for tr, _ in per_pass])
        elif source == "total":
            value = med([tr.total_s[key] for tr, _ in per_pass])
        elif source == "setup":
            value = setup_tracer.total_s[key]
        else:
            value = med(traced_s) - med(plain_s)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def environment(args, sizes: dict) -> dict:
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stagedsl").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cc = os.environ.get("CC", "cc")
    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "cc": first_line([cc, "--version"]),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


@dataclass
class Paths:
    golden: Path
    workdir: Path


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One core for this process and the compilers and binaries it starts, so
    # the calibration samples see the core the measured work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal = Calibration()
    setups, env = [], None
    for _ in range(SETUPS):
        env = None  # free the previous set-up's corpus before timing the next
        cal.sample()
        start = perf_counter()
        env = workloads.setup(args.seed)
        setups.append((perf_counter() - start, len(cal.samples)))
    stagedsl_file = Path(sys.modules["stagedsl"].__file__).resolve()
    if ROOT / "src" not in stagedsl_file.parents:
        raise SystemExit(f"stagedsl imported from {stagedsl_file}, not from {ROOT / 'src'}")

    setup_tracer = None
    if args.trace:
        setup_tracer = Tracer()
        with installed(setup_tracer):
            env.mods.randprog.corpus(args.seed, workloads.CORPUS_SIZE)

    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        ops = workloads.WORKLOADS[args.workload](env, args.seed, Paths(ROOT / "tests" / "golden", Path(tmp)))
        env = None
        outcomes = Outcomes(ops)
        if args.trace:
            metrics = traced_passes(ops, args.seconds, outcomes, setup_tracer)
            raw = {}
        else:
            times = measure(ops, args.seconds, cal, outcomes)
            scaled, raw = end_to_end(setups, times, cal)
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in scaled.items()}

    sizes = {
        "ops": len(ops),
        "corpus": workloads.CORPUS_SIZE,
        "power_n_lowered": workloads.POWER_N_LOWERED,
        "power_n_direct": workloads.POWER_N_DIRECT,
        "cdiff_programs": workloads.CDIFF_PROGRAMS,
        "cdiff_power_n": workloads.CDIFF_POWER_N,
        "setups": SETUPS,
    }
    for problem in outcomes.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        extra = f"  (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"{args.workload:<15} {name:<30} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"{args.workload:<15} {'ops.failed_frac':<30} {outcomes.failed / outcomes.attempted:.6g}"
          f"  ({outcomes.failed} of {outcomes.attempted})")
    if not args.trace:
        print(f"{args.workload:<15} {'calibration.speed':<30} {cal.speed():.6g}  ({len(cal.samples)} samples)")
    print("meta " + json.dumps(environment(args, sizes), sort_keys=True))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
