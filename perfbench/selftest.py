"""Checks of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's own test run does not
collect it: it runs the benchmark end to end (about three minutes) and
re-imports stagedsl.  No test pins a count's value, only that counts repeat,
so a change that removes work (say, re-lowering on every loop pass) passes
unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, (unit, _, _) in run.PER_LAYER.items() if unit in ("count", "bytes")]


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, nth: int = 0) -> tuple[int, dict | None, dict | None]:
    """Exit code, last-line JSON result and metadata of one benchmark run;
    nth tells apart runs that are otherwise the same."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    result = meta = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
    return proc.returncode, result, meta


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [bench(workload, 1, 1), bench(workload, 1, 1, nth=1)]
    for code, result, _ in runs:
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    first, second = (r["metrics"] for _, r, _ in runs)
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_second_seed_gives_the_same_shape(workload):
    (_, one, meta_one), (_, two, meta_two) = bench(workload, 1, 1), bench(workload, 2, 1)
    assert meta_one["sizes"] == meta_two["sizes"]
    assert one["attempted"] == two["attempted"]
    assert set(one["metrics"]) == set(two["metrics"])


def test_untraced_run_prints_every_end_to_end_metric():
    code, result, meta = bench("power-direct", 3, 0)
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("commit", "python", "cc", "nproc", "seed", "sizes"):
        assert key in meta


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    code, result, _ = bench("power-loop", 1, 0, tmp_path)
    assert code != 0 and result is None


def _spoil(value):
    """The same result with its first string changed."""
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            spoiled = _spoil(item)
            if spoiled is not item:
                return value[:i] + (spoiled,) + value[i + 1 :]
    return value


@pytest.fixture(scope="module")
def small_env():
    saved = workloads.CORPUS_SIZE, workloads.CDIFF_PROGRAMS, workloads.CDIFF_POWER_N
    workloads.CORPUS_SIZE, workloads.CDIFF_PROGRAMS, workloads.CDIFF_POWER_N = 6, 3, 1000
    sys.path.insert(0, str(ROOT / "src"))
    try:
        yield workloads.setup(5)
    finally:
        workloads.CORPUS_SIZE, workloads.CDIFF_PROGRAMS, workloads.CDIFF_POWER_N = saved


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reference_checks_reject_a_wrong_output(workload, small_env, tmp_path):
    paths = run.Paths(ROOT / "tests" / "golden", tmp_path)
    for op in workloads.WORKLOADS[workload](small_env, 5, paths):
        result, _ = op.run()
        assert op.check(result) is None, op.label
        spoiled = _spoil(result)
        assert spoiled != result
        assert op.check(spoiled) is not None, op.label
