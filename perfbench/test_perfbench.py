"""Checks of the benchmark itself, at a reduced length.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "simulator.rounds", "lp.solve.calls", "lp.highs_iterations",
    "lp.variables", "lp.rows", "lp.nonzeros",
)


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--seconds", "0", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_closed():
    # 4 s buys 17 rounds of closed-24: two bare-and-traced pairs of 7 rounds
    return [bench("--workload", "closed-24", "--trace", "1", "--seconds", "4") for _ in range(2)]


def test_exact_counts_repeat_between_runs(traced_closed):
    first, second = ({k: s["metrics"][k]["value"] for k in EXACT_COUNTS} for s in traced_closed)
    assert first == second
    assert [(s["attempted"], s["failed"]) for s in traced_closed] == [(5, 0), (5, 0)]
    assert all(v > 0 for v in first.values())
    assert all(s["correct"] and s["failed"] == 0 for s in traced_closed)


@pytest.mark.parametrize("workload", ["closed-24", "coverage"])
def test_every_metric_printed_with_its_unit(workload, traced_closed):
    plain = bench("--workload", workload, "--trace", "0")
    traced = traced_closed[0] if workload == "closed-24" else bench("--workload", workload, "--trace", "1")
    for summary, listed in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert summary["attempted"] >= 1
        assert {k: m["unit"] for k, m in summary["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0
    if workload == "coverage":
        assert traced["metrics"]["lp.solve.calls"]["value"] == 0
        assert traced["metrics"]["agents.tank.samples"]["value"] == 20_000


def test_injected_invariant_break_counts_as_failure(monkeypatch):
    import flexmarket.imbalance as imbalance

    settle = imbalance.settle

    def off_balance(*args, **kwargs):
        result = settle(*args, **kwargs)
        return dataclasses.replace(result, activated_up=result.activated_up + 1.0)

    monkeypatch.setattr(imbalance, "settle", off_balance)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    summary = run.measure(WORKLOADS["closed-24"], 1, 0.0, trace=False)
    assert summary["attempted"] >= 2
    assert summary["failed"] == summary["attempted"]
    assert summary["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-24", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
