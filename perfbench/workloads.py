"""The benchmark's workloads: inputs made from a seed, one timed operation
each, and the checks every operation's output must pass.

A simulation operation is ``simulator.run(config)`` followed by
``cli.write_outputs(outcome, dir, "all")``, which is what ``flexmarket run``
does.  A coverage operation is one pass of the band checker over 20 random
loads of 1000 samples, which is what ``flexmarket verify`` does.

Every operation gets fresh inputs made from the run's seed, so repetitions
must agree exactly.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: |activated_up - activated_down + sum of actor imbalances|, in MW, per round
BALANCE_TOL = 1e-6
#: cycle-mean non-contracted energy on the closed market, in MWh
NON_CONTRACTED_TOL = 1e-7

COVERAGE_LOADS = 20
COVERAGE_SAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    #: ScenarioConfig fields apart from the seed; None for the coverage checker.
    #: ``max_rounds`` is twice the most rounds a terminating run took over
    #: seeds 1-30 (1-10 for open-96).  Runs that never terminate (ROADMAP
    #: item 4) fail either way; at the default 500 rounds one of them would
    #: outlast the whole benchmark run.
    config: dict | None
    #: wall ms of one unit of work (a round, or a load checked for coverage),
    #: write-out included, on the reference machine (2-vCPU Xeon at 2.1 GHz).
    #: It fixes how much work a run does, not what is measured.
    unit_ms: float

    @property
    def max_units(self) -> int:
        """Units of one operation at most: ``max_rounds``, or the coverage loads."""
        return COVERAGE_LOADS if self.config is None else self.config["max_rounds"]

    def budget(self, seconds: float) -> int:
        """Units of work in a run meant to last ``seconds`` on the reference
        machine.  The budget depends on nothing measured, and the units of an
        operation at one seed are fixed, so every run at a seed does the same
        operations: ``attempted`` and ``failed`` repeat exactly."""
        return math.ceil(1000 * seconds / self.unit_ms)


WORKLOADS = {
    w.name: w
    for w in (
        # many small LPs (at most 552 x 648): model building and per-call
        # overhead dominate; acceptance criterion 3's config
        Workload("closed-24", dict(setting="closed", flexibility_rate=0.06, max_rounds=16), 240),
        # retailer tank and band LPs and band-bid reserve clearing do most of the work
        Workload(
            "open-bands",
            dict(setting="open", flexibility_rate=0.30, retailer_count=6, loads_per_retailer=4,
                 producer_count=2, bid_block_length=2, max_rounds=6),
            430,
        ),
        # quarter-hour horizon: few large LPs (2208 x 2592), where the dense
        # round trip outweighs HiGHS itself
        Workload(
            "open-96",
            dict(setting="open", flexibility_rate=0.10, periods=96, period_hours=0.25,
                 max_rounds=20),
            2100,
        ),
        # the band coverage checker on 20 loads x 1000 samples: no LP at all
        Workload("coverage", None, 100),
    )
}


def make_inputs(workload: Workload, seed: int):
    """The program's input for one scenario: a fresh ScenarioConfig, or the
    coverage loads (``flexmarket verify --seed seed``)."""
    if workload.config is None:
        from flexmarket.agents import random_feasible_modulation

        rng = np.random.default_rng(seed)
        return [random_feasible_modulation(rng) for _ in range(COVERAGE_LOADS)]
    from flexmarket.scenario import ScenarioConfig

    return ScenarioConfig(seed=seed, **workload.config)


@dataclass
class OpResult:
    seed: int
    run_s: float = 0.0
    #: wall time of the simulation alone (the checker pass for coverage)
    work_s: float = 0.0
    #: rounds played, or loads checked for coverage
    units: int = 0
    #: why the operation did not finish (it raised, or hit max_rounds)
    unfinished: str | None = None
    #: broken output checks: invariants, repetitions that differ
    problems: list[str] = field(default_factory=list)
    #: terminal values compared across repetitions and with the reference
    terminal: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.unfinished is None and not self.problems


def run_operation(workload: Workload, seed: int, inputs, out_dir: Path) -> OpResult:
    """Time one operation on ``inputs`` and check its output."""
    result = OpResult(seed)
    if workload.config is None:
        _coverage_pass(seed, inputs, result)
    else:
        _simulation(workload, inputs, out_dir, result)
    return result


def _simulation(workload, config, out_dir, result):
    from flexmarket import cli, simulator

    if out_dir.exists():
        shutil.rmtree(out_dir)
    start = time.perf_counter()
    outcome = simulator.run(config)
    mid = time.perf_counter()
    cli.write_outputs(outcome, out_dir, "all")
    end = time.perf_counter()
    result.run_s, result.work_s = end - start, mid - start
    result.units = len(outcome.rounds)
    m = outcome.cycle_metrics
    result.terminal = {
        "termination": outcome.termination,
        "rounds": len(outcome.rounds),
        "mean_price": m.mean_price,
        "procurement_cost": m.procurement_cost,
        "non_contracted": m.non_contracted,
        "metrics_csv_sha256": hashlib.sha256((out_dir / "metrics.csv").read_bytes()).hexdigest(),
    }
    result.problems.extend(check_simulation(outcome, workload))
    if outcome.termination not in ("cycle", "converged"):
        result.unfinished = f"ended by {outcome.termination} after {len(outcome.rounds)} rounds"


def check_simulation(outcome, workload: Workload) -> list[str]:
    """Invariants that hold at any optimal vertex.  Criterion 3's zero
    non-contracted energy is a property of the cycle, so it is checked only
    on runs that terminated."""
    problems = []
    for record in outcome.rounds:
        s = record.settlement
        balance = s.activated_up - s.activated_down
        for position in (*record.retailer_positions.values(), *record.producer_positions.values()):
            balance = balance + position.imbalance_up - position.imbalance_down
        gap = float(np.max(np.abs(balance)))
        if gap > BALANCE_TOL:
            problems.append(f"round {record.index}: settlement off balance by {gap:.3e} MW")
    if workload.config.get("setting") == "closed" and outcome.termination != "max_rounds":
        nc = outcome.cycle_metrics.non_contracted
        if nc > NON_CONTRACTED_TOL:
            problems.append(f"closed market used {nc:.3e} MWh non-contracted energy")
    return problems


def _coverage_pass(seed, loads, result):
    from flexmarket.agents import tank

    start = time.perf_counter()
    reports = [
        tank.verify_scenario_coverage(load, base, up, down, samples=COVERAGE_SAMPLES, seed=seed + k)
        for k, (load, base, up, down) in enumerate(loads)
    ]
    result.run_s = result.work_s = time.perf_counter() - start
    result.units = len(reports)
    failures = sum(r.failures for r in reports)
    result.terminal = {
        "samples": sum(r.samples for r in reports),
        "failures": failures,
        "periods": sum(load.horizon for load, *_ in loads),
    }
    if failures:
        result.problems.append(f"{failures} coverage samples failed")
