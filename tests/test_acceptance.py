"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Criteria and tolerances are pinned here; nothing is deferred to later
calibration.  The benchmark scenario is the default configuration: 1000 MW
mean consumption, default seed, 24 periods.
"""

import time

import numpy as np
import pytest

from flexmarket.agents import random_feasible_modulation, verify_scenario_coverage
from flexmarket.cli import main as cli_main
from flexmarket.energy_market import DEMAND, SUPPLY, OfferBook, clear
from flexmarket.imbalance import settle
from flexmarket.lp import solve
from flexmarket.reserve_market import (
    ClassicalBook,
    ModulationBook,
    ReservePrices,
    clear_reserve,
)
from flexmarket.scenario import ScenarioConfig
from flexmarket.simulator import run as run_simulation

from oracles import enumerate_lp_optimum, random_box_lp, sweep_auction_oracle

PRICE_CAP = 3000.0
PI_NC = 500.0


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def benchmark_outcome():
    config = ScenarioConfig(
        seed=1, mean_consumption=1000.0, flexibility_rate=0.06, setting="closed", max_rounds=500
    )
    start = time.perf_counter()
    outcome = run_simulation(config)
    outcome.elapsed = time.perf_counter() - start
    return outcome


def test_criterion_1_lp_solver_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    solved = 0
    worst = 0.0
    while solved < 50:
        lp = random_box_lp(rng, max_vars=6, max_rows=6)
        expected_status, expected = enumerate_lp_optimum(lp)
        solution = solve(lp)
        assert solution.status == expected_status
        if expected_status != "optimal":
            continue
        gap = abs(solution.objective - expected) / max(1.0, abs(expected))
        worst = max(worst, gap)
        assert gap <= 1e-6
        solved += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: LP oracle suite (50 instances, 1e-6, <5s)",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_energy_clearing_matches_breakpoint_sweep():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(100):
        sup = [
            (float(rng.choice([10, 25, 25, 40, 60, 90])), float(rng.uniform(1, 50)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        dem = [
            (float(rng.choice([5, 20, 35, 35, 70, PRICE_CAP])), float(rng.uniform(1, 50)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        offers = [(f"s{i}", 0, SUPPLY, v, p) for i, (p, v) in enumerate(sup)]
        offers += [(f"d{i}", 0, DEMAND, v, p) for i, (p, v) in enumerate(dem)]
        result = clear(OfferBook.from_rows(offers), 1, PRICE_CAP)
        mcp, volume = sweep_auction_oracle(sup, dem, PRICE_CAP)
        if result.price[0] != mcp or abs(result.traded_volume[0] - volume) > 1e-9:
            mismatches += 1
    report(
        "criterion 2: energy clearing vs breakpoint brute force (100 instances)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_3_closed_market_benchmark_band(benchmark_outcome):
    outcome = benchmark_outcome
    cycled = outcome.termination == "cycle" and len(outcome.rounds) <= 500
    mean_price = outcome.cycle_metrics.mean_price
    in_band = 45.0 <= mean_price <= 60.0
    zero_nc = outcome.cycle_metrics.non_contracted <= 1e-7

    retailer_imbalance = 0.0
    producer_imbalance = 0.0
    for record in outcome.terminal_rounds():
        for position in record.retailer_positions.values():
            retailer_imbalance += float(
                np.sum(position.imbalance_up) + np.sum(position.imbalance_down)
            )
        for position in record.producer_positions.values():
            producer_imbalance += float(
                np.sum(position.imbalance_up) + np.sum(position.imbalance_down)
            )
    retailers_clean = retailer_imbalance <= 1e-6

    ok = cycled and in_band and zero_nc and retailers_clean and outcome.elapsed < 120.0
    report(
        "criterion 3: closed benchmark (cycle, MCP band, zero fallback, clean retailers, <2min)",
        ok,
        f"{outcome.termination} after {len(outcome.rounds)} rounds, mean MCP {mean_price:.2f}, "
        f"non-contracted {outcome.cycle_metrics.non_contracted:.2e} MWh, "
        f"retailer imbalance {retailer_imbalance:.2e} MWh "
        f"(producers {producer_imbalance:.2e}), {outcome.elapsed:.1f}s",
    )


def test_criterion_4_open_market_sweep():
    rates = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10]
    start = time.perf_counter()
    cost = {}
    price = {}
    fallback = {}
    for rate in rates:
        for setting in ("closed", "open"):
            config = ScenarioConfig(seed=1, flexibility_rate=rate, setting=setting, max_rounds=500)
            outcome = run_simulation(config)
            cost[(rate, setting)] = outcome.cycle_metrics.procurement_cost
            price[(rate, setting)] = outcome.cycle_metrics.mean_price
            fallback[(rate, setting)] = outcome.cycle_metrics.non_contracted
    elapsed = time.perf_counter() - start

    baseline = cost[(0.0, "open")]
    cost_ratio = cost[(0.10, "open")] / baseline
    cost_ok = cost_ratio <= 0.30

    price_gap = max(abs(price[(r, "open")] - price[(r, "closed")]) for r in rates)
    price_ok = price_gap <= 1.0

    series = [fallback[(r, "open")] for r in rates]
    trend_ok = all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    ok = cost_ok and price_ok and trend_ok and elapsed < 900.0
    report(
        "criterion 4: open-market sweep (cost ratio, MCP gap, fallback trend, <15min)",
        ok,
        f"cost(10%)/cost(0%) = {cost_ratio:.3f}, max MCP gap {price_gap:.3f} EUR/MWh, "
        f"fallback series {['%.2f' % v for v in series]}, {elapsed:.1f}s",
    )


def test_criterion_5_scenario_coverage_property():
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    failures = 0
    for k in range(20):
        load, base, up, down = random_feasible_modulation(rng)
        result = verify_scenario_coverage(load, base, up, down, samples=1000, seed=k)
        failures += result.failures
    elapsed = time.perf_counter() - start
    report(
        "criterion 5: modulation coverage (20 loads x 1000 samples, <10s)",
        failures == 0 and elapsed < 10.0,
        f"{failures} failures, {elapsed:.2f}s",
    )


def test_criterion_6_settlement_invariants():
    rng = np.random.default_rng(99)
    prices = ReservePrices(45.0, 45.0, 10.0, PI_NC)
    worst_balance = 0.0
    worst_neutrality = 0.0
    tariff_rule_holds = True
    procurement = None
    for k in range(200):
        if k % 10 == 0:
            classical = ClassicalBook.from_rows(
                ("g", t, d, float(rng.uniform(4, 14)), float(rng.uniform(5, 70)))
                for t in range(6)
                for d in ("up", "down")
            )
            modulation = ModulationBook.from_rows(
                [
                    ("r", 0, 4, float(rng.uniform(2, 12)), 0.0, 0.5),
                    ("r", 4, 2, float(rng.uniform(2, 8)), 0.0, 0.5),
                ]
            )
            requirement = rng.uniform(4, 12, 6)
            procurement = clear_reserve(classical, modulation, requirement, requirement, prices)
        imbalance = rng.uniform(-25, 25, 6)
        result = settle(imbalance, procurement, PI_NC)

        residual = result.activated_up - result.activated_down + imbalance
        worst_balance = max(worst_balance, float(np.max(np.abs(residual))))
        for v, w in zip(result.modulation_up, result.modulation_down):
            worst_neutrality = max(worst_neutrality, abs(float(np.sum(v - w))))

        bids, held = procurement.classical, procurement.classical_contracted
        classical = list(
            zip(
                bids.period[held], bids.direction[held], bids.activation_price[held],
                bids.volume[held] * procurement.classical_fraction[held],
            )
        )
        bands, sold = procurement.modulation, procurement.modulation_contracted
        modulation = list(
            zip(
                bands.start[sold], bands.length[sold], bands.activation_price[sold],
                bands.amplitude[sold] * procurement.modulation_fraction[sold],
            )
        )
        for t in range(6):
            up_prices = [
                price
                for (period, direction, price, volume), x in zip(classical, result.classical_activation)
                if period == t and direction == "up" and volume * x > 1e-9
            ] + [
                price
                for (start, length, price, volume), v in zip(modulation, result.modulation_up)
                if start <= t < start + length and volume * v[t - start] > 1e-9
            ]
            if result.non_contracted_up[t] > 1e-9:
                expected = PI_NC
            elif up_prices:
                expected = max(up_prices)
            else:
                expected = 0.0
            if result.tariff_up[t] != expected:
                tariff_rule_holds = False

    ok = worst_balance <= 1e-7 and worst_neutrality <= 1e-9 and tariff_rule_holds
    report(
        "criterion 6: settlement invariants on 200 random profiles",
        ok,
        f"worst balance {worst_balance:.2e} MW, worst neutrality {worst_neutrality:.2e}, "
        f"tariff rule {'held' if tariff_rule_holds else 'violated'}",
    )


def test_criterion_7_manifest_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    args = ["run", "--out-dir", str(first), "--seed", "1", "--rate", "0.06", "--setting", "closed"]
    assert cli_main(args) == 0
    assert cli_main(["replay", str(first / "manifest.txt"), "--out-dir", str(second)]) == 0
    identical = (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
    report(
        "criterion 7: byte-identical metric CSVs from the same manifest",
        identical,
        "metrics.csv bytes equal" if identical else "metrics.csv differ",
    )
