import contextlib
import dataclasses

import numpy as np
import pytest

from flexmarket import lp, simulator
from flexmarket.agents import GenerationUnit, ProducerPortfolio, RetailerPortfolio
from flexmarket.scenario import Scenario, ScenarioConfig, generate_scenario
from flexmarket.simulator import (
    RoundMetrics,
    _match_earlier,
    _round_metrics,
    aggregate_metrics,
    run,
)


def small_config(**overrides):
    base = dict(
        seed=1,
        mean_consumption=1000.0,
        flexibility_rate=0.06,
        setting="closed",
        max_rounds=60,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# cycle detection
# ---------------------------------------------------------------------------


def earlier_matches(states, tol=1e-6):
    """What ``run`` sees after each round: the earliest earlier round whose
    state matches that round's, or None."""
    return [_match_earlier(states[: r + 1], tol) for r in range(len(states))]


def test_detect_cycle_identical_consecutive_rounds():
    a, b, c = (np.array([float(k)]) for k in range(3))
    assert earlier_matches([a, b, c, c.copy()]) == [None, None, None, 2]


def test_detect_cycle_alternating_states():
    a, b = np.array([1.0]), np.array([2.0])
    # run stops at the first hit: round 2 repeats round 0, a cycle of length 2
    assert earlier_matches([a, b, a.copy(), b.copy()]) == [None, None, 0, 1]


def test_detect_cycle_injected_repeat():
    states = [np.array([float(k), float(k * k)]) for k in range(13)]
    states[12] = states[7].copy()
    assert earlier_matches(states) == [None] * 12 + [7]


def test_detect_cycle_absent():
    states = [np.array([float(k)]) for k in range(6)]
    assert earlier_matches(states) == [None] * 6


def test_detect_cycle_respects_tolerance():
    a = np.array([1.0])
    near = np.array([1.0 + 5e-7])
    far = np.array([1.0 + 5e-5])
    assert _match_earlier([a, far], 1e-6) is None
    assert _match_earlier([a, near], 1e-6) == 0


# ---------------------------------------------------------------------------
# metric aggregation
# ---------------------------------------------------------------------------


class _Stub:
    def __init__(self, metrics):
        self.metrics = metrics


def test_aggregate_metrics_means_match_hand_computation():
    rounds = [
        _Stub(RoundMetrics(50.0, 2.0, 10.0, 1000.0, 0.0)),
        _Stub(RoundMetrics(52.0, 4.0, 30.0, 3000.0, 6.0)),
    ]
    means = aggregate_metrics(rounds)
    assert means.mean_price == pytest.approx(51.0)
    assert means.price_variability == pytest.approx(3.0)
    assert means.total_imbalance == pytest.approx(20.0)
    assert means.procurement_cost == pytest.approx(2000.0)
    assert means.non_contracted == pytest.approx(3.0)


def test_flat_price_round_has_zero_variability():
    metrics = aggregate_metrics([_Stub(RoundMetrics(50.0, 0.0, 0.0, 0.0, 0.0))])
    assert metrics.price_variability == 0.0


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def flat_cost_scenario(config):
    """One producer with uniform-cost units, one retailer, no flexibility."""
    t = config.periods
    demand = config.demand_profile()
    unit = GenerationUnit(
        name="uniform",
        power_min=np.zeros(t),
        power_max=np.full(t, 2.0 * float(demand.max())),
        ramp_up=2.0 * float(demand.max()),
        ramp_down=2.0 * float(demand.max()),
        cost=np.full(t, 48.0),
        initial_output=float(demand[0]),
    )
    producer = ProducerPortfolio(
        name="producer-1",
        units=[unit],
        imbalance_limit=0.05 * float(demand.max()),
        production_bias=0.5,
    )
    retailer = RetailerPortfolio(
        name="retailer-1",
        inelastic=demand,
        loads=[],
        imbalance_limit=0.05 * float(demand.max()),
    )
    return Scenario(config=config, producers=[producer], retailers=[retailer], demand=demand)


def test_fixed_point_with_single_flat_cost_producer():
    config = small_config(flexibility_rate=0.0, producer_count=1, retailer_count=1)
    outcome = run(config, scenario=flat_cost_scenario(config))
    assert outcome.termination == "cycle"
    assert outcome.cycle_length == 1
    # positions repeat from the second round on, even though the learned
    # state needs one more round to settle
    position_states = [r.state for r in outcome.rounds]
    assert earlier_matches(position_states)[:3] == [None, None, 1]
    assert outcome.cycle_metrics.mean_price == pytest.approx(48.0)


def test_benchmark_run_cycles_with_sane_terminal_metrics():
    outcome = run(small_config(max_rounds=500))
    assert outcome.termination == "cycle"
    metrics = outcome.cycle_metrics
    assert 45.0 <= metrics.mean_price <= 60.0
    assert metrics.non_contracted == pytest.approx(0.0, abs=1e-7)
    for record in outcome.terminal_rounds():
        for position in record.retailer_positions.values():
            assert float(np.sum(position.imbalance_up + position.imbalance_down)) <= 1e-6


def test_round_records_conserve_energy_and_balance():
    outcome = run(small_config(max_rounds=30))
    for record in outcome.rounds:
        sold = sum(
            offer.volume * fraction
            for offer, fraction in zip(record.offers, record.clearing.fractions)
            if offer.side == "supply"
        )
        bought = sum(
            offer.volume * fraction
            for offer, fraction in zip(record.offers, record.clearing.fractions)
            if offer.side == "demand"
        )
        assert abs(sold - bought) <= 1e-6
        residual = (
            record.settlement.activated_up
            - record.settlement.activated_down
            + record.settlement.imbalance
        )
        assert np.max(np.abs(residual)) <= 1e-7


def test_metrics_recomputable_from_record():
    outcome = run(small_config(max_rounds=10))
    for record in outcome.rounds:
        again = _round_metrics(
            record.energy_price, record.procurement, record.settlement,
            outcome.config.period_hours,
        )
        assert again.as_tuple() == pytest.approx(record.metrics.as_tuple())


def test_zero_reserve_rate_uses_only_non_contracted():
    outcome = run(small_config(reserve_rate=0.0, max_rounds=4))
    for record in outcome.rounds:
        assert record.procurement.contracted_cost == pytest.approx(0.0)
        assert record.metrics.procurement_cost == pytest.approx(0.0)
        # whatever imbalance arises is covered entirely by the fallback
        covered = record.settlement.non_contracted_up + record.settlement.non_contracted_down
        total = record.settlement.activated_up + record.settlement.activated_down
        assert np.allclose(covered, total, atol=1e-9)
        deficit = np.maximum(-record.settlement.imbalance, 0.0)
        if deficit.max() > 1e-9:
            assert np.all(record.tariff_up[deficit > 1e-9] == outcome.config.non_contracted_price)


def test_same_config_and_seed_reproduce_identically():
    first = run(small_config(max_rounds=25))
    second = run(small_config(max_rounds=25))
    assert first.termination == second.termination
    assert first.cycle_start == second.cycle_start
    assert len(first.rounds) == len(second.rounds)
    for a, b in zip(first.rounds, second.rounds):
        assert np.array_equal(a.state, b.state)
        assert a.metrics.as_tuple() == b.metrics.as_tuple()


def same_fields(a, b):
    """Deep equality of dataclasses holding arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_fields(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_fields(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_fields, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_running_a_scenario_twice_repeats_the_first_run():
    # the learned pins belong to the run: a second run on the same Scenario
    # object starts unpinned, exactly like the first
    for config in (small_config(), small_config(setting="open", flexibility_rate=0.10)):
        scenario = generate_scenario(config)
        first = run(config, scenario)
        second = run(config, scenario)
        assert first.termination == second.termination
        assert len(first.rounds) == len(second.rounds)
        for a, b in zip(first.rounds, second.rounds):
            assert np.array_equal(a.state, b.state)
            assert a.metrics.as_tuple() == b.metrics.as_tuple()
        fresh = generate_scenario(config)
        assert same_fields(scenario.producers, fresh.producers)
        assert same_fields(scenario.retailers, fresh.retailers)


def test_solve_memo_changes_no_outcome_and_ends_with_the_run(monkeypatch):
    # symmetric retailers with bands hand HiGHS identical models in a round
    config = small_config(
        setting="open", flexibility_rate=0.30, retailer_count=3, loads_per_retailer=2,
        bid_block_length=2, max_rounds=6,
    )
    counts = {"solve": 0, "highs": 0}
    highs_solve, solve = lp._highs_solve, lp.solve

    def counting_highs(model):
        counts["highs"] += 1
        return highs_solve(model)

    def counting_solve(model):
        counts["solve"] += 1
        return solve(model)

    monkeypatch.setattr(lp, "_highs_solve", counting_highs)
    for caller in ("agents.producer", "agents.retailer", "reserve_market", "imbalance"):
        monkeypatch.setattr(f"flexmarket.{caller}.solve", counting_solve)

    memoised = run(config)
    first = dict(counts)
    assert first["highs"] < first["solve"]
    counts.update(solve=0, highs=0)
    run(config)
    assert counts == first, "a second run must not reuse the first run's solves"

    monkeypatch.setattr(lp, "solve_memo", contextlib.nullcontext)
    plain = run(config)
    assert memoised.termination == plain.termination
    assert (memoised.cycle_start, memoised.cycle_length) == (plain.cycle_start, plain.cycle_length)
    assert len(memoised.rounds) == len(plain.rounds)
    for a, b in zip(memoised.rounds, plain.rounds):
        for name in ("energy_price", "tariff_up", "tariff_down", "state"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert same_fields(a.retailer_positions, b.retailer_positions)
        assert same_fields(a.producer_positions, b.producer_positions)
        assert same_fields(a.procurement, b.procurement)
        assert same_fields(a.settlement, b.settlement)
        assert a.metrics.as_tuple() == b.metrics.as_tuple()
    assert memoised.cycle_metrics.as_tuple() == plain.cycle_metrics.as_tuple()


def test_solve_memo_holds_one_round(monkeypatch):
    # a memo that outlives its round keeps every solution of a run that
    # never terminates
    play_round = simulator._play_round
    started = []

    def checked(index, *args):
        assert lp._memo.get() == {}, f"round {index} starts with a used memo"
        started.append(index)
        return play_round(index, *args)

    monkeypatch.setattr(simulator, "_play_round", checked)
    outcome = run(small_config(setting="open", max_rounds=4))
    assert started == list(range(len(outcome.rounds)))
    assert len(started) >= 2


def test_reported_cycle_reverifies_against_records():
    outcome = run(small_config(max_rounds=500))
    assert outcome.termination == "cycle"
    start, length = outcome.cycle_start, outcome.cycle_length
    a = outcome.rounds[start].state
    b = outcome.rounds[start + length].state
    assert np.max(np.abs(a - b)) <= outcome.config.state_tolerance


def test_open_setting_contracts_modulation():
    outcome = run(small_config(setting="open", max_rounds=60))
    record = outcome.terminal_rounds()[0]
    contracted = record.procurement.contracted_modulation()
    assert contracted, "flexibility should win part of the reserve book"
    assert record.metrics.procurement_cost < 0.5 * 43000.0


def test_final_positions_hold_exactly_the_contracted_reserve():
    record = run(small_config(setting="open", max_rounds=1)).rounds[0]
    procurement = record.procurement
    assert procurement.contracted_classical() and procurement.contracted_modulation()
    for name, position in record.producer_positions.items():
        contracted = {"up": np.zeros(24), "down": np.zeros(24)}
        for bid, x in zip(procurement.classical, procurement.classical_fraction):
            if bid.actor == name:
                contracted[bid.direction][bid.period] += bid.volume * x
        held_up, held_down = position.reserve.sum(axis=0).T
        assert np.allclose(held_up, contracted["up"], rtol=0, atol=1e-9)
        assert np.allclose(held_down, contracted["down"], rtol=0, atol=1e-9)
    for name, position in record.retailer_positions.items():
        sold = dict.fromkeys(position.windows, 0.0)
        for bid, x in zip(procurement.modulation, procurement.modulation_fraction):
            if bid.actor == name:
                sold[(bid.start, bid.length)] += bid.amplitude * x
        assert np.allclose(position.amplitudes, list(sold.values()), rtol=0, atol=1e-9)


def test_generate_scenario_determinism_and_sizing():
    config = small_config()
    first = generate_scenario(config)
    second = generate_scenario(config)
    for a, b in zip(first.producers, second.producers):
        for unit_a, unit_b in zip(a.units, b.units):
            assert np.array_equal(unit_a.cost, unit_b.cost)
            assert unit_a.initial_output == unit_b.initial_output
    flexible_mean = np.mean(
        np.sum([load.loss / load.efficiency for r in first.retailers for load in r.loads], axis=0)
    )
    assert flexible_mean == pytest.approx(0.06 * 1000.0, rel=1e-9)

    bare = generate_scenario(small_config(flexibility_rate=0.0))
    assert all(not r.loads for r in bare.retailers)
    total_inelastic = np.sum([r.inelastic for r in bare.retailers], axis=0)
    assert np.allclose(total_inelastic, bare.demand)


# ---------------------------------------------------------------------------
# the paper's claims
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="claim (c) is not reproduced: terminal windows never use non-contracted reserve",
)
def test_more_flexibility_relies_more_on_non_contracted_reserve():
    def terminal_non_contracted(rate):
        config = ScenarioConfig(seed=1, flexibility_rate=rate, setting="open", max_rounds=500)
        return run(config).cycle_metrics.non_contracted

    assert terminal_non_contracted(0.10) > terminal_non_contracted(0.0)
