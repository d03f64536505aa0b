import dataclasses
import functools
import multiprocessing
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import oracles
from flexmarket import energy_market, imbalance, lp, simulator
from flexmarket.agents import (
    GenerationUnit,
    ProducerPortfolio,
    RetailerPortfolio,
    verify_scenario_coverage,
)
from flexmarket.agents.retailer import ConfigurationError
from flexmarket.scenario import Scenario, ScenarioConfig, generate_scenario
from flexmarket.simulator import (
    RoundMetrics,
    SimulationOutcome,
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


@pytest.mark.parametrize(
    "termination, n, cycle, window",
    [
        ("cycle", 9, (3, 4), range(3, 7)),
        ("converged", 9, (None, None), range(8, 9)),
        ("max_rounds", 7, (None, None), range(0, 7)),
        # only the last 50 rounds of a long run
        ("max_rounds", 60, (None, None), range(10, 60)),
    ],
    ids=["cycle", "converged", "max-rounds-7", "max-rounds-60"],
)
def test_terminal_window_per_termination(termination, n, cycle, window):
    rounds = [
        _Stub(RoundMetrics(40.0 + k, float(k % 3), 2.0 * k, 100.0 * k, float(k % 2)))
        for k in range(n)
    ]
    outcome = SimulationOutcome(termination, *cycle, rounds, small_config())
    expected = [rounds[k] for k in window]
    assert outcome.terminal_rounds() == expected
    assert outcome.cycle_metrics == aggregate_metrics(expected)


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
    return Scenario(config=config, producers=[producer], retailers=[retailer])


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
        offers, fractions = record.offers, record.clearing.fractions
        sold = sum((offers.volume * fractions)[offers.side == "supply"])
        bought = sum((offers.volume * fractions)[offers.side == "demand"])
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
            record.clearing.price, record.procurement, record.settlement,
            outcome.config.period_hours,
        )
        assert dataclasses.astuple(again) == pytest.approx(dataclasses.astuple(record.metrics))


def test_stage_guard_annotates_errors_and_lets_interrupts_through():
    at = types.SimpleNamespace(index=3, stage="settlement", actor="operator")
    with pytest.raises(simulator.RoundError, match="round 3, stage 'settlement', actor 'operator'"):
        with simulator._stage_guard(at):
            raise ValueError("boom")
    # a Ctrl-C must stop a sweep, not become one failed cell
    with pytest.raises(KeyboardInterrupt):
        with simulator._stage_guard(at):
            raise KeyboardInterrupt


@pytest.mark.parametrize(
    "owner, binding, stage, actor",
    [
        (simulator, "build_retailer_model", "day-ahead", "retailer-1"),
        (simulator, "retailer_demand_offers", "day-ahead", "retailer-1"),
        (simulator, "producer_energy_offers", "day-ahead", "producer-1"),
        (energy_market, "clear", "energy-clearing", "market"),
        (simulator, "producer_reserve_bids", "reserve-bidding", "producer-1"),
        (simulator, "retailer_band_bids", "reserve-bidding", "retailer-1"),
        (simulator, "clear_reserve", "reserve-clearing", "market"),
        (simulator, "accepted_volumes", "reposition", "producer-1"),
        (imbalance, "settle", "settlement", "operator"),
        (imbalance, "fees", "settlement", "operator"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_a_failure_in_each_stage_names_round_stage_and_actor(monkeypatch, owner, binding, stage, actor):
    # the offer and bid books and the fees were built outside every guard
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(owner, binding, fail)
    with pytest.raises(
        simulator.RoundError, match=f"^round 0, stage {stage!r}, actor {actor!r}: boom$"
    ):
        run(small_config(max_rounds=1))


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
            tariff_up = record.settlement.tariff_up
            assert np.all(tariff_up[deficit > 1e-9] == outcome.config.non_contracted_price)


def test_same_config_and_seed_reproduce_identically():
    first = run(small_config(max_rounds=25))
    second = run(small_config(max_rounds=25))
    assert first.termination == second.termination
    assert first.cycle_start == second.cycle_start
    assert len(first.rounds) == len(second.rounds)
    for a, b in zip(first.rounds, second.rounds):
        assert np.array_equal(a.state, b.state)
        assert dataclasses.astuple(a.metrics) == dataclasses.astuple(b.metrics)


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
            assert dataclasses.astuple(a.metrics) == dataclasses.astuple(b.metrics)
        fresh = generate_scenario(config)
        assert same_fields(scenario.producers, fresh.producers)
        assert same_fields(scenario.retailers, fresh.retailers)


def test_a_scenario_of_another_config_is_rejected():
    # the markets would play at the scenario's reserve rate while the
    # outcome and its manifest record the run's
    base = small_config(max_rounds=1)
    with pytest.raises(ValueError, match="scenario.config"):
        run(dataclasses.replace(base, reserve_rate=0.05), generate_scenario(base))


def open_scenario(**overrides):
    """A generated open scenario with flexible loads."""
    config = small_config(setting="open", flexibility_rate=0.1, **overrides)
    return config, generate_scenario(config)


#: each input class of a scenario, reached from the scenario, with one of its fields
INPUT_PARTS = {
    "scenario": (lambda s: s, "retailers"),
    "retailer": (lambda s: s.retailers[0], "imbalance_limit"),
    "load": (lambda s: s.retailers[0].loads[0], "efficiency"),
    "producer": (lambda s: s.producers[0], "units"),
    "unit": (lambda s: s.producers[0].units[0], "ramp_up"),
}


@pytest.mark.parametrize("part, field_name", INPUT_PARTS.values(), ids=INPUT_PARTS)
def test_scenario_inputs_are_frozen(part, field_name):
    value = part(open_scenario()[1])
    with pytest.raises(dataclasses.FrozenInstanceError, match=field_name):
        setattr(value, field_name, getattr(value, field_name))


@pytest.mark.parametrize(
    "part, change, error",
    [
        ("load", {"efficiency": 2.0}, "efficiency must lie in"),
        ("unit", {"ramp_up": -1.0}, "ramp_up not finite and >= 0"),
        ("retailer", {"imbalance_limit": -1.0}, "imbalance limit not >= 0"),
        ("producer", {"units": []}, "no units"),
    ],
)
def test_replacing_a_field_of_an_input_checks_it_again(part, change, error):
    value = INPUT_PARTS[part][0](open_scenario()[1])
    # a load's checks raise ValueError, the others' ConfigurationError
    raised = ValueError if part == "load" else ConfigurationError
    with pytest.raises(raised, match=error):
        dataclasses.replace(value, **change)


def test_a_load_of_a_scenario_cannot_be_broken_under_its_run():
    # before, this assignment was accepted and the run failed in round 0:
    # "retailer 'retailer-1' position problem is infeasible"
    config, scenario = open_scenario(max_rounds=1)
    with pytest.raises(dataclasses.FrozenInstanceError, match="'efficiency'"):
        scenario.retailers[0].loads[0].efficiency = 2.0
    assert scenario.retailers[0].loads[0].efficiency == 1.0
    assert len(run(config, scenario).rounds) == 1


def renamed_actor(scenario, kind, index, name):
    """``scenario`` with actor ``index`` of ``kind`` (``"retailers"`` or
    ``"producers"``) renamed to ``name``; its loads and units keep theirs."""
    actors = list(getattr(scenario, kind))
    actors[index] = dataclasses.replace(actors[index], name=name)
    return dataclasses.replace(scenario, **{kind: actors})


@pytest.mark.parametrize(
    "kind, index, name",
    [("producers", 1, "producer-1"), ("retailers", 1, "retailer-1"), ("retailers", 0, "producer-1")],
    ids=["two-producers", "two-retailers", "retailer-and-producer"],
)
def test_actors_that_share_a_name_are_rejected_before_round_0(monkeypatch, kind, index, name):
    # positions, fees and accepted bids are keyed by name: two producers
    # named alike kept one position and one fee, with both producers'
    # cleared supply fixed as its sale; a retailer named like a producer
    # failed mid-round on the producer's position
    config = small_config(producer_count=2, max_rounds=3)
    scenario = renamed_actor(generate_scenario(config), kind, index, name)

    def no_round(*args):
        raise AssertionError("a round was played")

    monkeypatch.setattr(simulator, "_play_round", no_round)
    with pytest.raises(ValueError, match=f"^actor name {name!r} is used by two actors$"):
        run(config, scenario)


@pytest.mark.parametrize(
    "setting, rate", [("closed", 0.0), ("closed", 0.10), ("open", 0.10)]
)
def test_actor_order_changes_no_outcome(setting, rate):
    config = small_config(setting=setting, flexibility_rate=rate)
    scenario = generate_scenario(config)
    reversed_scenario = dataclasses.replace(
        scenario, retailers=scenario.retailers[::-1], producers=scenario.producers[::-1]
    )
    first, second = run(config, scenario), run(config, reversed_scenario)
    assert (first.termination, first.cycle_start, first.cycle_length) == (
        second.termination, second.cycle_start, second.cycle_length
    )
    assert len(first.rounds) == len(second.rounds)
    for a, b in zip(first.rounds, second.rounds):
        for part in ("clearing.price", "settlement.tariff_up", "settlement.tariff_down"):
            owner, field = part.split(".")
            x, y = getattr(getattr(a, owner), field), getattr(getattr(b, owner), field)
            assert x.tobytes() == y.tobytes(), (a.index, part)
        # procurement cost is summed over the bids in book order
        # (``ordered_sum``), which follows actor order: only its rounding moves
        assert a.metrics.procurement_cost == pytest.approx(
            b.metrics.procurement_cost, rel=1e-12, abs=0.0
        ), a.index


@pytest.mark.parametrize("setting, rate", [("closed", 0.10), ("open", 0.30)])
def test_demand_split_and_volume_unit_change_no_outcome(setting, rate):
    # price-taking agents must not care how demand is split among twin
    # retailers or in what unit volumes are counted (ROADMAP item 12)
    def outcome(**overrides):
        result = run(small_config(setting=setting, flexibility_rate=rate, **overrides))
        cycle = result.cycle_metrics
        summary = (result.termination, len(result.rounds), result.cycle_start, result.cycle_length)
        return summary + (round(cycle.mean_price, 4),), cycle.procurement_cost

    base, base_cost = outcome()
    for count in (1, 12):
        assert outcome(retailer_count=count)[0] == base, count
    for factor in (0.5, 8.0):
        summary, cost = outcome(mean_consumption=1000.0 * factor)
        assert summary == base, factor
        assert cost / factor == pytest.approx(base_cost, abs=0.005), factor


# ---------------------------------------------------------------------------
# twins: actors equal but for their names, solved once per stage
# ---------------------------------------------------------------------------


@pytest.fixture
def agent_calls(monkeypatch):
    """The agent calls of a run, as (kind, names of the fixed quantities)
    pairs, a producer's ``basis`` left out, the kind of each agent model
    built and the number of HiGHS calls."""
    calls = {"agents": [], "builds": [], "highs": 0}
    highs_solve = lp._highs_solve

    def counting_highs(*args):
        calls["highs"] += 1
        return highs_solve(*args)

    def counting(kind, optimize):
        def call(model, *args, **fixed):
            # where a producer's simplex starts is not a fixed quantity
            calls["agents"].append((kind, tuple(sorted(fixed.keys() - {"basis"}))))
            return optimize(model, *args, **fixed)

        return call

    def counting_builds(kind, build):
        def call(*args):
            calls["builds"].append(kind)
            return build(*args)

        return call

    monkeypatch.setattr(lp, "_highs_solve", counting_highs)
    for kind in ("retailer", "producer"):
        name = f"build_{kind}_model"
        monkeypatch.setattr(simulator, name, counting_builds(kind, getattr(simulator, name)))
    monkeypatch.setattr(
        simulator, "optimize_retailer", counting("retailer", simulator.optimize_retailer)
    )
    monkeypatch.setattr(
        simulator, "optimize_producer", counting("producer", simulator.optimize_producer)
    )
    return calls


def no_twins(portfolios):
    return {portfolio.name: k for k, portfolio in enumerate(portfolios)}


def test_twins_change_no_outcome_and_a_second_run_repeats_the_solves(monkeypatch, agent_calls):
    # the generated retailers are twins; with bands on they build the
    # largest models of a round
    config = small_config(
        setting="open", flexibility_rate=0.30, retailer_count=3, loads_per_retailer=2,
        bid_block_length=2, max_rounds=6,
    )
    shared = run(config)
    first = {key: len(agent_calls[key]) for key in ("agents", "builds")}
    first["highs"] = agent_calls["highs"]
    retailer_calls = sum(kind == "retailer" for kind, _ in agent_calls["agents"])
    assert retailer_calls < 2 * config.retailer_count * len(shared.rounds)

    agent_calls.update(agents=[], builds=[], highs=0)
    run(config)
    again = {key: len(agent_calls[key]) for key in ("agents", "builds")}
    assert {**again, "highs": agent_calls["highs"]} == first

    monkeypatch.setattr(simulator, "_twin_groups", no_twins)
    agent_calls.update(agents=[], builds=[], highs=0)
    plain = run(config)
    assert len(agent_calls["agents"]) == len(plain.rounds) * (
        2 * config.retailer_count + 3 * config.producer_count
    )
    assert shared.termination == plain.termination
    assert (shared.cycle_start, shared.cycle_length) == (plain.cycle_start, plain.cycle_length)
    assert len(shared.rounds) == len(plain.rounds)
    for a, b in zip(shared.rounds, plain.rounds):
        assert same_fields(a, b)
    assert dataclasses.astuple(shared.cycle_metrics) == dataclasses.astuple(plain.cycle_metrics)


def test_twins_reuse_nothing_across_rounds(monkeypatch, agent_calls):
    # the fixed point repeats every input of a round, so a memo that
    # outlived its round would answer all of the next one
    config = small_config(flexibility_rate=0.0, producer_count=1, retailer_count=1)
    play_round = simulator._play_round
    per_round = []

    def counted(*args):
        before = len(agent_calls["agents"]), len(agent_calls["builds"])
        record = play_round(*args)
        per_round.append((agent_calls["agents"][before[0]:], agent_calls["builds"][before[1]:]))
        return record

    monkeypatch.setattr(simulator, "_play_round", counted)
    outcome = run(config, scenario=flat_cost_scenario(config))
    assert len(outcome.rounds) >= 3
    assert np.array_equal(outcome.rounds[-1].state, outcome.rounds[-2].state)
    for index, (calls, builds) in enumerate(per_round):
        assert sorted(calls) == sorted([
            ("retailer", ()),
            ("retailer", ("fixed_amplitudes", "fixed_demand")),
            ("producer", ()),
            ("producer", ("fixed_sale",)),
            ("producer", ("fixed_reserve", "fixed_sale")),
        ])
        # the producer's model is the run's, built in the first round
        assert sorted(builds) == (["producer", "retailer"] if index == 0 else ["retailer"])


def test_each_round_builds_each_model_once(monkeypatch, agent_calls):
    # closed, seed 1: three producers and two twin retailers; the producers
    # solve three stages a round of one model each, built in the first
    # round, the twins two stages of one built each round
    play_round = simulator._play_round
    per_round = []

    def counted(*args):
        before = len(agent_calls["builds"])
        record = play_round(*args)
        per_round.append(sorted(agent_calls["builds"][before:]))
        return record

    monkeypatch.setattr(simulator, "_play_round", counted)
    outcome = run(ScenarioConfig(seed=1, setting="closed"))
    assert len(outcome.rounds) == 7
    assert per_round == [["producer"] * 3 + ["retailer"]] + [["retailer"]] * 6
    # per round, 3 x 3 producer and 2 retailer solves, reserve and settlement
    assert agent_calls["highs"] == 7 * 13


def renamed(portfolio, name):
    """A twin of ``portfolio``: every name changed, its loads' and units' too."""
    parts = {
        f.name: [dataclasses.replace(part, name=f"{name}-{part.name}") for part in value]
        for f in dataclasses.fields(portfolio)
        if isinstance(value := getattr(portfolio, f.name), list)
    }
    return dataclasses.replace(portfolio, name=name, **parts)


def twin_scenario():
    """One generated retailer and producer, each with a renamed twin."""
    config = small_config(
        retailer_count=1, producer_count=1, loads_per_retailer=1, max_rounds=1,
    )
    base = generate_scenario(config)
    return Scenario(
        config=config,
        retailers=[*base.retailers, renamed(base.retailers[0], "retailer-2")],
        producers=[*base.producers, renamed(base.producers[0], "producer-2")],
    )


def twin_fields():
    """Every field of a portfolio other than a name, as (kind, list field or
    None, field), the fields of loads and units included."""
    scenario = twin_scenario()
    out = []
    for kind, portfolio in (("retailer", scenario.retailers[0]), ("producer", scenario.producers[0])):
        for f in dataclasses.fields(portfolio):
            value = getattr(portfolio, f.name)
            if isinstance(value, list):
                out += [(kind, f.name, g.name) for g in dataclasses.fields(value[0]) if g.name != "name"]
            elif f.name != "name":
                out.append((kind, None, f.name))
    return out


def nudged(value, field_name):
    """``value`` with its first number moved to the next float, downward
    where the next one up would be rejected."""
    down = field_name in ("efficiency", "total_min")
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[0] = np.nextafter(value.flat[0], -np.inf if down else np.inf)
        return value
    return float(np.nextafter(value, -np.inf if down else np.inf))


def day_ahead_calls(calls):
    return sorted(kind for kind, fixed in calls["agents"] if not fixed)


def test_twins_are_solved_once_per_stage(agent_calls):
    scenario = twin_scenario()
    run(scenario.config, scenario)
    assert day_ahead_calls(agent_calls) == ["producer", "retailer"]


@pytest.mark.parametrize(
    "kind, part, name", twin_fields(), ids=lambda v: "-" if v is None else str(v)
)
def test_a_portfolio_differing_in_any_field_is_solved_on_its_own(agent_calls, kind, part, name):
    scenario = twin_scenario()
    actors = scenario.retailers if kind == "retailer" else scenario.producers
    twin = actors[1]
    if part is None:
        changed = dataclasses.replace(twin, **{name: nudged(getattr(twin, name), name)})
    else:
        first, *rest = getattr(twin, part)
        first = dataclasses.replace(first, **{name: nudged(getattr(first, name), name)})
        changed = dataclasses.replace(twin, **{part: [first, *rest]})
    actors[1] = changed
    assert simulator._twin_groups(actors) == {actors[0].name: 0, changed.name: 1}
    run(scenario.config, scenario)
    assert day_ahead_calls(agent_calls) == sorted(["producer", "retailer", kind])


def next_float(value):
    return np.nextafter(value, -np.inf if value > 0 else np.inf)


@pytest.mark.parametrize("changed", ["pins", "fixed_sale", "fixed_reserve"])
def test_a_twin_whose_pins_or_fixed_quantities_differ_is_solved_on_its_own(changed):
    actors = [types.SimpleNamespace(name=name) for name in "abc"]
    inputs = {
        name: dict(
            fixed_sale=np.arange(4.0),
            fixed_reserve=np.ones((2, 4, 2)),
            pins=np.full((3, 4), np.inf),
        )
        for name in "abc"
    }
    value = inputs["b"][changed] = inputs["b"][changed].copy()
    value.flat[-1] = next_float(value.flat[-1])
    built, solved = [], []

    def build(portfolio, pins):
        built.append(portfolio.name)
        return portfolio.name

    def optimize(model, **fixed):
        solved.append(model)
        return object()

    at = types.SimpleNamespace(
        twins=dict.fromkeys("abc", 0),
        pins={name: inputs[name].pop("pins") for name in "abc"},
    )
    once = simulator._shared(at)  # day-ahead
    models = {p.name: once(p.name, build, p, at.pins[p.name]) for p in actors}
    once = simulator._shared(at)  # reposition
    positions = {p.name: once(p.name, optimize, models[p.name], **inputs[p.name]) for p in actors}
    # the model depends on the pins alone, the position on the fixed
    # quantities too
    own_model = changed == "pins"
    assert sorted(built) == (["a", "b"] if own_model else ["a"])
    assert sorted(solved) == ["a", "b" if own_model else "a"]
    assert positions["c"] is positions["a"] is not positions["b"]


def test_twins_share_a_solve_only_from_one_basis():
    # a basis is compared by identity: twins that shared every solve hold
    # the same one
    at = types.SimpleNamespace(
        twins=dict.fromkeys("abc", 0), pins={name: np.full((3, 4), np.inf) for name in "abc"}
    )
    shared, other = object(), object()
    started = []

    def optimize(model, basis):
        started.append(basis)
        return object()

    once = simulator._shared(at)
    positions = {
        name: once(name, optimize, "model", basis=basis)
        for name, basis in zip("abc", (shared, other, shared))
    }
    assert positions["a"] is positions["c"] is not positions["b"]
    assert sorted(map(id, started)) == sorted([id(shared), id(other)])


def six_twin_retailers():
    """The open-bands benchmark workload's config (six twin retailers),
    cut to three rounds."""
    return small_config(
        setting="open", flexibility_rate=0.30, retailer_count=6, loads_per_retailer=4,
        producer_count=2, bid_block_length=2, max_rounds=3,
    )


def test_twin_retailers_get_equal_accepted_amplitudes():
    # tied band bids share pro rata; the twins' solves are shared only when
    # their fixed amplitudes are equal to the bit
    for record in run(six_twin_retailers()).rounds:
        positions = list(record.retailer_positions.values())
        assert positions[0].amplitudes.sum() > 0, record.index
        for position in positions[1:]:
            assert np.array_equal(position.amplitudes, positions[0].amplitudes), record.index


def test_twin_retailers_stay_twins_through_reposition(agent_calls):
    # one day-ahead and one reposition solve per round for all six
    outcome = run(six_twin_retailers())
    assert (outcome.termination, len(outcome.rounds)) == ("cycle", 3)
    assert sum(kind == "retailer" for kind, _ in agent_calls["agents"]) == 6


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
    contracted = record.procurement.modulation_contracted
    assert contracted.any(), "flexibility should win part of the reserve book"
    assert record.metrics.procurement_cost < 0.5 * 43000.0


def test_final_positions_hold_exactly_the_contracted_reserve():
    record = run(small_config(setting="open", max_rounds=1)).rounds[0]
    procurement = record.procurement
    assert procurement.classical_contracted.any() and procurement.modulation_contracted.any()
    for name, position in record.producer_positions.items():
        contracted = {"up": np.zeros(24), "down": np.zeros(24)}
        for (actor, period, direction, volume, _), x in zip(
            procurement.classical.rows(), procurement.classical_fraction
        ):
            if actor == name:
                contracted[direction][period] += volume * x
        held_up, held_down = position.reserve.sum(axis=0).T
        assert np.allclose(held_up, contracted["up"], rtol=0, atol=1e-9)
        assert np.allclose(held_down, contracted["down"], rtol=0, atol=1e-9)
    for name, position in record.retailer_positions.items():
        sold = dict.fromkeys(position.windows, 0.0)
        for (actor, start, length, amplitude, _, _), x in zip(
            procurement.modulation.rows(), procurement.modulation_fraction
        ):
            if actor == name:
                sold[(start, length)] += amplitude * x
        assert np.allclose(position.amplitudes, list(sold.values()), rtol=0, atol=1e-9)


def test_every_sold_band_window_covers_its_dispatches():
    """The paper's band claim on bands the simulator sells: on every window
    of every accepted retailer band, each energy-neutral dispatch between
    the two extreme scenarios is feasible for the load it runs on."""
    # the open-bands benchmark workload's config
    config = ScenarioConfig(
        seed=1, setting="open", flexibility_rate=0.30, retailer_count=6,
        loads_per_retailer=4, producer_count=2, bid_block_length=2, max_rounds=6,
    )
    scenario = generate_scenario(config)
    loads = {portfolio.name: portfolio.loads for portfolio in scenario.retailers}
    outcome = run(config, scenario)
    checked = failures = 0
    for record in outcome.rounds:
        for name, position in record.retailer_positions.items():
            for (start, length), amplitude in zip(position.windows, position.amplitudes):
                if amplitude <= 0:
                    continue
                block = slice(start, start + length)
                for i, load in enumerate(loads[name]):
                    base = position.scenarios[0][i]
                    report = verify_scenario_coverage(
                        oracles.window_load(load, base, start, length),
                        base[block],
                        position.scenarios[1][i][block],
                        position.scenarios[2][i][block],
                        samples=1000,
                        seed=checked,
                    )
                    checked += 1
                    failures += report.failures
    assert (len(outcome.rounds), checked, failures) == (3, 864, 0)


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

    bare_config = small_config(flexibility_rate=0.0)
    bare = generate_scenario(bare_config)
    assert all(not r.loads for r in bare.retailers)
    total_inelastic = np.sum([r.inelastic for r in bare.retailers], axis=0)
    assert np.allclose(total_inelastic, bare_config.demand_profile())


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


@functools.cache
def terminal(setting, rate, knob=None, value=None):
    """The termination and cycle metrics of seed 1 at ``setting`` and
    ``rate``, with ``knob`` set to ``value`` (all knobs at their defaults
    when None)."""
    knobs = {knob: value} if knob else {}
    outcome = run(ScenarioConfig(seed=1, setting=setting, flexibility_rate=rate, **knobs))
    return outcome.termination, dataclasses.astuple(outcome.cycle_metrics)


@pytest.mark.parametrize(
    "knob, value",
    [
        ("forecast_alpha", 0.3), ("forecast_alpha", 0.8),
        ("threshold_factor", 0.9), ("threshold_factor", 0.99),
        ("energy_seed_price", 40.0), ("energy_seed_price", 70.0),
    ],
)
@pytest.mark.parametrize("setting, rate", [("closed", 0.0), ("open", 0.10)])
def test_a_learning_knob_moves_no_terminal_metric(setting, rate, knob, value):
    # ROADMAP item 21: the knobs change how many rounds a run takes, not the
    # state it ends in.  The cycle means run over different rounds, so they
    # agree only to rounding; round counts are not pinned.
    termination, metrics = terminal(setting, rate, knob, value)
    default_termination, default_metrics = terminal(setting, rate)
    assert termination == default_termination == "cycle"
    assert metrics == pytest.approx(default_metrics, rel=1e-9)


# ---------------------------------------------------------------------------
# outputs do not depend on how many CPUs the process may use
# ---------------------------------------------------------------------------


ONE_CPU_RUN = (
    "import dataclasses, pickle, sys; from flexmarket.simulator import run; "
    "outcome = run(pickle.load(sys.stdin.buffer)); "
    "pickle.dump(((outcome.termination, outcome.cycle_start, outcome.cycle_length), "
    "[(r.state.tobytes(), dataclasses.astuple(r.metrics)) for r in outcome.rounds]), "
    "sys.stdout.buffer)"
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize(
    "config",
    [small_config(), dataclasses.replace(six_twin_retailers(), max_rounds=6)],
    ids=["closed", "open-bands"],
)
def test_a_run_on_one_cpu_equals_a_run_on_every_cpu_bit_for_bit(config):
    # numpy and HiGHS may thread by the CPUs they see at import; a fresh
    # interpreter pinned to one CPU must repeat this process's run
    one_cpu = {min(os.sched_getaffinity(0))}
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", ONE_CPU_RUN], input=pickle.dumps(config), env=env,
        capture_output=True, timeout=300, preexec_fn=lambda: os.sched_setaffinity(0, one_cpu),
    )
    assert child.returncode == 0, child.stderr.decode()
    ending, rounds = pickle.loads(child.stdout)
    expected = run(config)
    assert ending == (expected.termination, expected.cycle_start, expected.cycle_length)
    assert len(rounds) == len(expected.rounds)
    for record, (state, metrics) in zip(expected.rounds, rounds):
        assert record.state.tobytes() == state, record.index
        assert dataclasses.astuple(record.metrics) == metrics, record.index


# ---------------------------------------------------------------------------
# producer solves start from the basis their stage ended on last round
# ---------------------------------------------------------------------------


def test_no_producer_lp_is_dual_degenerate(monkeypatch):
    # the configs of acceptance criteria 3 and 4; so each producer LP has
    # one optimal vertex, and where its simplex starts moves only rounding
    from flexmarket.agents import producer

    solve, census = producer.solve, []

    def counted(lp, lower, upper, basis=None, costs=None):
        census.append(oracles.dual_degenerate(lp, lower, upper, costs))
        return solve(lp, lower, upper, basis=basis, costs=costs)

    monkeypatch.setattr(producer, "solve", counted)
    for rate in (0.0, 0.02, 0.04, 0.06, 0.08, 0.10):
        for setting in ("closed", "open"):
            run(small_config(flexibility_rate=rate, setting=setting, max_rounds=500))
    assert len(census) > 600
    assert not any(census)


def producer_solves(monkeypatch, config):
    """Every producer solve of a run of ``config``, as (names of the fixed
    quantities, model, forecast, pins, fixed quantities, basis started
    from, position, basis ended on)."""
    optimize, calls = simulator.optimize_producer, []

    def recording(model, fc, pins, basis=None, **fixed):
        position, final = optimize(model, fc, pins, basis=basis, **fixed)
        calls.append((tuple(sorted(fixed)), model, fc, pins, fixed, basis, position, final))
        return position, final

    monkeypatch.setattr(simulator, "optimize_producer", recording)
    run(config)
    return calls


def assert_same_position(position, expected):
    """Each field of the producer ``position`` within ``TOL_FEAS`` (relative
    to ``max(1, |value|)``) of the field of that name of ``expected``."""
    for f in dataclasses.fields(position):
        a, b = np.asarray(getattr(position, f.name)), np.asarray(getattr(expected, f.name))
        assert np.all(np.abs(a - b) <= lp.TOL_FEAS * np.maximum(1.0, np.abs(b))), f.name


@pytest.mark.parametrize("setting", ["closed", "open"])
def test_warm_producer_solves_match_cold_ones(monkeypatch, setting):
    from flexmarket.agents.producer import optimize_producer

    solves = producer_solves(monkeypatch, small_config(setting=setting, flexibility_rate=0.1))
    # the pins each basis was ended on under
    ended_under = {final: pins for *_, pins, _, _, _, final in solves}
    warm, across = set(), 0
    for stage, model, fc, pins, fixed, basis, position, _ in solves:
        cold, _ = optimize_producer(model, fc, pins, **fixed)
        assert_same_position(position, cold)
        if basis is not None:
            warm.add(stage)
            across += not np.array_equal(ended_under[basis], pins)
    # every stage starts warm from round 1 on (reserve bidding from round
    # 0), and some start from a basis solved under other pins
    assert sorted(warm) == [(), ("fixed_reserve", "fixed_sale"), ("fixed_sale",)]
    assert across > 0


@pytest.mark.parametrize("setting", ["closed", "open"])
def test_each_producer_solve_starts_from_its_stages_basis_of_the_round_before(
    monkeypatch, setting
):
    solves = producer_solves(monkeypatch, small_config(setting=setting, flexibility_rate=0.1))
    # no twin producers here, so each model is one producer's; each round
    # has a forecast of its own
    models = {id(model) for _, model, *_ in solves}
    rounds = {id(fc) for _, _, fc, *_ in solves}
    assert len(solves) == 3 * len(models) * len(rounds) > 3 * len(models)
    first_round = id(solves[0][2])
    ended = {}
    for stage, model, fc, _, _, basis, _, final in solves:
        if id(fc) != first_round:
            expected = ended[stage, id(model)]
        elif stage == ("fixed_sale",):
            # reserve bidding: from the basis the round's day-ahead solve ended on
            expected = ended[(), id(model)]
        else:
            expected = None  # the slack basis
        assert basis is expected, (stage, model.name)
        ended[stage, id(model)] = final


@pytest.mark.parametrize("setting", ["closed", "open"])
def test_pin_slots_solve_as_pin_rows(monkeypatch, setting):
    # each solve again on the model that has a slack and a row for each
    # finite pin only, as the pins were once modelled
    from flexmarket.agents.retailer import stage_bounds

    config = small_config(setting=setting, flexibility_rate=0.1)
    portfolios = {p.name: p for p in generate_scenario(config).producers}
    solves = producer_solves(monkeypatch, config)
    pinned = 0
    for _, model, fc, pins, fixed, _, position, _ in solves:
        rows = oracles.row_form_producer_model(
            portfolios[model.name], fc, config.price_cap, config.non_contracted_price, pins
        )
        bounds = stage_bounds(
            rows,
            [(rows.reserve, fixed.get("fixed_reserve"), "fixed_reserve"),
             (rows.sale, fixed.get("fixed_sale"), "fixed_sale")],
            lift="fixed_sale" in fixed,
        )
        sol = lp.solve(rows.lp, *bounds)
        assert sol.status == "optimal"
        assert_same_position(position, types.SimpleNamespace(
            sale=sol.values(rows.sale), imbalance_up=sol.values(rows.imbalance_up),
            imbalance_down=sol.values(rows.imbalance_down),
            unit_output=sol.values(rows.unit_output), reserve=sol.values(rows.reserve),
            objective=sol.objective,
        ))
        pinned += np.isfinite(pins).any()
    assert pinned > 0


def reposition_context(monkeypatch, config):
    """The round context of round 0 of ``config`` once its reposition stage
    has run."""
    captured = []

    def capture(play):
        def stage(r):
            play(r)
            captured.append(r)

        return stage

    monkeypatch.setattr(simulator, "_STAGES", tuple(
        (stage, actor, capture(play) if stage == "reposition" else play)
        for stage, actor, play in simulator._STAGES
    ))
    run(dataclasses.replace(config, max_rounds=1))
    return captured[0]


def test_twins_with_differing_fixed_quantities_share_one_model(monkeypatch):
    r = reposition_context(monkeypatch, six_twin_retailers())
    names = [p.name for p in r.retailers]
    model = r.models[names[0]]
    assert len(names) == 6 and all(r.models[name] is model for name in names)
    demand = r.clearing.demand_of(names[0])
    amplitudes = r.day_ahead[names[0]].amplitudes
    assert amplitudes.sum() > 0
    fixed = {
        name: dict(fixed_demand=demand * (1 + k / 50), fixed_amplitudes=amplitudes * (k / 5))
        for k, name in enumerate(names)
    }
    once = simulator._shared(r)
    shared = [once(name, simulator.optimize_retailer, model, **fixed[name]) for name in names]
    serial = [simulator.optimize_retailer(model, **fixed[name]) for name in names]
    assert len({id(position) for position in shared}) == 6
    for name, a, b in zip(names, shared, serial):
        assert same_fields(a, b), name
    assert len({position.demand.tobytes() for position in serial}) == 6


def test_the_first_failing_actor_in_actor_order_is_named_and_the_next_run_completes(
    monkeypatch,
):
    # producer-1 and producer-2 both fail
    build = simulator.build_producer_model

    def failing(portfolio, *args):
        if portfolio.name in ("producer-1", "producer-2"):
            raise ValueError(f"{portfolio.name} failed")
        return build(portfolio, *args)

    config = small_config(max_rounds=2)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "build_producer_model", failing)
        with pytest.raises(
            simulator.RoundError,
            match="^round 0, stage 'day-ahead', actor 'producer-1': producer-1 failed$",
        ):
            run(config)
    assert len(run(config).rounds) == 2


def one_run_in(queue):
    queue.put(len(run(small_config(max_rounds=2)).rounds))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_forked_after_a_run_runs_to_the_end():
    # as a sweep's cells may be run (ROADMAP item 19)
    run(small_config(max_rounds=1))
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=one_run_in, args=(queue,))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's run hung")
    assert child.exitcode == 0
    assert queue.get(timeout=5) == 2
