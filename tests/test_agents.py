import dataclasses
import inspect
import itertools
import re
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from flexmarket.agents import (
    GenerationUnit,
    ProducerPortfolio,
    ProducerPosition,
    RetailerPortfolio,
    RetailerPosition,
    TankLoad,
    ThresholdTrack,
    build_producer_model,
    build_retailer_model,
    make_forecast,
    optimize_producer,
    optimize_retailer,
    producer_energy_offers,
    producer_reserve_bids,
    random_feasible_modulation,
    verify_scenario_coverage,
)
from flexmarket.agents import tank
from flexmarket.agents.forecast import PriceForecast, exponential_mean, extreme_prices
from flexmarket.agents.retailer import (
    ConfigurationError,
    accepted_volumes,
    retailer_band_bids,
    retailer_demand_offers,
)
from flexmarket.energy_market import DEMAND, SUPPLY
from flexmarket.lp import LinearProgram
from flexmarket.scenario import ScenarioConfig

CAP = 3000.0
PI_NC = 500.0
CONFIG = ScenarioConfig(periods=1, price_cap=CAP, non_contracted_price=PI_NC)


def flat_forecast(t, energy, imb_up=200.0, imb_down=200.0):
    return PriceForecast(
        energy=np.asarray(energy, float) if np.ndim(energy) else np.full(t, float(energy)),
        imbalance_up=np.full(t, imb_up),
        imbalance_down=np.full(t, imb_down),
    )


def simple_load(t, lo=0.0, hi=4.0, total=6.0, e_span=50.0, name="load"):
    return TankLoad(
        name=name,
        power_min=np.full(t, lo),
        power_max=np.full(t, hi),
        energy_min=np.full(t + 1, -e_span),
        energy_max=np.full(t + 1, e_span),
        efficiency=1.0,
        loss=np.zeros(t),
        total_min=total,
        total_max=total,
        energy_start=0.0,
    )


def retailer(t, nu, loads=(), limit=1000.0, name="ret"):
    return RetailerPortfolio(
        name=name,
        inelastic=np.full(t, float(nu)) if np.ndim(nu) == 0 else np.asarray(nu, float),
        loads=list(loads),
        imbalance_limit=limit,
    )


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------


def price_rows(energy, up, down):
    """One-period price history: a (3, 1) row of (energy price, upward
    tariff, downward tariff) per round."""
    return [np.array([[e], [u], [d]]) for e, u, d in zip(energy, up, down)]


def test_forecast_submodule_is_not_shadowed_by_a_function():
    # patching flexmarket.agents.forecast.<name> must reach the module
    import flexmarket.agents

    assert inspect.ismodule(flexmarket.agents.forecast)


def test_forecast_constant_series():
    fc = make_forecast(price_rows([50.0] * 3, [50.0] * 3, [50.0] * 3), CONFIG)
    assert fc.energy[0] == pytest.approx(50.0)


def test_forecast_cap_replaced_by_last_uncapped():
    history = price_rows([50.0, CAP], [20.0] * 2, [20.0] * 2)
    fc = make_forecast(history, CONFIG)
    assert fc.energy[0] == pytest.approx(50.0)
    extreme = extreme_prices(np.array(history), CONFIG)
    assert extreme.shape == (2, 3, 1)
    assert extreme[:, 0, 0].tolist() == [False, True]
    assert not extreme[:, 1:].any()


def test_forecast_weighted_mean():
    fc = make_forecast(price_rows([40.0, 60.0], [20.0] * 2, [20.0] * 2), CONFIG)
    assert fc.energy[0] == pytest.approx((0.5 * 40.0 + 1.0 * 60.0) / 1.5)


def test_forecast_empty_history_uses_seeds():
    fc = make_forecast([], ScenarioConfig(periods=3))
    assert np.all(fc.energy == CONFIG.energy_seed_price)
    assert np.all(fc.imbalance_up == CONFIG.tariff_seed_price)
    assert fc.energy.shape == fc.imbalance_down.shape == (3,)


def test_forecast_all_capped_history_uses_seed():
    fc = make_forecast(price_rows([CAP, CAP], [20.0] * 2, [20.0] * 2), CONFIG)
    assert fc.energy[0] == pytest.approx(CONFIG.energy_seed_price)


def test_forecast_tariff_extremes_replaced():
    up = [30.0, 0.0, PI_NC]
    history = price_rows([50.0] * 3, up, up)
    fc = make_forecast(history, CONFIG)
    assert fc.imbalance_up[0] == pytest.approx(30.0)
    extreme = extreme_prices(np.array(history), CONFIG)
    assert extreme[:, 1, 0].tolist() == [False, True, True]
    assert np.array_equal(extreme[:, 2], extreme[:, 1])
    assert not extreme[:, 0].any()


def test_exponential_mean_window_truncation():
    history = np.array([[10.0], [90.0], [50.0], [50.0]])
    invalid = np.zeros((4, 1), dtype=bool)
    out = exponential_mean(history, invalid, alpha=0.5, window=2, seed=[0.0])
    assert out[0] == pytest.approx(50.0)  # the early rows fall outside the window


def test_exponential_mean_seeds_each_column_with_no_usable_entry():
    history = np.array([[10.0, 20.0, 30.0], [12.0, 22.0, 32.0]])
    invalid = np.array([[True, False, True], [True, True, False]])
    out = exponential_mean(history, invalid, alpha=0.5, window=4, seed=[1.0, 2.0, 3.0])
    # column 0 never had a valid entry; column 1 carries 20 forward
    assert out.tolist() == [1.0, 20.0, 32.0]


def random_price_history(rng, config):
    """(3, periods) price rows mixing ordinary prices (a zero energy price
    among them) with every kind of extreme: the energy price at or within
    1e-9 of the cap, tariffs at or near zero and at the fallback price, and
    whole periods with no usable entry in some row."""
    rounds = int(rng.integers(0, 3 * config.forecast_window + 1))
    shape = (rounds, config.periods)
    cap, fallback = config.price_cap, config.non_contracted_price
    energy = rng.uniform(0.0, cap, shape)
    energy[rng.random(shape) < 0.1] = 0.0  # an ordinary price, unlike a zero tariff
    energy[rng.random(shape) < 0.2] = cap
    energy[rng.random(shape) < 0.05] = cap - 5e-10
    tariffs = rng.uniform(0.0, fallback, (2, *shape))
    tariffs[rng.random(tariffs.shape) < 0.2] = 0.0
    tariffs[rng.random(tariffs.shape) < 0.05] = 1e-10
    tariffs[rng.random(tariffs.shape) < 0.2] = fallback
    if rounds:
        energy[:, rng.random(config.periods) < 0.2] = cap
        tariffs[:, :, rng.random(config.periods) < 0.2] = fallback
    return list(np.stack([energy, *tariffs], axis=1))


def test_stacked_forecast_matches_per_series_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(240):
        cap = float(rng.choice([3000.0, 150.0]))
        fallback = float(rng.choice([500.0, 80.0]))
        config = ScenarioConfig(
            periods=int(rng.integers(1, 7)),
            price_cap=cap,
            non_contracted_price=fallback,
            forecast_alpha=float(rng.choice([0.0, 0.5, 1.0, rng.uniform()])),
            forecast_window=int(rng.choice([1, 2, 5, 24, 40])),
            energy_seed_price=float(rng.uniform(0.0, cap)),
            tariff_seed_price=float(rng.uniform(0.0, fallback)),
        )
        history = random_price_history(rng, config)
        fc = make_forecast(history, config)
        expected = oracles.reference_forecast(
            [row[0] for row in history], [row[1] for row in history],
            [row[2] for row in history], config,
        )
        for actual, reference in zip((fc.energy, fc.imbalance_up, fc.imbalance_down), expected):
            assert actual.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# threshold learning
# ---------------------------------------------------------------------------


def test_threshold_pin_on_trigger():
    track = ThresholdTrack(2)
    track.update(np.array([True, False]), np.array([100.0, 80.0]))
    assert track.value[0] == pytest.approx(95.0)
    assert np.isinf(track.value[1])


def test_threshold_repeated_trigger_compounds():
    track = ThresholdTrack(1)
    track.update(np.array([True]), np.array([100.0]))
    track.update(np.array([True]), np.array([95.0]))
    assert track.value[0] == pytest.approx(90.25)


def test_threshold_forgets_after_quiet_rounds():
    track = ThresholdTrack(1, forget_after=3)
    track.update(np.array([True]), np.array([10.0]))
    for _ in range(2):
        track.update(np.array([False]), np.array([0.0]))
        assert np.isfinite(track.value[0])
    track.update(np.array([False]), np.array([0.0]))
    assert np.isinf(track.value[0])


def test_threshold_track_of_many_actors_takes_one_mask_for_all():
    # two actors x three pinned quantities x two periods; the run updates
    # them with one (quantities, periods) mask per round
    track = ThresholdTrack((2, 3, 2), forget_after=3)
    mask = np.array([[True, False], [False, False], [False, True]])
    volume = np.array(
        [[[10.0, 1.0], [2.0, 3.0], [4.0, 20.0]], [[30.0, 5.0], [6.0, 7.0], [8.0, 40.0]]]
    )
    track.update(mask, volume)
    assert np.allclose(track.value[:, 0, 0], [9.5, 28.5])
    assert np.allclose(track.value[:, 2, 1], [19.0, 38.0])
    assert np.isinf(track.value[:, 1]).all() and np.isinf(track.value[:, 2, 0]).all()
    assert np.isfinite(track.value).sum() == 4

    # a repeat compounds on each actor's own submitted volume
    track.update(mask, 0.95 * volume)
    assert np.allclose(track.value[:, 0, 0], [9.025, 27.075])
    assert np.allclose(track.value[:, 2, 1], [18.05, 36.1])

    # a trigger in one entry keeps only that entry's pins, for every actor
    only_first = np.zeros((3, 2), dtype=bool)
    only_first[0, 0] = True
    for _ in range(2):
        track.update(np.zeros((3, 2), dtype=bool), volume)
    track.update(only_first, volume)
    assert np.allclose(track.value[:, 0, 0], [9.5, 28.5])
    assert np.isinf(track.value[:, 2, 1]).all()
    assert np.array_equal(track.quiet, np.zeros((2, 3, 2), dtype=int))
    assert track.state_vector().shape == (24,)


# ---------------------------------------------------------------------------
# retailer model
# ---------------------------------------------------------------------------


def test_retailer_without_loads_buys_inelastic_demand():
    port = retailer(3, 7.0)
    position = optimize_retailer(build_retailer_model(port, flat_forecast(3, 50.0), CAP, PI_NC))
    assert np.allclose(position.demand, 7.0, atol=1e-9)
    assert np.allclose(position.imbalance_up, 0.0, atol=1e-9)
    assert np.allclose(position.imbalance_down, 0.0, atol=1e-9)


def test_retailer_flat_prices_costs_are_schedule_independent():
    port = retailer(3, 5.0, [simple_load(3)])
    fc = flat_forecast(3, 40.0)
    position = optimize_retailer(build_retailer_model(port, fc, CAP, PI_NC))
    assert position.objective == pytest.approx(40.0 * (15.0 + 6.0))


def test_retailer_concentrates_consumption_in_cheap_period():
    port = retailer(3, 5.0, [simple_load(3)])
    fc = flat_forecast(3, np.array([50.0, 30.0, 50.0]))
    position = optimize_retailer(build_retailer_model(port, fc, CAP, PI_NC))
    assert position.scenarios[0][0][1] == pytest.approx(4.0, abs=1e-9)

    # brute force over the load schedule on a 0.1 MW lattice; the optimum
    # here lies on the lattice, so the values agree to solver precision
    best = np.inf
    for tenths in itertools.product(range(41), repeat=2):
        d0, d1 = (v / 10.0 for v in tenths)
        d2 = 6.0 - d0 - d1
        if not 0.0 <= d2 <= 4.0:
            continue
        best = min(best, 50.0 * (5 + d0) + 30.0 * (5 + d1) + 50.0 * (5 + d2))
    assert position.objective == pytest.approx(best, abs=1e-6)


def test_retailer_takes_imbalance_when_tariff_beats_energy():
    port = retailer(1, 10.0)
    fc = flat_forecast(1, 50.0, imb_up=200.0, imb_down=20.0)
    position = optimize_retailer(build_retailer_model(port, fc, CAP, PI_NC))
    # buying nothing and paying the cheap downward tariff wins
    assert position.demand[0] == pytest.approx(0.0, abs=1e-9)
    assert position.imbalance_down[0] == pytest.approx(10.0)


def test_retailer_demand_threshold_caps_submission():
    port = retailer(1, 10.0)
    pins = (np.array([0.95 * 8.0]), np.array([np.inf]), np.array([np.inf]))
    fc = flat_forecast(1, 50.0)
    position = optimize_retailer(build_retailer_model(port, fc, CAP, PI_NC, pins=pins))
    # beyond 7.6 every MW costs the cap surcharge, dearer than the tariff
    assert position.demand[0] == pytest.approx(7.6)
    assert position.imbalance_down[0] == pytest.approx(2.4)


def test_reposition_with_rationed_demand_goes_to_imbalance():
    port = retailer(1, 10.0)
    model = build_retailer_model(port, flat_forecast(1, 50.0), CAP, PI_NC)
    position = optimize_retailer(model, fixed_demand=np.array([5.0]))
    assert position.imbalance_down[0] == pytest.approx(5.0)
    assert position.imbalance_up[0] == pytest.approx(0.0, abs=1e-9)


def test_reposition_consistent_with_day_ahead_optimum():
    port = retailer(2, 5.0, [simple_load(2, total=4.0)])
    fc = flat_forecast(2, np.array([50.0, 30.0]))
    model = build_retailer_model(port, fc, CAP, PI_NC)
    first = optimize_retailer(model)
    again = optimize_retailer(model, fixed_demand=first.demand)
    assert np.allclose(again.imbalance_up, 0.0, atol=1e-7)
    assert np.allclose(again.imbalance_down, 0.0, atol=1e-7)
    assert again.objective == pytest.approx(first.objective, abs=1e-6)


def test_reposition_shifts_shortfall_toward_cheap_tariff_period():
    load = simple_load(2, hi=5.0, total=5.0)
    port = retailer(2, 5.0, [load])
    fc = flat_forecast(2, np.array([50.0, 30.0]))
    day_ahead = optimize_retailer(build_retailer_model(port, fc, CAP, PI_NC))
    assert day_ahead.scenarios[0][0][1] == pytest.approx(5.0, abs=1e-9)

    rationed = day_ahead.demand - np.array([0.0, 2.0])
    cheap_first = PriceForecast(
        energy=fc.energy,
        imbalance_up=np.full(2, 200.0),
        imbalance_down=np.array([10.0, 100.0]),
    )
    model = build_retailer_model(port, cheap_first, CAP, PI_NC)
    position = optimize_retailer(model, fixed_demand=rationed)
    # the tank moves the gap into the period with the cheap tariff
    assert position.imbalance_down[0] == pytest.approx(2.0, abs=1e-7)
    assert position.imbalance_down[1] == pytest.approx(0.0, abs=1e-7)
    dear_first = PriceForecast(
        energy=fc.energy,
        imbalance_up=np.full(2, 200.0),
        imbalance_down=np.array([100.0, 10.0]),
    )
    model = build_retailer_model(port, dear_first, CAP, PI_NC)
    position = optimize_retailer(model, fixed_demand=rationed)
    assert position.imbalance_down[1] == pytest.approx(2.0, abs=1e-7)


def test_infeasible_tank_reported_as_configuration_error():
    load = simple_load(2, lo=0.0, hi=1.0, total=10.0)  # cannot draw 10 MWh at 1 MW
    port = retailer(2, 5.0, [load])
    with pytest.raises(ConfigurationError, match="retailer 'ret' position problem is infeasible"):
        optimize_retailer(build_retailer_model(port, flat_forecast(2, 50.0), CAP, PI_NC))


# ---------------------------------------------------------------------------
# retailer flexibility bands
# ---------------------------------------------------------------------------


def band_load(t, mid=6.0, slack=2.0, name="band"):
    return TankLoad(
        name=name,
        power_min=np.full(t, mid - slack),
        power_max=np.full(t, mid + slack),
        energy_min=np.full(t + 1, -50.0),
        energy_max=np.full(t + 1, 50.0),
        efficiency=1.0,
        loss=np.zeros(t),
        total_min=mid * t,
        total_max=mid * t,
        energy_start=0.0,
    )


def test_band_amplitude_limited_by_power_slack():
    port = retailer(4, 10.0, [band_load(4)])
    fc = flat_forecast(4, 50.0)
    position = optimize_retailer(
        build_retailer_model(port, fc, CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0)
    )
    assert position.amplitudes[0] == pytest.approx(2.0, abs=1e-7)
    up = port.inelastic + np.sum(position.scenarios[1], axis=0)
    base = position.demand - position.imbalance_up + position.imbalance_down
    assert np.allclose(up[:2] - base[:2], 2.0, atol=1e-7)
    assert np.allclose(up[2:] - base[2:], -2.0, atol=1e-7)
    down = port.inelastic + np.sum(position.scenarios[2], axis=0)
    assert np.allclose(down[:2] - base[:2], -2.0, atol=1e-7)
    assert np.allclose(down[2:] - base[2:], 2.0, atol=1e-7)


def test_band_amplitude_zero_without_flexible_loads():
    port = retailer(4, 10.0)
    position = optimize_retailer(
        build_retailer_model(
            port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0
        )
    )
    assert position.amplitudes[0] == pytest.approx(0.0, abs=1e-9)


def test_band_zero_price_tie_broken_toward_larger_amplitude():
    port = retailer(4, 10.0, [band_load(4)])
    position = optimize_retailer(
        build_retailer_model(
            port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4)], modulation_price=0.0
        )
    )
    assert position.amplitudes[0] == pytest.approx(2.0, abs=1e-6)


def test_band_energy_neutral_per_window_and_tank_consistent():
    port = retailer(8, 10.0, [band_load(8, mid=5.0, slack=1.5)])
    fc = flat_forecast(8, np.array([45.0, 50.0, 55.0, 48.0, 52.0, 47.0, 53.0, 49.0]))
    position = optimize_retailer(
        build_retailer_model(
            port, fc, CAP, PI_NC, windows=[(0, 4), (4, 4)], modulation_price=10.0
        )
    )
    load = port.loads[0]
    base = position.scenarios[0][0]
    base_states = load.energy_trajectory(base)
    for sched in (position.scenarios[1][0], position.scenarios[2][0]):
        for start, length in position.windows:
            block = slice(start, start + length)
            assert np.sum(sched[block]) == pytest.approx(np.sum(base[block]), abs=1e-9)
            # the scenario leaves the baseline tank state at the window start
            # and hands it back at the window end
            states = load.energy_trajectory(sched)
            assert states[start] == pytest.approx(base_states[start], abs=1e-9)
            assert states[start + length] == pytest.approx(base_states[start + length], abs=1e-9)
        assert load.schedule_violations(sched, tol=1e-7) == []


def assert_scenarios_follow_the_baseline(position):
    """Outside every window of ``position``, its high-first and low-first
    scenarios are its baseline schedules, bit for bit."""
    outside = np.ones(position.scenarios[0].shape[1], dtype=bool)
    for start, length in position.windows:
        outside[start : start + length] = False
    for scenario in (position.scenarios[1], position.scenarios[2]):
        assert scenario.shape == position.scenarios[0].shape
        assert scenario[:, outside].tobytes() == position.scenarios[0][:, outside].tobytes()


def test_band_scenarios_follow_the_baseline_outside_every_window():
    from flexmarket.simulator import run

    _, ret = _snapshot_portfolios()
    fc = flat_forecast(6, np.array([30.0, 45.0, 50.0, 60.0, 40.0, 35.0]), 70.0, 20.0)
    for windows in ([(0, 2), (2, 4)], [(0, 2), (2, 2), (4, 2)], []):
        position = optimize_retailer(build_retailer_model(ret, fc, CAP, PI_NC, windows=windows))
        assert position.windows == windows
        assert_scenarios_follow_the_baseline(position)
    sold = 0
    for record in run(ScenarioConfig(seed=1, setting="open", max_rounds=3)).rounds:
        for position in record.retailer_positions.values():
            assert position.windows
            assert_scenarios_follow_the_baseline(position)
            sold += int((position.amplitudes > 0).sum())
    assert sold > 0


def test_position_balance_identities():
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = 4
        load = simple_load(t, hi=float(rng.uniform(2, 6)), total=float(rng.uniform(2, 8)))
        nu = rng.uniform(3, 12, t)
        port = retailer(t, nu, [load])
        fc = flat_forecast(t, rng.uniform(30, 70, t), imb_up=float(rng.uniform(20, 80)),
                           imb_down=float(rng.uniform(20, 80)))
        position = optimize_retailer(build_retailer_model(port, fc, CAP, PI_NC))
        residual = (
            position.demand
            - position.imbalance_up
            + position.imbalance_down
            - nu
            - position.scenarios[0][0]
        )
        assert np.max(np.abs(residual)) <= 1e-7

        gen = producer(t, [unit(t, cap=float(rng.uniform(5, 15)), cost=float(rng.uniform(40, 60)))])
        fc_p = flat_forecast(t, rng.uniform(30, 70, t), imb_up=float(rng.uniform(20, 80)),
                             imb_down=float(rng.uniform(20, 80)))
        pos, _ = optimize_producer(build_producer_model(gen, CAP, PI_NC), fc_p)
        residual = (
            pos.sale
            + pos.imbalance_up
            - pos.imbalance_down
            - pos.unit_output[0]
        )
        assert np.max(np.abs(residual)) <= 1e-7


def test_band_amplitude_respects_energy_ceiling():
    # power slack would allow 3 MW, but the tank tops out two periods in:
    # losses absorb the baseline draw, so the state tracks the deviation
    load = TankLoad(
        name="ceiling",
        power_min=np.full(4, 3.0),
        power_max=np.full(4, 9.0),
        energy_min=np.full(5, -4.0),
        energy_max=np.full(5, 4.0),
        efficiency=1.0,
        loss=np.full(4, 6.0),
        total_min=24.0,
        total_max=24.0,
        energy_start=0.0,
    )
    port = retailer(4, 10.0, [load])
    position = optimize_retailer(
        build_retailer_model(
            port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0
        )
    )
    assert position.amplitudes[0] == pytest.approx(2.0, abs=1e-7)


def test_fixed_amplitudes_keep_margins_feasible():
    port = retailer(4, 10.0, [band_load(4)])
    fc = flat_forecast(4, 50.0)
    model = build_retailer_model(port, fc, CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0)
    sold = optimize_retailer(model)
    half = sold.amplitudes * 0.5
    repositioned = optimize_retailer(model, fixed_demand=sold.demand, fixed_amplitudes=half)
    assert repositioned.amplitudes[0] == pytest.approx(half[0])


def test_overlapping_windows_rejected():
    port = retailer(4, 10.0, [band_load(4)])
    with pytest.raises(ConfigurationError):
        build_retailer_model(port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4), (2, 2)])


# ---------------------------------------------------------------------------
# producer model
# ---------------------------------------------------------------------------


def unit(t, cap=10.0, cost=45.0, ramp=100.0, name="u", p0=None):
    return GenerationUnit(
        name=name,
        power_min=np.zeros(t),
        power_max=np.full(t, cap),
        ramp_up=ramp,
        ramp_down=ramp,
        cost=np.full(t, cost),
        initial_output=cap if p0 is None else p0,
    )


def producer(t, units, limit=1000.0, valuation=0.0):
    return ProducerPortfolio(name="gen", units=units, imbalance_limit=limit, reserve_valuation=valuation)


@pytest.mark.parametrize(
    "build",
    [
        # power_min must match power_max in length, not broadcast against it
        lambda: replace(unit(4), power_min=np.zeros(1)),
        lambda: replace(unit(4), power_min=np.zeros(3)),
        lambda: replace(unit(4), ramp_up=float("nan")),
        lambda: replace(unit(4), ramp_down=float("nan")),
        lambda: producer(4, [unit(4)], limit=float("nan")),
        lambda: retailer(4, 10.0, limit=float("nan")),
    ],
    ids=["power-min-len-1", "power-min-len-3", "nan-ramp-up", "nan-ramp-down",
         "nan-producer-limit", "nan-retailer-limit"],
)
def test_portfolios_reject_malformed_unit_and_limit_data(build):
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: replace(unit(4), cost=np.array([45.0, np.nan, 45.0, 45.0])), "unit 'u': cost"),
        (lambda: replace(unit(4), cost=np.full(4, np.inf)), "unit 'u': cost"),
        (lambda: replace(unit(4), power_max=np.full(4, np.inf)), "unit 'u': .*power_max"),
        (lambda: replace(unit(4), initial_output=np.nan), "unit 'u': initial_output"),
        (lambda: replace(unit(4), initial_output=-5.0), "unit 'u': initial_output"),
        (lambda: producer(4, [unit(4)], valuation=np.nan), "producer 'gen': reserve_valuation"),
        (
            lambda: replace(producer(4, [unit(4)]), production_bias=np.nan),
            "producer 'gen': production_bias",
        ),
        (lambda: retailer(4, [5.0, np.nan, 5.0, 5.0]), "retailer 'ret': inelastic"),
        (lambda: retailer(4, [5.0, 5.0, np.inf, 5.0]), "retailer 'ret': inelastic"),
        (lambda: replace(unit(4), ramp_up=np.inf), "unit 'u': ramp_up"),
        (lambda: replace(unit(4), ramp_down=np.inf), "unit 'u': ramp_down"),
    ],
    ids=["nan-cost", "inf-cost", "inf-power-max", "nan-initial-output", "negative-initial-output",
         "nan-reserve-valuation", "nan-production-bias", "nan-inelastic", "inf-inelastic",
         "inf-ramp-up", "inf-ramp-down"],
)
def test_portfolios_reject_non_finite_data_naming_actor_unit_and_field(build, message):
    # before, each of these failed only inside the LP, naming no actor or
    # unit, or (a negative initial output) solved
    with pytest.raises(ConfigurationError, match=message):
        build()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"total_min": -np.inf}, "total_min"),
        ({"total_max": np.inf}, "total_max"),
        ({"energy_start": np.inf, "energy_max": np.full(5, np.inf)}, "energy_start"),
        ({"power_min": np.full(4, np.inf), "power_max": np.full(4, np.inf)}, "power_min"),
    ],
    ids=["inf-total-min", "inf-total-max", "inf-energy-start", "inf-power-bounds"],
)
def test_tank_loads_reject_infinite_data_naming_load_and_field(change, message):
    # before, each of these failed only in the retailer's LP builder, naming
    # no load or field
    load = replace(simple_load(4), total_min=0.0, total_max=10.0)
    with pytest.raises(ValueError, match=f"load 'load': .*{message}"):
        replace(load, **change)


def test_tank_loads_with_infinite_energy_bounds_still_solve():
    load = replace(simple_load(4), energy_min=np.full(5, -np.inf), energy_max=np.full(5, np.inf))
    model = build_retailer_model(retailer(4, 5.0, [load]), flat_forecast(4, 50.0), CAP, PI_NC)
    assert optimize_retailer(model).scenarios[0].sum() == pytest.approx(6.0)


def test_producer_positive_margin_runs_flat_out():
    port = producer(3, [unit(3, cost=45.0)])
    position, _ = optimize_producer(build_producer_model(port, CAP, PI_NC), flat_forecast(3, 50.0))
    assert np.allclose(position.unit_output[0], 10.0, atol=1e-9)
    assert np.allclose(position.sale, 10.0, atol=1e-9)


def test_producer_negative_margin_idles():
    port = producer(3, [unit(3, cost=45.0)])
    position, _ = optimize_producer(build_producer_model(port, CAP, PI_NC), flat_forecast(3, 40.0))
    assert np.allclose(position.unit_output[0], 0.0, atol=1e-9)


def test_producer_dispatch_matches_grid_search():
    slow = unit(2, cap=10.0, cost=45.0, ramp=3.0, name="slow", p0=5.0)
    fast = unit(2, cap=10.0, cost=70.0, ramp=100.0, name="fast", p0=0.0)
    port = producer(2, [slow, fast])
    fc = flat_forecast(2, np.array([50.0, 90.0]))  # spike in the second period
    position, _ = optimize_producer(build_producer_model(port, CAP, PI_NC), fc)

    best = -np.inf
    for p in itertools.product(range(11), repeat=4):
        s0, s1, f0, f1 = (float(v) for v in p)
        if abs(s0 - 5.0) > 3.0 or abs(s1 - s0) > 3.0:
            continue
        profit = 50.0 * (s0 + f0) + 90.0 * (s1 + f1)
        profit -= 45.0 * (s0 + s1) + 70.0 * (f0 + f1)
        best = max(best, profit)
    assert position.objective == pytest.approx(best, abs=1e-6)


def test_producer_phantom_sale_bounded_by_imbalance_limit():
    port = producer(1, [unit(1, cap=10.0, cost=45.0)], limit=25.0)
    fc = flat_forecast(1, 50.0, imb_down=30.0)  # selling unbacked energy is profitable
    position, _ = optimize_producer(build_producer_model(port, CAP, PI_NC), fc)
    assert position.imbalance_down[0] == pytest.approx(25.0)
    assert position.sale[0] == pytest.approx(35.0)


def test_producer_min_sale_threshold_holds_volume():
    port = producer(1, [unit(1, cap=10.0, cost=45.0)])
    pins = (np.array([0.95 * 8.0]), np.array([np.inf]), np.array([np.inf]))
    fc = flat_forecast(1, 40.0)  # below cost: it would rather idle
    position, _ = optimize_producer(build_producer_model(port, CAP, PI_NC), fc, pins)
    assert position.sale[0] == pytest.approx(7.6)


def test_producer_stage_chaining_with_fixed_quantities():
    port = producer(2, [unit(2, cap=10.0, cost=45.0)], valuation=0.005)
    fc = flat_forecast(2, 50.0)
    model = build_producer_model(port, CAP, PI_NC)
    stage1, _ = optimize_producer(model, fc)
    stage2, _ = optimize_producer(model, fc, fixed_sale=stage1.sale)
    accepted = stage2.reserve * 0.5
    stage3, _ = optimize_producer(model, fc, fixed_sale=stage1.sale, fixed_reserve=accepted)
    assert np.allclose(stage3.sale, stage1.sale)
    assert np.allclose(stage3.reserve, accepted)


def shared_stage_models():
    """A producer and a band-selling retailer model, each with the fixed
    quantities of a later stage that differ from its day-ahead position."""
    gen = producer(2, [unit(2, cap=10.0, cost=45.0)], limit=5.0, valuation=0.005)
    gen_model = build_producer_model(gen, CAP, PI_NC)
    gen_fixed = dict(fixed_sale=np.array([4.0, 12.0]), fixed_reserve=np.full((1, 2, 2), 0.5))
    ret = retailer(4, 10.0, [band_load(4)], limit=3.0)
    ret_model = build_retailer_model(
        ret, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0
    )
    ret_fixed = dict(fixed_demand=np.full(4, 15.0), fixed_amplitudes=np.array([1.0]))
    return [(producer_position, gen_model, gen_fixed), (optimize_retailer, ret_model, ret_fixed)]


def producer_position(model, **fixed):
    """The position of a cold producer solve against a flat forecast of 50,
    without its basis."""
    return optimize_producer(model, flat_forecast(2, 50.0), **fixed)[0]


@pytest.mark.parametrize(
    "optimize, model, fixed", shared_stage_models(), ids=["producer", "retailer"]
)
def test_solving_a_stage_leaves_the_shared_model_as_it_was(optimize, model, fixed):
    # the round's stages and twins share one model, each solving it under
    # its own bounds
    lower, upper = model.lp.lower.copy(), model.lp.upper.copy()
    before = optimize(model)
    later = optimize(model, **fixed)
    after = optimize(model)
    for name, value in fixed.items():
        assert np.allclose(getattr(later, name.removeprefix("fixed_")), value)
    for field in dataclasses.fields(before):
        a, b = getattr(before, field.name), getattr(after, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
    assert lower.tobytes() == model.lp.lower.tobytes()
    assert upper.tobytes() == model.lp.upper.tobytes()


def test_fixed_quantities_must_have_their_variables_shape():
    # numpy would broadcast a one-window amplitude onto a model without
    # windows, and one period's purchase onto every period
    model = build_retailer_model(retailer(2, 5.0), flat_forecast(2, 50.0), CAP, PI_NC)
    with pytest.raises(ConfigurationError, match=r"fixed_amplitudes has shape \(1,\), not \(0,\)"):
        optimize_retailer(model, fixed_demand=np.full(2, 5.0), fixed_amplitudes=np.ones(1))
    with pytest.raises(ConfigurationError, match=r"fixed_demand has shape \(1,\), not \(2,\)"):
        optimize_retailer(model, fixed_demand=np.full(1, 5.0))
    model = build_producer_model(producer(2, [unit(2)]), CAP, PI_NC)
    with pytest.raises(ConfigurationError, match=r"fixed_reserve has shape \(2, 2\), not"):
        optimize_producer(model, flat_forecast(2, 50.0), fixed_reserve=np.zeros((2, 2)))


def test_producer_offers_and_bids():
    port = producer(2, [unit(2, cap=10.0, cost=45.0)], valuation=0.005)
    fc = flat_forecast(2, 50.0, imb_down=20.0)
    position, _ = optimize_producer(build_producer_model(port, CAP, PI_NC), fc)
    offers = producer_energy_offers(position, port, fc)
    assert set(offers.side) == {SUPPLY}
    unit_offers = offers.price == 45.0
    phantom = offers.price == 20.0
    assert np.count_nonzero(unit_offers) == 2
    assert offers.volume[unit_offers] == pytest.approx([10.0, 10.0])
    assert np.count_nonzero(phantom) == 2  # the predicted shortfall is offered at the tariff forecast
    assert offers.volume[phantom] == pytest.approx(position.imbalance_down[offers.period[phantom]])

    bids = producer_reserve_bids(position, port)
    assert set(bids.actor) == {"gen"}
    assert np.all(bids.activation_price == 45.0)
    # accepted in full, every bid goes back to the one unit
    accepted = accepted_volumes(position.reserve, np.ones(len(bids)))
    assert accepted.shape == (1, 2, 2)
    assert accepted.sum() == pytest.approx(bids.volume.sum())


def hand_position(reserve_up, reserve_down):
    """A position holding the given (units, periods) upward and downward reserve."""
    reserve = np.stack([reserve_up, reserve_down], axis=2).astype(float)
    units, t, _ = reserve.shape
    return ProducerPosition(
        sale=np.zeros(t),
        imbalance_up=np.zeros(t),
        imbalance_down=np.zeros(t),
        unit_output=np.zeros((units, t)),
        reserve=reserve,
        objective=0.0,
    )


def test_producer_accepted_reserve_lands_on_its_unit_period_and_direction():
    port = producer(2, [unit(2, cost=45.0, name="a"), unit(2, cost=60.0, name="b")])
    position = hand_position([[3.0, 0.0], [5.0, 7.0]], [[0.0, 2.0], [4.0, 0.0]])
    bids = producer_reserve_bids(position, port)
    assert [row[1:] for row in bids.rows()] == [
        (0, "up", 3.0, 45.0),
        (1, "down", 2.0, 45.0),
        (0, "up", 5.0, 60.0),
        (0, "down", 4.0, 60.0),
        (1, "up", 7.0, 60.0),
    ]
    accepted = accepted_volumes(position.reserve, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    up, down = accepted[..., 0], accepted[..., 1]
    assert np.allclose(up[0], [0.3, 0.0]) and np.allclose(down[0], [0.0, 0.4])
    assert np.allclose(up[1], [1.5, 3.5]) and np.allclose(down[1], [1.6, 0.0])


def test_retailer_bids_and_accepted_amplitudes_keep_their_window():
    port = retailer(6, 5.0)
    position = RetailerPosition(
        demand=np.array([4.0, 0.0, 3.0, 0.0, 0.0, 2.0]),
        imbalance_up=np.zeros(6),
        imbalance_down=np.zeros(6),
        scenarios=np.zeros((3, 0, 6)),
        objective=0.0,
        windows=[(0, 2), (2, 2), (4, 2)],
        amplitudes=np.array([1.5, 0.0, 2.5]),
    )
    offers = retailer_demand_offers(position, port, CAP)
    assert list(offers.rows()) == [
        ("ret", 0, DEMAND, 4.0, CAP),
        ("ret", 2, DEMAND, 3.0, CAP),
        ("ret", 5, DEMAND, 2.0, CAP),
    ]
    bids = retailer_band_bids(position, port, 0.5)
    assert list(bids.rows()) == [
        ("ret", 0, 2, 1.5, 0.0, 0.5),
        ("ret", 4, 2, 2.5, 0.0, 0.5),
    ]
    accepted = accepted_volumes(position.amplitudes, np.array([0.2, 0.6]))
    assert np.allclose(accepted, [0.3, 0.0, 1.5])


def test_retailer_without_windows_bids_no_band():
    port = retailer(2, 5.0)
    position = optimize_retailer(build_retailer_model(port, flat_forecast(2, 50.0), CAP, PI_NC))
    assert len(retailer_band_bids(position, port, 0.5)) == 0
    assert accepted_volumes(position.amplitudes, np.zeros(0)).size == 0


# ---------------------------------------------------------------------------
# modulation scenario coverage
# ---------------------------------------------------------------------------


def test_coverage_baseline_and_extremes_are_samples():
    rng = np.random.default_rng(1)
    load, base, up, down = random_feasible_modulation(rng, periods=4)
    for schedule in (base, up, down):
        assert load.schedule_violations(schedule, tol=1e-9) == []
    report = verify_scenario_coverage(load, base, up, down, samples=50, seed=2)
    assert report.passed


def test_coverage_thousand_samples_on_random_loads():
    rng = np.random.default_rng(20260808)
    for _ in range(5):
        load, base, up, down = random_feasible_modulation(rng)
        report = verify_scenario_coverage(load, base, up, down, samples=1000, seed=7)
        assert report.failures == 0


def test_coverage_rejects_bad_envelopes():
    rng = np.random.default_rng(3)
    load, base, up, down = random_feasible_modulation(rng, periods=4)
    with pytest.raises(ValueError):
        verify_scenario_coverage(load, base, down, up, samples=10, seed=0)  # swapped


def test_coverage_rejects_infeasible_baseline():
    rng = np.random.default_rng(4)
    load, base, up, down = random_feasible_modulation(rng, periods=4)
    with pytest.raises(ValueError):
        verify_scenario_coverage(load, base + 100.0, up, down, samples=10, seed=0)


@pytest.mark.parametrize("samples", [0, -5])
def test_coverage_rejects_fewer_than_one_sample(samples):
    rng = np.random.default_rng(4)
    load, base, up, down = random_feasible_modulation(rng, periods=4)
    with pytest.raises(ValueError, match="at least one sample"):
        verify_scenario_coverage(load, base, up, down, samples=samples, seed=0)


@pytest.mark.parametrize("periods", [3, -2, 0, 4.0, "4"])
def test_random_modulation_rejects_periods_other_than_positive_even_integers(periods):
    with pytest.raises(ValueError, match="periods"):
        random_feasible_modulation(np.random.default_rng(0), periods=periods)


@pytest.mark.parametrize(
    "field_name",
    ["power_min", "power_max", "energy_min", "energy_max", "loss", "total_min", "total_max",
     "period_hours"],
)
def test_tank_load_rejects_nan_bounds(field_name):
    load = simple_load(2)
    value = getattr(load, field_name)
    if np.ndim(value):
        value = value.copy()
        value[-1] = np.nan
    else:
        value = np.nan
    with pytest.raises(ValueError, match="not"):
        replace(load, **{field_name: value})


def test_nan_schedule_breaks_every_bound_it_enters():
    load = simple_load(2, total=4.0)
    assert load.schedule_violations([3.5, 0.5]) == []
    assert load.schedule_violations([np.nan, 0.5]) == [
        "power bounds", "energy bounds", "total energy bounds"
    ]
    rng = np.random.default_rng(4)
    load, base, up, down = random_feasible_modulation(rng, periods=4)
    base[1] = np.nan
    with pytest.raises(ValueError, match="baseline scenario infeasible"):
        verify_scenario_coverage(load, base, up, down, samples=10, seed=0)


def assert_coverage_matches_loop(load, base, up, down, samples, seed):
    """The checker's draws, count and first failure equal the per-sample
    loop's; the draws bit for bit."""
    half = load.horizon // 2
    lo = np.concatenate([down[:half], up[half:]])
    hi = np.concatenate([up[:half], down[half:]])
    draws = tank._random_fixed_sum(
        np.random.default_rng(seed), lo, hi, float(np.sum(base)), samples
    )
    expected_draws, failures, first_failure = oracles.reference_coverage(
        load, base, up, down, samples, seed
    )
    assert draws.shape == expected_draws.shape == (samples, load.horizon)
    assert draws.tobytes() == expected_draws.tobytes()
    states = load._trajectory(draws.T).T
    for row, row_states in zip(draws, states):
        assert row_states.tobytes() == oracles.reference_trajectory(load, row).tobytes()
    report = verify_scenario_coverage(load, base, up, down, samples=samples, seed=seed)
    assert (report.samples, report.failures) == (samples, failures)
    assert_same_failure(report.first_failure, first_failure)
    return report


def assert_same_failure(actual, expected):
    if expected is None:
        assert actual is None
        return
    assert actual["sample"] == expected["sample"]
    assert actual["schedule"].tobytes() == expected["schedule"].tobytes()
    assert actual["problems"] == expected["problems"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coverage_matches_per_sample_loop_on_random_loads(seed):
    rng = np.random.default_rng(seed)
    for k, periods in enumerate([None, None, None, 8, 16]):
        load, base, up, down = random_feasible_modulation(rng, periods=periods)
        assert_coverage_matches_loop(load, base, up, down, samples=300, seed=seed + k)


def flat_band(rng, deviation):
    """A wide load with a random baseline and the band ``base +- deviation``."""
    t = len(deviation)
    base = rng.uniform(2.0, 6.0, size=t)
    load = TankLoad(
        name="flat",
        power_min=np.zeros(t),
        power_max=np.full(t, 10.0),
        energy_min=np.full(t + 1, -20.0),
        energy_max=np.full(t + 1, 40.0),
        efficiency=0.9,
        loss=np.full(t, 0.2),
        total_min=float(np.sum(base)),
        total_max=float(np.sum(base)),
        energy_start=5.0,
    )
    return load, base, base + deviation, base - deviation


@pytest.mark.parametrize(
    "deviation",
    [
        # up for the first half, down for the second
        [0.5, 0.0, 1.0, -1.5, 0.0, 0.0],  # flat tail of two periods
        [0.6, 0.0, 0.6, -0.6, 0.0, -0.6],  # flat next-to-last period
        [0.3, 0.0, 0.2, -0.1, -0.4, 0.0],  # flat last period
        [0.0, 1.2, -0.7, -0.5],  # flat first period
        [0.0, 0.5, 0.0, 0.7, -0.4, 0.0, -0.8, 0.0],  # every other period flat
        [0.0, 0.0, 0.0, 0.0],  # a band of zero amplitude: nothing to draw
    ],
)
def test_coverage_matches_per_sample_loop_on_flat_periods(deviation):
    rng = np.random.default_rng(len(deviation))
    load, base, up, down = flat_band(rng, np.array(deviation))
    assert_coverage_matches_loop(load, base, up, down, samples=200, seed=5)


def test_coverage_matches_per_sample_loop_at_horizon_zero_and_one_sample():
    empty = np.zeros(0)
    load = TankLoad(
        name="empty", power_min=empty, power_max=empty, energy_min=[0.0], energy_max=[1.0],
        efficiency=1.0, loss=empty, total_min=0.0, total_max=0.0, energy_start=0.5,
    )
    report = assert_coverage_matches_loop(load, empty, empty, empty, samples=3, seed=0)
    assert report.passed
    load, base, up, down = random_feasible_modulation(np.random.default_rng(8), periods=6)
    assert_coverage_matches_loop(load, base, up, down, samples=1, seed=0)


@pytest.mark.parametrize("seed, scale", [(6, 3e7), (27, 3e7)])
def test_coverage_matches_per_sample_loop_at_the_rounding_edge(seed, scale):
    """A load so large that the samples' totals and final states sit within
    ulps of the 1e-7 tolerances: each total must round as that sample's own
    ``np.sum`` does, which a sum down the period axis does not."""
    load, base, up, down = random_feasible_modulation(np.random.default_rng(seed), periods=16)
    total = float(np.sum(base * scale))
    load = replace(
        load,
        power_min=load.power_min * scale,
        power_max=load.power_max * scale,
        energy_min=load.energy_min * scale,
        energy_max=load.energy_max * scale,
        loss=load.loss * scale,
        energy_start=load.energy_start * scale,
        total_min=total - 1e-9,
        total_max=total + 1e-9,
    )
    report = assert_coverage_matches_loop(
        load, base * scale, up * scale, down * scale, samples=200, seed=3
    )
    assert 0 < report.failures < 200


def test_bound_masks_match_schedule_violations_row_by_row():
    load = replace(
        simple_load(4, e_span=3.0), loss=np.full(4, 2.0), total_min=6.0, total_max=10.0
    )
    rng = np.random.default_rng(12)
    schedules = np.vstack([
        [[2.0, 2.0, 2.0, 2.0],  # feasible
         [4.2, 0.0, 2.0, 2.0],  # power only
         [4.0, 4.0, 0.0, 0.0],  # energy only
         [1.0, 2.0, 2.0, 0.5],  # total only
         [np.nan, 2.0, 2.0, 2.0]],  # NaN: all three
        rng.uniform(-0.5, 4.5, size=(400, 4)),
    ])
    schedules[20::13, 2] = np.nan
    by_period = schedules.T
    broken = load._violations(by_period, load._trajectory(by_period), 1e-7).T
    assert broken.shape == (405, 3)
    for row, row_broken in zip(schedules, broken):
        problems = load.schedule_violations(row, tol=1e-7)
        assert problems == oracles.reference_violations(load, row, tol=1e-7)
        assert problems == [
            label for label, bad in zip(tank._BOUND_LABELS, row_broken) if bad
        ]
    assert broken[:5].tolist() == [
        [False, False, False], [True, False, False], [False, True, False],
        [False, False, True], [True, True, True],
    ]
    # the random rows break the bounds in every combination
    assert len({tuple(r) for r in broken[5:]}) == 8


def test_coverage_counts_failures_and_keeps_the_first_in_order(monkeypatch):
    load = TankLoad(
        name="ranged",
        power_min=np.zeros(2),
        power_max=np.full(2, 4.0),
        energy_min=np.array([-1.0, 1.5, 0.0]),
        energy_max=np.array([1.0, 4.5, 7.0]),
        efficiency=1.0,
        loss=np.zeros(2),
        total_min=4.0,
        total_max=8.0,
        energy_start=0.0,
    )
    base, up, down = np.array([3.0, 3.0]), np.array([4.0, 2.0]), np.array([2.0, 4.0])
    draws = np.array([
        [3.0, 3.0],     # passes
        [3.5, 3.0],     # only the final tank state differs
        [1.0, 5.0],     # power and energy, same total and final state
        [np.nan, 3.0],  # NaN: every bound and the final state
        [1.0, 1.0],     # energy, total and final state
        [2.5, 3.5],     # passes
    ])
    monkeypatch.setattr(tank, "_random_fixed_sum", lambda *args: draws.copy())
    report = verify_scenario_coverage(load, base, up, down, samples=6, seed=0)
    failures, first_failure = oracles.reference_checks(load, base, draws)
    assert report.failures == failures == 4
    assert_same_failure(report.first_failure, first_failure)
    assert report.first_failure["sample"] == 1
    assert report.first_failure["problems"] == ["terminal energy differs from baseline"]
    monkeypatch.setattr(tank, "_random_fixed_sum", lambda *args: draws[2:].copy())
    report = verify_scenario_coverage(load, base, up, down, samples=4, seed=0)
    assert report.first_failure["problems"] == ["power bounds", "energy bounds"]


def ranged_load():
    """Two periods on which the scenarios ``[3, 3]``, ``[4, 2]`` and
    ``[2, 4]`` are feasible, with bounds that break one at a time."""
    return TankLoad(
        name="ranged",
        power_min=np.zeros(2),
        power_max=np.full(2, 4.0),
        energy_min=np.array([-1.0, 1.5, 0.0]),
        energy_max=np.array([1.0, 4.5, 7.0]),
        efficiency=1.0,
        loss=np.zeros(2),
        total_min=4.0,
        total_max=8.0,
        energy_start=0.0,
    )


@pytest.mark.parametrize(
    "base, up, down, message",
    [
        ([3.0, 3.0], [4.5, 1.5], [2.0, 4.0], "up scenario infeasible for 'ranged': ['power bounds']"),
        (
            [3.0, 3.0], [4.0, 2.0], [1.0, 5.0],
            "down scenario infeasible for 'ranged': ['power bounds', 'energy bounds']",
        ),
        # the baseline and down both break bounds: the baseline is named
        (
            [1.0, 1.0], [4.0, 2.0], [1.0, 5.0],
            "baseline scenario infeasible for 'ranged': ['energy bounds', 'total energy bounds']",
        ),
    ],
)
def test_coverage_names_the_first_infeasible_scenario_and_its_bounds(base, up, down, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_scenario_coverage(ranged_load(), base, up, down, samples=10, seed=0)


@pytest.mark.parametrize(
    "scenario, value, shape",
    [("baseline", 3.0, "()"), ("baseline", [3.0], "(1,)"), ("up", [[4.0, 2.0]] * 2, "(2, 2)")],
)
def test_coverage_rejects_scenarios_that_are_not_one_schedule(scenario, value, shape):
    scenarios = {"baseline": [3.0, 3.0], "up": [4.0, 2.0], "down": [2.0, 4.0], scenario: value}
    with pytest.raises(
        ValueError, match=re.escape(f"load 'ranged': {scenario} scenario has shape {shape}, not (2,)")
    ):
        verify_scenario_coverage(ranged_load(), *scenarios.values(), samples=10, seed=0)


def test_schedules_must_span_the_horizon():
    load = ranged_load()
    with pytest.raises(ValueError, match=re.escape("load 'ranged': schedule has shape (4,), not (2,)")):
        load.schedule_violations(np.full(4, 1.5))
    with pytest.raises(ValueError, match=re.escape("schedule has shape (2, 2), not (2,)")):
        load.schedule_violations(np.full((2, 2), 1.5))
    with pytest.raises(ValueError, match=re.escape("load 'load': schedule has shape (1,), not (4,)")):
        simple_load(4).energy_trajectory([1.0])


@pytest.mark.parametrize(
    "field_name, value, message",
    [
        ("period_hours", np.inf, "not 0 < period_hours < inf"),
        ("power_min", np.zeros((2, 2)), "power_min is not one-dimensional"),
        ("power_max", np.full((2, 2), 4.0), "power_max is not one-dimensional"),
    ],
)
def test_tank_load_rejects_infinite_periods_and_stacked_series(field_name, value, message):
    with pytest.raises(ValueError, match=re.escape(f"load 'load': {message}")):
        replace(simple_load(2), **{field_name: value})


@pytest.mark.parametrize("samples", [True, 2.5, 10.0, "10"])
def test_coverage_rejects_non_integral_samples(samples):
    load, base, up, down = random_feasible_modulation(np.random.default_rng(4), periods=4)
    with pytest.raises(ValueError, match=re.escape(f"samples must be an integer, got {samples!r}")):
        verify_scenario_coverage(load, base, up, down, samples=samples, seed=0)
    report = verify_scenario_coverage(load, base, up, down, samples=np.int64(3), seed=0)
    assert (report.samples, report.failures) == (3, 0)
    assert type(report.failures) is int  # json writes it


# ---------------------------------------------------------------------------
# model snapshot: the LPs the agents build, term for term
# ---------------------------------------------------------------------------

MODEL_SNAPSHOT = Path(__file__).with_name("agent_models.npz")


class _Captured(Exception):
    pass


class StageModel(NamedTuple):
    """One agent stage as its optimizer hands it to ``solve``: the model,
    the stage's variable bounds and the solve's objective vector."""

    lp: LinearProgram
    lower: np.ndarray
    upper: np.ndarray
    costs: np.ndarray


def _snapshot_portfolios():
    t = 6
    units = [
        GenerationUnit(
            name="a",
            power_min=np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0]),
            power_max=np.array([5.0, 5.0, 6.0, 6.0, 5.0, 5.0]),
            ramp_up=2.0,
            ramp_down=3.0,
            cost=np.array([20.0, 25.0, 30.0, 35.0, 28.0, 22.0]),
            initial_output=1.0,
        ),
        GenerationUnit(
            name="b",
            power_min=np.full(t, 0.5),
            power_max=np.full(t, 4.0),
            ramp_up=4.0,
            ramp_down=4.0,
            cost=np.full(t, 40.0),
        ),
    ]
    gen = ProducerPortfolio(name="gen", units=units, imbalance_limit=10.0, production_bias=0.01)
    loads = [
        simple_load(t, total=6.0, name="fixed-total"),
        TankLoad(
            name="ranged",
            power_min=np.full(t, 0.2),
            power_max=np.full(t, 3.0),
            energy_min=np.zeros(t + 1),
            energy_max=np.full(t + 1, 10.0),
            efficiency=0.9,
            loss=np.full(t, 0.1),
            total_min=4.0,
            total_max=8.0,
            energy_start=1.0,
            period_hours=0.5,
        ),
    ]
    ret = retailer(t, np.array([5.0, 6.0, 7.0, 7.0, 6.0, 5.0]), loads)
    return gen, ret


def capture_agent_models() -> dict:
    """The :class:`StageModel` of every producer and retailer stage of a
    small fixed portfolio with pins and bands on, captured at the ``solve``
    call."""
    from flexmarket.agents import producer as producer_model
    from flexmarket.agents import retailer as retailer_model

    gen, ret = _snapshot_portfolios()
    fc = flat_forecast(6, np.array([30.0, 45.0, 50.0, 60.0, 40.0, 35.0]), 70.0, 20.0)
    inf = np.inf
    pins = (
        np.array([inf, 3.0, inf, 4.0, inf, inf]),
        np.array([inf, inf, inf, inf, inf, 2.0]),
        np.array([1.0, inf, inf, 1.5, inf, inf]),
    )
    sale = np.array([3.0, 4.0, 5.0, 6.0, 4.0, 3.0])
    # both directions: 0.5 MW on unit "a", 0.25 MW on unit "b"
    reserve = np.broadcast_to(np.array([0.5, 0.25])[:, None, None], (2, 6, 2))
    windows = [(0, 2), (2, 4)]
    demand = np.array([7.0, 8.0, 9.0, 9.0, 8.0, 7.0])
    producer = build_producer_model(gen, CAP, PI_NC)
    bands = build_retailer_model(ret, fc, CAP, PI_NC, windows=windows, pins=pins)
    pairs = build_retailer_model(ret, fc, CAP, PI_NC, windows=[(0, 2), (2, 2), (4, 2)], pins=pins)
    no_bands = build_retailer_model(ret, fc, CAP, PI_NC, pins=pins)
    stages = {
        "producer_free": lambda: optimize_producer(producer, fc, pins),
        "producer_sold": lambda: optimize_producer(producer, fc, pins, fixed_sale=sale),
        "producer_reserved": lambda: optimize_producer(
            producer, fc, pins, fixed_sale=sale, fixed_reserve=reserve
        ),
        "retailer_bands": lambda: optimize_retailer(bands),
        "retailer_sold": lambda: optimize_retailer(
            bands, fixed_demand=demand, fixed_amplitudes=np.array([0.5, 0.25])
        ),
        "retailer_pairs": lambda: optimize_retailer(pairs),
        "retailer_no_bands": lambda: optimize_retailer(no_bands),
    }
    captured = {}

    def stop(lp, lower, upper, basis=None, costs=None):
        costs = lp.objective_vector() if costs is None else costs
        captured["stage"] = StageModel(lp, lower, upper, costs)
        raise _Captured

    models = {}
    originals = producer_model.solve, retailer_model.solve
    producer_model.solve = retailer_model.solve = stop
    try:
        for key, stage in stages.items():
            try:
                stage()
            except _Captured:
                models[key] = captured.pop("stage")
    finally:
        producer_model.solve, retailer_model.solve = originals
    return models


def record_agent_models(path=MODEL_SNAPSHOT) -> None:
    """Write the snapshot :func:`test_agent_models_match_snapshot` reads."""
    from scipy.sparse import csr_array

    arrays = {}
    for key, (lp, lower, upper, costs) in capture_agent_models().items():
        dense, relations, rhs = lp.dense_rows()
        matrix = csr_array(dense)
        arrays[key + ".data"] = matrix.data
        arrays[key + ".indices"] = matrix.indices.astype(np.int64)
        arrays[key + ".indptr"] = matrix.indptr.astype(np.int64)
        arrays[key + ".shape"] = np.array(matrix.shape)
        arrays[key + ".relations"] = np.array(relations, dtype="<U2")
        arrays[key + ".rhs"] = rhs
        arrays[key + ".lower"] = np.asarray(lower, dtype=float)
        arrays[key + ".upper"] = np.asarray(upper, dtype=float)
        arrays[key + ".objective"] = costs
        arrays[key + ".sense"] = np.array(lp.sense)
    np.savez_compressed(path, **arrays)


def _same_bits(actual, expected):
    actual = np.asarray(actual)
    assert actual.shape == expected.shape
    assert actual.dtype.kind == expected.dtype.kind
    if actual.dtype.kind == "f":
        # bitwise, so that -0.0 and 0.0 differ as they would for HiGHS
        return actual.astype(np.float64).tobytes() == expected.tobytes()
    return np.array_equal(actual, expected)


def test_agent_models_match_snapshot():
    """Every producer and retailer stage builds the same LP as recorded.

    The snapshot pins the variable order, row order, coefficients, bounds
    and each solve's objective term for term, so HiGHS receives the same
    matrix and returns the same vertex.  Regenerate it (only when a model
    is meant to change) from the repository root with::

        PYTHONPATH=src:tests python -c "import test_agents; test_agents.record_agent_models()"
    """
    expected = np.load(MODEL_SNAPSHOT)
    models = capture_agent_models()
    assert sorted(models) == sorted({name.split(".")[0] for name in expected.files})
    for key, (lp, lower, upper, costs) in models.items():
        matrix, relations, rhs = oracles.sparse_rows(lp)
        assert tuple(matrix.shape) == tuple(expected[key + ".shape"]), key
        assert _same_bits(matrix.data, expected[key + ".data"]), key
        assert _same_bits(matrix.indices.astype(np.int64), expected[key + ".indices"]), key
        assert _same_bits(matrix.indptr.astype(np.int64), expected[key + ".indptr"]), key
        assert np.array_equal(relations, expected[key + ".relations"]), key
        assert _same_bits(rhs, expected[key + ".rhs"]), key
        assert _same_bits(lower, expected[key + ".lower"]), key
        assert _same_bits(upper, expected[key + ".upper"]), key
        assert _same_bits(costs, expected[key + ".objective"]), key
        assert str(expected[key + ".sense"]) == lp.sense, key
