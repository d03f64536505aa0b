import itertools
from pathlib import Path

import numpy as np
import pytest

from flexmarket.agents import (
    ForecastParameters,
    GenerationUnit,
    ProducerPortfolio,
    ProducerPosition,
    RetailerPortfolio,
    RetailerPosition,
    TankLoad,
    ThresholdTrack,
    forecast,
    optimize_producer,
    optimize_retailer,
    producer_energy_offers,
    producer_reserve_bids,
    random_feasible_modulation,
    verify_scenario_coverage,
)
from flexmarket.agents.forecast import PriceForecast, exponential_mean, extreme_prices
from flexmarket.agents.producer import producer_accepted_reserve
from flexmarket.agents.retailer import (
    ConfigurationError,
    retailer_accepted_amplitudes,
    retailer_band_bids,
    retailer_demand_offers,
)
from flexmarket.energy_market import DEMAND

CAP = 3000.0
PI_NC = 500.0
PARAMS = ForecastParameters(price_cap=CAP, non_contracted_price=PI_NC)


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


def test_forecast_constant_series():
    hist = [np.array([50.0]), np.array([50.0]), np.array([50.0])]
    fc = forecast(hist, hist, hist, PARAMS, periods=1)
    assert fc.energy[0] == pytest.approx(50.0)


def test_forecast_cap_replaced_by_last_uncapped():
    hist = [np.array([50.0]), np.array([CAP])]
    tariffs = [np.array([20.0])] * 2
    fc = forecast(hist, tariffs, tariffs, PARAMS, periods=1)
    assert fc.energy[0] == pytest.approx(50.0)
    capped, up_extreme, down_extreme = extreme_prices(
        np.vstack(hist), np.vstack(tariffs), np.vstack(tariffs), CAP, PI_NC
    )
    assert capped[:, 0].tolist() == [False, True]
    assert not up_extreme.any() and not down_extreme.any()


def test_forecast_weighted_mean():
    hist = [np.array([40.0]), np.array([60.0])]
    fc = forecast(hist, [np.array([20.0])] * 2, [np.array([20.0])] * 2, PARAMS, periods=1)
    assert fc.energy[0] == pytest.approx((0.5 * 40.0 + 1.0 * 60.0) / 1.5)


def test_forecast_empty_history_uses_seeds():
    fc = forecast([], [], [], PARAMS, periods=3)
    assert np.all(fc.energy == PARAMS.energy_seed)
    assert np.all(fc.imbalance_up == PARAMS.tariff_seed)


def test_forecast_all_capped_history_uses_seed():
    hist = [np.array([CAP]), np.array([CAP])]
    fc = forecast(hist, [np.array([20.0])] * 2, [np.array([20.0])] * 2, PARAMS, periods=1)
    assert fc.energy[0] == pytest.approx(PARAMS.energy_seed)


def test_forecast_tariff_extremes_replaced():
    up = [np.array([30.0]), np.array([0.0]), np.array([PI_NC])]
    energy = [np.array([50.0])] * 3
    fc = forecast(energy, up, up, PARAMS, periods=1)
    assert fc.imbalance_up[0] == pytest.approx(30.0)
    capped, up_extreme, down_extreme = extreme_prices(
        np.vstack(energy), np.vstack(up), np.vstack(up), CAP, PI_NC
    )
    assert up_extreme[:, 0].tolist() == [False, True, True]
    assert np.array_equal(down_extreme, up_extreme)
    assert not capped.any()


def test_exponential_mean_window_truncation():
    history = np.array([[10.0], [90.0], [50.0], [50.0]])
    invalid = np.zeros((4, 1), dtype=bool)
    out = exponential_mean(history, invalid, alpha=0.5, window=2, seed=0.0)
    assert out[0] == pytest.approx(50.0)  # the early rows fall outside the window


# ---------------------------------------------------------------------------
# threshold learning
# ---------------------------------------------------------------------------


def test_threshold_pin_on_trigger():
    track = ThresholdTrack(periods=2)
    track.update(np.array([True, False]), np.array([100.0, 80.0]))
    assert track.value[0] == pytest.approx(95.0)
    assert np.isinf(track.value[1])


def test_threshold_repeated_trigger_compounds():
    track = ThresholdTrack(periods=1)
    track.update(np.array([True]), np.array([100.0]))
    track.update(np.array([True]), np.array([95.0]))
    assert track.value[0] == pytest.approx(90.25)


def test_threshold_forgets_after_quiet_rounds():
    track = ThresholdTrack(periods=1, forget_after=3)
    track.update(np.array([True]), np.array([10.0]))
    for _ in range(2):
        track.update(np.array([False]), np.array([0.0]))
        assert np.isfinite(track.value[0])
    track.update(np.array([False]), np.array([0.0]))
    assert np.isinf(track.value[0])


# ---------------------------------------------------------------------------
# retailer model
# ---------------------------------------------------------------------------


def test_retailer_without_loads_buys_inelastic_demand():
    port = retailer(3, 7.0)
    position = optimize_retailer(port, flat_forecast(3, 50.0), CAP, PI_NC)
    assert np.allclose(position.demand, 7.0, atol=1e-9)
    assert np.allclose(position.imbalance_up, 0.0, atol=1e-9)
    assert np.allclose(position.imbalance_down, 0.0, atol=1e-9)


def test_retailer_flat_prices_costs_are_schedule_independent():
    port = retailer(3, 5.0, [simple_load(3)])
    fc = flat_forecast(3, 40.0)
    position = optimize_retailer(port, fc, CAP, PI_NC)
    assert position.objective == pytest.approx(40.0 * (15.0 + 6.0))


def test_retailer_concentrates_consumption_in_cheap_period():
    port = retailer(3, 5.0, [simple_load(3)])
    fc = flat_forecast(3, np.array([50.0, 30.0, 50.0]))
    position = optimize_retailer(port, fc, CAP, PI_NC)
    assert position.schedules[0][1] == pytest.approx(4.0, abs=1e-9)

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
    position = optimize_retailer(port, fc, CAP, PI_NC)
    # buying nothing and paying the cheap downward tariff wins
    assert position.demand[0] == pytest.approx(0.0, abs=1e-9)
    assert position.imbalance_down[0] == pytest.approx(10.0)


def test_retailer_demand_threshold_caps_submission():
    port = retailer(1, 10.0)
    pins = (np.array([0.95 * 8.0]), np.array([np.inf]), np.array([np.inf]))
    fc = flat_forecast(1, 50.0)
    position = optimize_retailer(port, fc, CAP, PI_NC, pins=pins)
    # beyond 7.6 every MW costs the cap surcharge, dearer than the tariff
    assert position.demand[0] == pytest.approx(7.6)
    assert position.imbalance_down[0] == pytest.approx(2.4)


def test_reposition_with_rationed_demand_goes_to_imbalance():
    port = retailer(1, 10.0)
    position = optimize_retailer(
        port, flat_forecast(1, 50.0), CAP, PI_NC, fixed_demand=np.array([5.0])
    )
    assert position.imbalance_down[0] == pytest.approx(5.0)
    assert position.imbalance_up[0] == pytest.approx(0.0, abs=1e-9)


def test_reposition_consistent_with_day_ahead_optimum():
    port = retailer(2, 5.0, [simple_load(2, total=4.0)])
    fc = flat_forecast(2, np.array([50.0, 30.0]))
    first = optimize_retailer(port, fc, CAP, PI_NC)
    again = optimize_retailer(port, fc, CAP, PI_NC, fixed_demand=first.demand)
    assert np.allclose(again.imbalance_up, 0.0, atol=1e-7)
    assert np.allclose(again.imbalance_down, 0.0, atol=1e-7)
    assert again.objective == pytest.approx(first.objective, abs=1e-6)


def test_reposition_shifts_shortfall_toward_cheap_tariff_period():
    load = simple_load(2, hi=5.0, total=5.0)
    port = retailer(2, 5.0, [load])
    fc = flat_forecast(2, np.array([50.0, 30.0]))
    day_ahead = optimize_retailer(port, fc, CAP, PI_NC)
    assert day_ahead.schedules[0][1] == pytest.approx(5.0, abs=1e-9)

    rationed = day_ahead.demand - np.array([0.0, 2.0])
    cheap_first = PriceForecast(
        energy=fc.energy,
        imbalance_up=np.full(2, 200.0),
        imbalance_down=np.array([10.0, 100.0]),
    )
    position = optimize_retailer(port, cheap_first, CAP, PI_NC, fixed_demand=rationed)
    # the tank moves the gap into the period with the cheap tariff
    assert position.imbalance_down[0] == pytest.approx(2.0, abs=1e-7)
    assert position.imbalance_down[1] == pytest.approx(0.0, abs=1e-7)
    dear_first = PriceForecast(
        energy=fc.energy,
        imbalance_up=np.full(2, 200.0),
        imbalance_down=np.array([100.0, 10.0]),
    )
    position = optimize_retailer(port, dear_first, CAP, PI_NC, fixed_demand=rationed)
    assert position.imbalance_down[1] == pytest.approx(2.0, abs=1e-7)


def test_infeasible_tank_reported_as_configuration_error():
    load = simple_load(2, lo=0.0, hi=1.0, total=10.0)  # cannot draw 10 MWh at 1 MW
    port = retailer(2, 5.0, [load])
    with pytest.raises(ConfigurationError):
        optimize_retailer(port, flat_forecast(2, 50.0), CAP, PI_NC)


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
    position = optimize_retailer(port, fc, CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0)
    assert position.amplitudes[0] == pytest.approx(2.0, abs=1e-7)
    up = port.inelastic + np.sum(position.up_schedules, axis=0)
    base = position.demand - position.imbalance_up + position.imbalance_down
    assert np.allclose(up[:2] - base[:2], 2.0, atol=1e-7)
    assert np.allclose(up[2:] - base[2:], -2.0, atol=1e-7)
    down = port.inelastic + np.sum(position.down_schedules, axis=0)
    assert np.allclose(down[:2] - base[:2], -2.0, atol=1e-7)
    assert np.allclose(down[2:] - base[2:], 2.0, atol=1e-7)


def test_band_amplitude_zero_without_flexible_loads():
    port = retailer(4, 10.0)
    position = optimize_retailer(
        port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0
    )
    assert position.amplitudes[0] == pytest.approx(0.0, abs=1e-9)


def test_band_zero_price_tie_broken_toward_larger_amplitude():
    port = retailer(4, 10.0, [band_load(4)])
    position = optimize_retailer(
        port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4)], modulation_price=0.0
    )
    assert position.amplitudes[0] == pytest.approx(2.0, abs=1e-6)


def test_band_energy_neutral_per_window_and_tank_consistent():
    port = retailer(8, 10.0, [band_load(8, mid=5.0, slack=1.5)])
    fc = flat_forecast(8, np.array([45.0, 50.0, 55.0, 48.0, 52.0, 47.0, 53.0, 49.0]))
    position = optimize_retailer(
        port, fc, CAP, PI_NC, windows=[(0, 4), (4, 4)], modulation_price=10.0
    )
    load = port.loads[0]
    base = position.schedules[0]
    base_states = load.energy_trajectory(base)
    for sched in (position.up_schedules[0], position.down_schedules[0]):
        for start, length in position.windows:
            block = slice(start, start + length)
            assert np.sum(sched[block]) == pytest.approx(np.sum(base[block]), abs=1e-9)
            # the scenario leaves the baseline tank state at the window start
            # and hands it back at the window end
            states = load.energy_trajectory(sched)
            assert states[start] == pytest.approx(base_states[start], abs=1e-9)
            assert states[start + length] == pytest.approx(base_states[start + length], abs=1e-9)
        assert load.schedule_violations(sched, tol=1e-7) == []


def test_position_balance_identities():
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = 4
        load = simple_load(t, hi=float(rng.uniform(2, 6)), total=float(rng.uniform(2, 8)))
        nu = rng.uniform(3, 12, t)
        port = retailer(t, nu, [load])
        fc = flat_forecast(t, rng.uniform(30, 70, t), imb_up=float(rng.uniform(20, 80)),
                           imb_down=float(rng.uniform(20, 80)))
        position = optimize_retailer(port, fc, CAP, PI_NC)
        residual = (
            position.demand
            - position.imbalance_up
            + position.imbalance_down
            - nu
            - position.schedules[0]
        )
        assert np.max(np.abs(residual)) <= 1e-7

        gen = producer(t, [unit(t, cap=float(rng.uniform(5, 15)), cost=float(rng.uniform(40, 60)))])
        fc_p = flat_forecast(t, rng.uniform(30, 70, t), imb_up=float(rng.uniform(20, 80)),
                             imb_down=float(rng.uniform(20, 80)))
        pos = optimize_producer(gen, fc_p, CAP, PI_NC)
        residual = (
            pos.sale
            + pos.imbalance_up
            - pos.imbalance_down
            - pos.unit_output["u"]
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
        port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0
    )
    assert position.amplitudes[0] == pytest.approx(2.0, abs=1e-7)


def test_fixed_amplitudes_keep_margins_feasible():
    port = retailer(4, 10.0, [band_load(4)])
    fc = flat_forecast(4, 50.0)
    sold = optimize_retailer(port, fc, CAP, PI_NC, windows=[(0, 4)], modulation_price=10.0)
    half = sold.amplitudes * 0.5
    repositioned = optimize_retailer(
        port,
        fc,
        CAP,
        PI_NC,
        windows=[(0, 4)],
        modulation_price=10.0,
        fixed_demand=sold.demand,
        fixed_amplitudes=half,
    )
    assert repositioned.amplitudes[0] == pytest.approx(half[0])


def test_overlapping_windows_rejected():
    port = retailer(4, 10.0, [band_load(4)])
    with pytest.raises(ConfigurationError):
        optimize_retailer(
            port, flat_forecast(4, 50.0), CAP, PI_NC, windows=[(0, 4), (2, 2)]
        )


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


def test_producer_positive_margin_runs_flat_out():
    port = producer(3, [unit(3, cost=45.0)])
    position = optimize_producer(port, flat_forecast(3, 50.0), CAP, PI_NC)
    assert np.allclose(position.unit_output["u"], 10.0, atol=1e-9)
    assert np.allclose(position.sale, 10.0, atol=1e-9)


def test_producer_negative_margin_idles():
    port = producer(3, [unit(3, cost=45.0)])
    position = optimize_producer(port, flat_forecast(3, 40.0), CAP, PI_NC)
    assert np.allclose(position.unit_output["u"], 0.0, atol=1e-9)


def test_producer_dispatch_matches_grid_search():
    slow = unit(2, cap=10.0, cost=45.0, ramp=3.0, name="slow", p0=5.0)
    fast = unit(2, cap=10.0, cost=70.0, ramp=100.0, name="fast", p0=0.0)
    port = producer(2, [slow, fast])
    fc = flat_forecast(2, np.array([50.0, 90.0]))  # spike in the second period
    position = optimize_producer(port, fc, CAP, PI_NC)

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
    position = optimize_producer(port, fc, CAP, PI_NC)
    assert position.imbalance_down[0] == pytest.approx(25.0)
    assert position.sale[0] == pytest.approx(35.0)


def test_producer_min_sale_threshold_holds_volume():
    port = producer(1, [unit(1, cap=10.0, cost=45.0)])
    pins = (np.array([0.95 * 8.0]), np.array([np.inf]), np.array([np.inf]))
    fc = flat_forecast(1, 40.0)  # below cost: it would rather idle
    position = optimize_producer(port, fc, CAP, PI_NC, pins=pins)
    assert position.sale[0] == pytest.approx(7.6)


def test_producer_stage_chaining_with_fixed_quantities():
    port = producer(2, [unit(2, cap=10.0, cost=45.0)], valuation=0.005)
    fc = flat_forecast(2, 50.0)
    stage1 = optimize_producer(port, fc, CAP, PI_NC)
    stage2 = optimize_producer(port, fc, CAP, PI_NC, fixed_sale=stage1.sale)
    accepted_up = {"u": stage2.reserve_up["u"] * 0.5}
    accepted_down = {"u": stage2.reserve_down["u"] * 0.5}
    stage3 = optimize_producer(
        port,
        fc,
        CAP,
        PI_NC,
        fixed_sale=stage1.sale,
        fixed_reserve_up=accepted_up,
        fixed_reserve_down=accepted_down,
    )
    assert np.allclose(stage3.sale, stage1.sale)
    assert np.allclose(stage3.reserve_up["u"], accepted_up["u"])


def test_producer_offers_and_bids():
    port = producer(2, [unit(2, cap=10.0, cost=45.0)], valuation=0.005)
    fc = flat_forecast(2, 50.0, imb_down=20.0)
    position = optimize_producer(port, fc, CAP, PI_NC)
    offers = producer_energy_offers(position, port, fc)
    unit_offers = [o for o in offers if o.price == 45.0]
    phantom = [o for o in offers if o.price == 20.0]
    assert len(unit_offers) == 2 and all(o.volume == pytest.approx(10.0) for o in unit_offers)
    assert len(phantom) == 2  # the predicted shortfall is offered at the tariff forecast
    for o in phantom:
        assert o.volume == pytest.approx(position.imbalance_down[o.period])

    bids = producer_reserve_bids(position, port)
    assert all(b.actor == "gen" for b in bids)
    for bid in bids:
        assert bid.activation_price == 45.0
    # accepted in full, every bid goes back to unit "u"
    up, down = producer_accepted_reserve(position, port, np.ones(len(bids)))
    assert list(up) == list(down) == ["u"]
    assert up["u"].sum() + down["u"].sum() == pytest.approx(sum(b.volume for b in bids))


def hand_position(reserve_up, reserve_down):
    t = len(next(iter(reserve_up.values())))
    return ProducerPosition(
        sale=np.zeros(t),
        imbalance_up=np.zeros(t),
        imbalance_down=np.zeros(t),
        unit_output={name: np.zeros(t) for name in reserve_up},
        reserve_up={name: np.asarray(v, float) for name, v in reserve_up.items()},
        reserve_down={name: np.asarray(v, float) for name, v in reserve_down.items()},
        objective=0.0,
    )


def test_producer_accepted_reserve_lands_on_its_unit_period_and_direction():
    port = producer(2, [unit(2, cost=45.0, name="a"), unit(2, cost=60.0, name="b")])
    position = hand_position(
        {"a": [3.0, 0.0], "b": [5.0, 7.0]},
        {"a": [0.0, 2.0], "b": [4.0, 0.0]},
    )
    bids = producer_reserve_bids(position, port)
    assert [(b.period, b.direction, b.volume, b.activation_price) for b in bids] == [
        (0, "up", 3.0, 45.0),
        (1, "down", 2.0, 45.0),
        (0, "up", 5.0, 60.0),
        (0, "down", 4.0, 60.0),
        (1, "up", 7.0, 60.0),
    ]
    up, down = producer_accepted_reserve(position, port, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert np.allclose(up["a"], [0.3, 0.0]) and np.allclose(down["a"], [0.0, 0.4])
    assert np.allclose(up["b"], [1.5, 3.5]) and np.allclose(down["b"], [1.6, 0.0])


def test_retailer_bids_and_accepted_amplitudes_keep_their_window():
    port = retailer(6, 5.0)
    position = RetailerPosition(
        demand=np.array([4.0, 0.0, 3.0, 0.0, 0.0, 2.0]),
        imbalance_up=np.zeros(6),
        imbalance_down=np.zeros(6),
        schedules=[],
        objective=0.0,
        windows=[(0, 2), (2, 2), (4, 2)],
        amplitudes=np.array([1.5, 0.0, 2.5]),
    )
    offers = retailer_demand_offers(position, port, CAP)
    assert [(o.actor, o.period, o.side, o.volume, o.price) for o in offers] == [
        ("ret", 0, DEMAND, 4.0, CAP),
        ("ret", 2, DEMAND, 3.0, CAP),
        ("ret", 5, DEMAND, 2.0, CAP),
    ]
    bids = retailer_band_bids(position, port, 0.5)
    assert [(b.actor, b.start, b.length, b.amplitude, b.efficiency) for b in bids] == [
        ("ret", 0, 2, 1.5, 0.5),
        ("ret", 4, 2, 2.5, 0.5),
    ]
    accepted = retailer_accepted_amplitudes(position, np.array([0.2, 0.6]))
    assert np.allclose(accepted, [0.3, 0.0, 1.5])


def test_retailer_without_windows_bids_no_band():
    port = retailer(2, 5.0)
    position = optimize_retailer(port, flat_forecast(2, 50.0), CAP, PI_NC)
    assert retailer_band_bids(position, port, 0.5) == []
    assert retailer_accepted_amplitudes(position, np.zeros(0)).size == 0


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



# ---------------------------------------------------------------------------
# model snapshot: the LPs the agents build, term for term
# ---------------------------------------------------------------------------

MODEL_SNAPSHOT = Path(__file__).with_name("agent_models.npz")


class _Captured(Exception):
    pass


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
    """The LinearProgram of every producer and retailer stage of a small
    fixed portfolio with pins and bands on, captured at the ``solve`` call."""
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
    reserve = {"a": np.full(6, 0.5), "b": np.full(6, 0.25)}
    windows = [(0, 2), (2, 4)]
    demand = np.array([7.0, 8.0, 9.0, 9.0, 8.0, 7.0])
    stages = {
        "producer_free": lambda: optimize_producer(gen, fc, CAP, PI_NC, pins=pins),
        "producer_sold": lambda: optimize_producer(
            gen, fc, CAP, PI_NC, fixed_sale=sale, pins=pins
        ),
        "producer_reserved": lambda: optimize_producer(
            gen, fc, CAP, PI_NC, fixed_sale=sale, fixed_reserve_up=reserve,
            fixed_reserve_down=reserve, pins=pins,
        ),
        "retailer_bands": lambda: optimize_retailer(
            ret, fc, CAP, PI_NC, windows=windows, pins=pins
        ),
        "retailer_sold": lambda: optimize_retailer(
            ret, fc, CAP, PI_NC, windows=windows, fixed_demand=demand,
            fixed_amplitudes=np.array([0.5, 0.25]), pins=pins,
        ),
        "retailer_pairs": lambda: optimize_retailer(
            ret, fc, CAP, PI_NC, windows=[(0, 2), (2, 2), (4, 2)], pins=pins
        ),
        "retailer_no_bands": lambda: optimize_retailer(ret, fc, CAP, PI_NC, pins=pins),
    }
    captured = {}

    def stop(lp):
        captured["lp"] = lp
        raise _Captured

    models = {}
    originals = producer_model.solve, retailer_model.solve
    producer_model.solve = retailer_model.solve = stop
    try:
        for key, stage in stages.items():
            try:
                stage()
            except _Captured:
                models[key] = captured.pop("lp")
    finally:
        producer_model.solve, retailer_model.solve = originals
    return models


def record_agent_models(path=MODEL_SNAPSHOT) -> None:
    """Write the snapshot :func:`test_agent_models_match_snapshot` reads."""
    from scipy.sparse import csr_array

    arrays = {}
    for key, lp in capture_agent_models().items():
        dense, relations, rhs = lp.dense_rows()
        matrix = csr_array(dense)
        arrays[key + ".data"] = matrix.data
        arrays[key + ".indices"] = matrix.indices.astype(np.int64)
        arrays[key + ".indptr"] = matrix.indptr.astype(np.int64)
        arrays[key + ".shape"] = np.array(matrix.shape)
        arrays[key + ".relations"] = np.array(relations, dtype="<U2")
        arrays[key + ".rhs"] = rhs
        arrays[key + ".lower"] = np.asarray(lp.lower, dtype=float)
        arrays[key + ".upper"] = np.asarray(lp.upper, dtype=float)
        arrays[key + ".objective"] = lp.objective_vector()
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
    and objective term for term, so HiGHS receives the same matrix and
    returns the same vertex.  Regenerate it (only when a model is meant to
    change) from the repository root with::

        PYTHONPATH=src:tests python -c "import test_agents; test_agents.record_agent_models()"
    """
    expected = np.load(MODEL_SNAPSHOT)
    models = capture_agent_models()
    assert sorted(models) == sorted({name.split(".")[0] for name in expected.files})
    for key, lp in models.items():
        matrix, relations, rhs = lp.sparse_rows()
        assert tuple(matrix.shape) == tuple(expected[key + ".shape"]), key
        assert _same_bits(matrix.data, expected[key + ".data"]), key
        assert _same_bits(matrix.indices.astype(np.int64), expected[key + ".indices"]), key
        assert _same_bits(matrix.indptr.astype(np.int64), expected[key + ".indptr"]), key
        assert np.array_equal(relations, expected[key + ".relations"]), key
        assert _same_bits(rhs, expected[key + ".rhs"]), key
        assert _same_bits(lp.lower, expected[key + ".lower"]), key
        assert _same_bits(lp.upper, expected[key + ".upper"]), key
        assert _same_bits(lp.objective_vector(), expected[key + ".objective"]), key
        assert str(expected[key + ".sense"]) == lp.sense, key
