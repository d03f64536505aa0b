import itertools

import numpy as np
import pytest

from flexmarket.reserve_market import (
    ClassicalReserveBid,
    ModulationBid,
    ReservePrices,
    clear_reserve,
    over_contract_penalty,
)

PRICES = ReservePrices(up_capacity=45.0, down_capacity=45.0, modulation_capacity=10.0, non_contracted=500.0)


def up_bid(volume, price, period=0, actor="gen"):
    return ClassicalReserveBid(actor=actor, period=period, direction="up", volume=volume, activation_price=price)


def down_bid(volume, price, period=0, actor="gen"):
    return ClassicalReserveBid(actor=actor, period=period, direction="down", volume=volume, activation_price=price)


def test_exact_cover_single_bid():
    result = clear_reserve([up_bid(10.0, 5.0)], [], np.array([10.0]), np.array([0.0]), PRICES)
    assert result.classical_fraction[0] == pytest.approx(1.0)
    assert result.shortfall_up[0] == pytest.approx(0.0)
    assert result.contracted_cost == pytest.approx((45.0 + 5.0) * 10.0)


def test_shortfall_when_no_bids():
    result = clear_reserve([], [], np.array([10.0]), np.array([0.0]), PRICES)
    assert result.shortfall_up[0] == pytest.approx(10.0)
    assert result.objective == pytest.approx(500.0 * 10.0)
    assert result.contracted_cost == 0.0


def test_penalty_formula():
    assert over_contract_penalty([down_bid(1.0, 40.0), down_bid(1.0, 55.0)], 500.0) == pytest.approx(60.5)
    assert over_contract_penalty([down_bid(1.0, 10.0)], 500.0) == pytest.approx(11.0)
    assert over_contract_penalty([], 500.0) == pytest.approx(550.0)


def test_empty_downward_penalty_never_rewards_over_contracting():
    # a lone downward bid in period 0, nothing required in period 1; the
    # clearing must not bank it for the activation revenue
    bids = [down_bid(8.0, 60.0)]
    result = clear_reserve(bids, [], np.array([0.0]), np.array([0.0]), PRICES)
    assert result.classical_fraction[0] == pytest.approx(0.0, abs=1e-9)


def test_grid_search_oracle_classical_vs_modulation():
    classical = [up_bid(10.0, 20.0)]
    modulation = [ModulationBid(actor="ret", start=0, length=2, amplitude=20.0, activation_price=0.0, efficiency=0.5)]
    r_up = np.array([10.0, 0.0])
    r_dn = np.array([0.0, 0.0])
    result = clear_reserve(classical, modulation, r_up, r_dn, PRICES)

    fallback = 20.0  # largest activation price that day
    penalty = 1.1 * fallback
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2)
    best = np.inf
    for xc, xm in itertools.product(grid, repeat=2):
        cost = (45.0 + 20.0) * 10.0 * xc + (10.0 + 0.0) * 20.0 * xm
        for t in range(2):
            up_cover = (10.0 * xc if t == 0 else 0.0) + 20.0 * 0.5 * xm * (t in (0, 1))
            dn_cover = 20.0 * 0.5 * xm * (t in (0, 1))
            cost += 500.0 * max(0.0, r_up[t] - up_cover) + penalty * max(0.0, up_cover - r_up[t])
            cost += 500.0 * max(0.0, r_dn[t] - dn_cover) + penalty * max(0.0, dn_cover - r_dn[t])
        best = min(best, cost)
    # the LP optimizes over a continuum, so it can only do better than the
    # 0.01 grid, and by no more than one grid step of marginal cost
    assert result.objective <= best + 1e-6
    assert best - result.objective <= 0.01 * (65.0 * 10.0 + 10.0 * 20.0 + 4 * penalty * 10.0)


def test_modulation_counts_toward_both_directions():
    modulation = [ModulationBid(actor="ret", start=0, length=4, amplitude=30.0, activation_price=0.0, efficiency=0.5)]
    r = np.full(4, 15.0)
    result = clear_reserve([], modulation, r, r, PRICES)
    assert result.modulation_fraction[0] == pytest.approx(1.0)
    assert np.allclose(result.shortfall_up, 0.0, atol=1e-9)
    assert np.allclose(result.shortfall_down, 0.0, atol=1e-9)


def test_requirement_balance_residuals():
    rng = np.random.default_rng(5)
    for _ in range(25):
        period_count = 4
        classical = []
        for k in range(int(rng.integers(0, 8))):
            direction = "up" if rng.random() < 0.5 else "down"
            bid = ClassicalReserveBid(
                actor=f"g{k}",
                period=int(rng.integers(0, period_count)),
                direction=direction,
                volume=float(rng.uniform(1, 20)),
                activation_price=float(rng.uniform(0, 80)),
            )
            classical.append(bid)
        modulation = []
        if rng.random() < 0.7:
            modulation.append(
                ModulationBid(
                    actor="ret",
                    start=int(rng.integers(0, period_count - 1)) // 2 * 2,
                    length=2,
                    amplitude=float(rng.uniform(0, 25)),
                    efficiency=0.5,
                )
            )
        r_up = rng.uniform(0, 15, period_count)
        r_dn = rng.uniform(0, 15, period_count)
        result = clear_reserve(classical, modulation, r_up, r_dn, PRICES)

        for t in range(period_count):
            up_cover = sum(
                b.volume * x
                for b, x in zip(classical, result.classical_fraction)
                if b.direction == "up" and b.period == t
            ) + sum(
                b.amplitude * b.efficiency * x
                for b, x in zip(modulation, result.modulation_fraction)
                if t in b.periods
            )
            resid = up_cover + result.shortfall_up[t] - result.surplus_up[t] - r_up[t]
            assert abs(resid) <= 1e-7


def test_classical_reduction_cost_identity():
    # with everything at unit efficiency and no modulation, the objective is
    # the classical reservation+activation sum plus the explicit slack terms
    classical = [up_bid(6.0, 30.0), up_bid(10.0, 55.0), down_bid(12.0, 50.0)]
    r_up = np.array([12.0])
    r_dn = np.array([5.0])
    result = clear_reserve(classical, [], r_up, r_dn, PRICES)
    explicit = result.contracted_cost
    explicit += float(result.over_commit_penalty @ (result.surplus_up + result.surplus_down))
    explicit += 500.0 * float(np.sum(result.shortfall_up + result.shortfall_down))
    assert result.objective == pytest.approx(explicit, rel=1e-9)
    assert np.allclose(result.shortfall_up, 0.0, atol=1e-9)
    assert np.allclose(result.surplus_up, 0.0, atol=1e-9)


def test_contracted_cost_matches_bid_loop():
    # the cost is written to metrics.csv with repr, so it must add up bid by
    # bid in order, exactly as a loop does
    rng = np.random.default_rng(8)
    for _ in range(20):
        classical = [
            ClassicalReserveBid("g", t, d, float(rng.uniform(1, 30)), float(rng.uniform(5, 60)))
            for t in range(4)
            for d in ("up", "down")
        ]
        modulation = [ModulationBid("r", 0, 4, float(rng.uniform(1, 30)), 0.0, 0.5)]
        required_up, required_down = rng.uniform(0, 40, (2, 4))
        result = clear_reserve(classical, modulation, required_up, required_down, PRICES)
        expected = 0.0
        for bid, x in zip(classical, result.classical_fraction):
            sign = 1.0 if bid.direction == "up" else -1.0
            expected += (45.0 + sign * bid.activation_price) * bid.volume * float(x)
        for bid, x in zip(modulation, result.modulation_fraction):
            expected += (10.0 + bid.activation_price) * bid.amplitude * float(x)
        assert result.contracted_cost == expected


def test_raising_modulation_capacity_price_weakly_reduces_modulation():
    classical = [up_bid(20.0, 60.0, t) for t in range(4)] + [down_bid(20.0, 50.0, t) for t in range(4)]
    modulation = [ModulationBid(actor="ret", start=0, length=4, amplitude=30.0, efficiency=0.5)]
    r = np.full(4, 10.0)
    contracted = []
    for pi_f in [0.0, 10.0, 50.0, 150.0, 199.0, 201.0, 400.0]:
        prices = ReservePrices(45.0, 45.0, pi_f, 500.0)
        result = clear_reserve(classical, modulation, r, r, prices)
        contracted.append(float(result.modulation_fraction[0]) * 30.0)
    assert all(a >= b - 1e-9 for a, b in zip(contracted, contracted[1:]))
    assert contracted[0] > contracted[-1]


def test_overlapping_bids_of_one_actor_rejected():
    bids = [
        ModulationBid(actor="ret", start=0, length=4, amplitude=5.0),
        ModulationBid(actor="ret", start=2, length=2, amplitude=5.0),
    ]
    with pytest.raises(ValueError):
        clear_reserve([], bids, np.zeros(4), np.zeros(4), PRICES)


def test_classical_bid_validation():
    with pytest.raises(ValueError):
        up_bid(-1.0, 10.0).validate(1)
    with pytest.raises(ValueError):
        ModulationBid("a", 0, 3, 1.0).validate(4)

