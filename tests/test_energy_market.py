import numpy as np
import pytest

from flexmarket.energy_market import (
    DEMAND,
    SUPPLY,
    EnergyOffer,
    clear,
)

from oracles import sweep_auction_oracle

CAP = 3000.0


def offer(side, volume, price, actor="a", period=0):
    return EnergyOffer(actor=actor, period=period, side=side, volume=volume, price=price)


def test_single_crossing():
    offers = [offer(SUPPLY, 100.0, 50.0, "gen"), offer(DEMAND, 100.0, CAP, "ret")]
    result = clear(offers, 1)
    assert result.price[0] == 50.0
    assert result.traded_volume[0] == 100.0
    assert list(result.fractions) == [1.0, 1.0]


def test_marginal_supply_offer_half_accepted():
    offers = [
        offer(SUPPLY, 50.0, 40.0, "g1"),
        offer(SUPPLY, 50.0, 60.0, "g2"),
        offer(DEMAND, 75.0, CAP, "ret"),
    ]
    result = clear(offers, 1)
    assert result.price[0] == 60.0
    assert result.traded_volume[0] == 75.0
    assert result.fractions[0] == 1.0
    assert result.fractions[1] == pytest.approx(0.5)
    assert result.cleared_supply["g2"][0] == pytest.approx(25.0)


def test_cap_binds_and_demand_is_rationed():
    offers = [offer(SUPPLY, 100.0, 50.0, "gen"), offer(DEMAND, 120.0, CAP, "ret")]
    result = clear(offers, 1)
    assert result.price[0] == CAP
    assert result.traded_volume[0] == 100.0
    assert result.fractions[1] == pytest.approx(100.0 / 120.0)


def test_empty_period_is_flagged():
    offers = [offer(SUPPLY, 10.0, 20.0, period=1)]
    result = clear(offers, 2)
    assert result.no_market[0]
    assert not result.no_market[1]
    assert result.price[0] == 0.0
    assert result.traded_volume[0] == 0.0


def test_pro_rata_among_equal_marginal_offers():
    offers = [
        offer(SUPPLY, 30.0, 50.0, "g1"),
        offer(SUPPLY, 60.0, 50.0, "g2"),
        offer(DEMAND, 45.0, CAP, "ret"),
    ]
    result = clear(offers, 1)
    assert result.price[0] == 50.0
    assert result.fractions[0] == pytest.approx(0.5)
    assert result.fractions[1] == pytest.approx(0.5)


def test_balance_and_monotonicity_on_random_books():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n_sup = int(rng.integers(0, 6))
        n_dem = int(rng.integers(0, 6))
        offers = []
        for i in range(n_sup):
            offers.append(
                offer(SUPPLY, float(rng.uniform(1, 80)), float(rng.choice([20, 40, 40, 55, 70, CAP])), f"s{i}")
            )
        for i in range(n_dem):
            offers.append(
                offer(DEMAND, float(rng.uniform(1, 80)), float(rng.choice([0, 25, 45, 45, 60, CAP])), f"d{i}")
            )
        if not offers:
            continue
        result = clear(offers, 1)

        sold = sum(o.volume * f for o, f in zip(offers, result.fractions) if o.side == SUPPLY)
        bought = sum(o.volume * f for o, f in zip(offers, result.fractions) if o.side == DEMAND)
        assert abs(sold - bought) <= 1e-9

        mcp = result.price[0]
        for o, f in zip(offers, result.fractions):
            if o.side == SUPPLY:
                if o.price < mcp:
                    assert f == 1.0
                elif o.price > mcp:
                    assert f == 0.0
            else:
                if o.price > mcp:
                    assert f == 1.0
                elif o.price < mcp:
                    assert f == 0.0


def test_matches_sweep_oracle_on_random_books():
    rng = np.random.default_rng(20260808)
    checked = 0
    for _ in range(150):
        n_sup = int(rng.integers(1, 6))
        n_dem = int(rng.integers(1, 6))
        sup = [(float(rng.choice([10, 30, 30, 50, 75])), float(rng.uniform(1, 60))) for _ in range(n_sup)]
        dem = [(float(rng.choice([5, 20, 40, 40, 80, CAP])), float(rng.uniform(1, 60))) for _ in range(n_dem)]
        offers = [offer(SUPPLY, v, p, f"s{i}") for i, (p, v) in enumerate(sup)]
        offers += [offer(DEMAND, v, p, f"d{i}") for i, (p, v) in enumerate(dem)]
        result = clear(offers, 1)
        mcp, volume = sweep_auction_oracle(sup, dem, CAP)
        assert result.price[0] == pytest.approx(mcp, abs=1e-12)
        assert result.traded_volume[0] == pytest.approx(volume, abs=1e-9)
        checked += 1
    assert checked == 150


def test_offer_validation():
    with pytest.raises(ValueError):
        clear([offer(SUPPLY, -1.0, 10.0)], 1)
    with pytest.raises(ValueError):
        clear([offer(SUPPLY, 1.0, CAP + 1)], 1)
    with pytest.raises(ValueError):
        clear([offer("buy", 1.0, 10.0)], 1)
    with pytest.raises(ValueError):
        clear([offer(SUPPLY, 1.0, 10.0, period=3)], 2)
