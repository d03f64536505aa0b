import numpy as np
import pytest

from flexmarket.energy_market import (
    DEMAND,
    SUPPLY,
    OfferBook,
    clear,
)

from oracles import reference_clear, sweep_auction_oracle

CAP = 3000.0


def offer(side, volume, price, actor="a", period=0):
    """One offer as a row of an ``OfferBook``."""
    return (actor, period, side, volume, price)


def book(rows):
    return OfferBook.from_rows(rows)


def test_single_crossing():
    offers = [offer(SUPPLY, 100.0, 50.0, "gen"), offer(DEMAND, 100.0, CAP, "ret")]
    result = clear(book(offers), 1)
    assert result.price[0] == 50.0
    assert result.traded_volume[0] == 100.0
    assert list(result.fractions) == [1.0, 1.0]


def test_marginal_supply_offer_half_accepted():
    offers = [
        offer(SUPPLY, 50.0, 40.0, "g1"),
        offer(SUPPLY, 50.0, 60.0, "g2"),
        offer(DEMAND, 75.0, CAP, "ret"),
    ]
    result = clear(book(offers), 1)
    assert result.price[0] == 60.0
    assert result.traded_volume[0] == 75.0
    assert result.fractions[0] == 1.0
    assert result.fractions[1] == pytest.approx(0.5)
    assert result.cleared_supply["g2"][0] == pytest.approx(25.0)


def test_cap_binds_and_demand_is_rationed():
    offers = [offer(SUPPLY, 100.0, 50.0, "gen"), offer(DEMAND, 120.0, CAP, "ret")]
    result = clear(book(offers), 1)
    assert result.price[0] == CAP
    assert result.traded_volume[0] == 100.0
    assert result.fractions[1] == pytest.approx(100.0 / 120.0)


def test_empty_period_is_flagged():
    offers = [offer(SUPPLY, 10.0, 20.0, period=1)]
    result = clear(book(offers), 2)
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
    result = clear(book(offers), 1)
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
        result = clear(book(offers), 1)

        sold = sum(o[3] * f for o, f in zip(offers, result.fractions) if o[2] == SUPPLY)
        bought = sum(o[3] * f for o, f in zip(offers, result.fractions) if o[2] == DEMAND)
        assert abs(sold - bought) <= 1e-9

        mcp = result.price[0]
        for (_, _, side, _, price), f in zip(offers, result.fractions):
            if side == SUPPLY:
                if price < mcp:
                    assert f == 1.0
                elif price > mcp:
                    assert f == 0.0
            else:
                if price > mcp:
                    assert f == 1.0
                elif price < mcp:
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
        result = clear(book(offers), 1)
        mcp, volume = sweep_auction_oracle(sup, dem, CAP)
        assert result.price[0] == pytest.approx(mcp, abs=1e-12)
        assert result.traded_volume[0] == pytest.approx(volume, abs=1e-9)
        checked += 1
    assert checked == 150


def test_offer_validation():
    with pytest.raises(ValueError):
        clear(book([offer(SUPPLY, -1.0, 10.0)]), 1)
    with pytest.raises(ValueError):
        clear(book([offer(SUPPLY, 1.0, CAP + 1)]), 1)
    with pytest.raises(ValueError):
        clear(book([offer("buy", 1.0, 10.0)]), 1)
    with pytest.raises(ValueError):
        clear(book([offer(SUPPLY, 1.0, 10.0, period=3)]), 2)


def test_infinite_volume_is_rejected_naming_the_offer():
    # it used to pass validation and clear to a NaN supply series
    offers = book([offer(SUPPLY, np.inf, 10.0, "gen"), offer(DEMAND, 2.0, 20.0, "ret")])
    with pytest.raises(ValueError, match=r"offer 0 of actor 'gen': volume inf"):
        clear(offers, 3)


def test_fractional_period_is_rejected_naming_the_offer():
    # it used to fail with "list indices must be integers"
    offers = book([offer(DEMAND, 2.0, 20.0, "ret"), offer(SUPPLY, 1.0, 10.0, "gen", period=1.5)])
    with pytest.raises(ValueError, match=r"offer 1 of actor 'gen': period 1.5"):
        clear(offers, 3)
    with pytest.raises(ValueError, match=r"offer 0 of actor 'gen': period '1'"):
        clear(book([offer(SUPPLY, 1.0, 10.0, "gen", period="1")]), 3)


@pytest.mark.parametrize("column", ["volume", "price", "period"])
def test_nan_is_rejected_naming_the_offer(column):
    row = dict(actor="gen", period=0, side=SUPPLY, volume=1.0, price=10.0)
    row[column] = np.nan
    with pytest.raises(ValueError, match=rf"offer 0 of actor 'gen': {column} nan"):
        clear(book([tuple(row.values())]), 2)


def test_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        OfferBook(["a"], [0, 1], [SUPPLY], [1.0], [10.0])


def random_book(rng, periods):
    """Offers drawn from few prices so that many tie, with volumes of very
    different sizes, and up to 40 offers on one side of a period; some
    periods stay empty and some are cap-bound."""
    n = int(rng.integers(0, 14 * periods))
    prices = np.append(np.round(rng.uniform(0, 100, 5), int(rng.integers(0, 3))), [0.0, CAP])
    volume = rng.uniform(0.1, 50, n) * rng.choice([1e-3, 1.0, 1e3], n)
    if rng.random() < 0.4:
        volume = np.maximum(np.round(volume), 1.0)
    period = rng.integers(0, periods, n)
    if periods > 1:
        period = np.where(period == 0, 1, period)  # period 0 has no market
    return OfferBook(
        [f"a{k}" for k in rng.integers(0, 6, n)],
        period,
        np.where(rng.random(n) < 0.6, SUPPLY, DEMAND),
        volume,
        rng.choice(prices, n, p=[0.14] * 5 + [0.1, 0.2]),
    )


def test_matches_the_period_by_period_auction_bit_for_bit():
    rng = np.random.default_rng(18)
    crowded = cap_bound = marginal_ties = empty = 0
    for _ in range(300):
        periods = int(rng.integers(1, 5))
        offers = random_book(rng, periods)
        result = clear(offers, periods, CAP)
        price, traded, fractions, supply, demand = reference_clear(offers, periods, CAP)
        assert result.price.tobytes() == price.tobytes()
        assert result.traded_volume.tobytes() == traded.tobytes()
        assert result.fractions.tobytes() == fractions.tobytes()
        for cleared, reference in ((result.cleared_supply, supply), (result.cleared_demand, demand)):
            assert cleared.keys() == reference.keys()
            assert all(cleared[a].tobytes() == reference[a].tobytes() for a in reference)

        for t in range(periods):
            here = offers.period == t
            sides = [here & (offers.side == side) for side in (SUPPLY, DEMAND)]
            crowded += max(np.count_nonzero(side) for side in sides) >= 8
            cap_bound += price[t] == CAP and offers.volume[sides[1]].sum() > traded[t]
            marginal_ties += np.count_nonzero(here & (offers.price == price[t])) >= 2
            empty += not here.any()
    assert min(crowded, cap_bound, marginal_ties, empty) >= 20


def test_a_deficit_inside_the_search_margin_is_still_a_deficit():
    # 1e-11 MW of demand above the supply is tiny beside the volumes but
    # still more than COVER_TOL, so the exact check moves on to the cap
    offers = book([offer(SUPPLY, 1.0, 10.0, "gen"), offer(DEMAND, 1.0 + 1e-11, CAP, "ret")])
    result = clear(offers, 1)
    assert result.price[0] == CAP
    assert result.traded_volume[0] == 1.0
    price, traded, fractions, *_ = reference_clear(offers, 1, CAP)
    assert (result.price[0], result.traded_volume[0]) == (price[0], traded[0])
    assert result.fractions.tobytes() == fractions.tobytes()
