import dataclasses
import itertools

import numpy as np
import pytest

from flexmarket import reserve_market
from flexmarket.reserve_market import (
    ClassicalBook,
    ModulationBook,
    ReservePrices,
    clear_reserve,
)

from oracles import reference_pro_rata

PRICES = ReservePrices(up_capacity=45.0, down_capacity=45.0, modulation_capacity=10.0, non_contracted=500.0)


def classical_bid(actor, period, direction, volume, activation_price):
    """One classical bid as a row of a ``ClassicalBook``."""
    return (actor, period, direction, volume, activation_price)


def band_bid(actor, start, length, amplitude, activation_price=0.0, efficiency=1.0):
    """One band bid as a row of a ``ModulationBook``."""
    return (actor, start, length, amplitude, activation_price, efficiency)


def procure(classical, modulation, *args):
    """``clear_reserve`` on books of the given rows."""
    return clear_reserve(ClassicalBook.from_rows(classical), ModulationBook.from_rows(modulation), *args)


def up_bid(volume, price, period=0, actor="gen"):
    return classical_bid(actor, period, "up", volume, price)


def down_bid(volume, price, period=0, actor="gen"):
    return classical_bid(actor, period, "down", volume, price)


def test_exact_cover_single_bid():
    result = procure([up_bid(10.0, 5.0)], [], np.array([10.0]), np.array([0.0]), PRICES)
    assert result.classical_fraction[0] == pytest.approx(1.0)
    assert result.shortfall_up[0] == pytest.approx(0.0)
    assert result.contracted_cost == pytest.approx((45.0 + 5.0) * 10.0)


def test_shortfall_when_no_bids():
    result = procure([], [], np.array([10.0]), np.array([0.0]), PRICES)
    assert result.shortfall_up[0] == pytest.approx(10.0)
    assert result.objective == pytest.approx(500.0 * 10.0)
    assert result.contracted_cost == 0.0


def test_penalty_formula():
    def penalty(bids):
        return procure(bids, [], np.zeros(1), np.zeros(1), PRICES).over_commit_penalty

    assert penalty([down_bid(1.0, 40.0), down_bid(1.0, 55.0)]) == pytest.approx([60.5])
    assert penalty([down_bid(1.0, 10.0)]) == pytest.approx([11.0])
    assert penalty([]) == pytest.approx([550.0])


def test_empty_downward_penalty_never_rewards_over_contracting():
    # a lone downward bid in period 0, nothing required in period 1; the
    # clearing must not bank it for the activation revenue
    bids = [down_bid(8.0, 60.0)]
    result = procure(bids, [], np.array([0.0]), np.array([0.0]), PRICES)
    assert result.classical_fraction[0] == pytest.approx(0.0, abs=1e-9)


def test_grid_search_oracle_classical_vs_modulation():
    classical = [up_bid(10.0, 20.0)]
    modulation = [band_bid(actor="ret", start=0, length=2, amplitude=20.0, activation_price=0.0, efficiency=0.5)]
    r_up = np.array([10.0, 0.0])
    r_dn = np.array([0.0, 0.0])
    result = procure(classical, modulation, r_up, r_dn, PRICES)

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
    modulation = [band_bid(actor="ret", start=0, length=4, amplitude=30.0, activation_price=0.0, efficiency=0.5)]
    r = np.full(4, 15.0)
    result = procure([], modulation, r, r, PRICES)
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
            bid = classical_bid(
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
                band_bid(
                    actor="ret",
                    start=int(rng.integers(0, period_count - 1)) // 2 * 2,
                    length=2,
                    amplitude=float(rng.uniform(0, 25)),
                    efficiency=0.5,
                )
            )
        r_up = rng.uniform(0, 15, period_count)
        r_dn = rng.uniform(0, 15, period_count)
        result = procure(classical, modulation, r_up, r_dn, PRICES)

        for t in range(period_count):
            up_cover = sum(
                volume * x
                for (_, period, direction, volume, _), x in zip(classical, result.classical_fraction)
                if direction == "up" and period == t
            ) + sum(
                amplitude * efficiency * x
                for (_, start, length, amplitude, _, efficiency), x in zip(
                    modulation, result.modulation_fraction
                )
                if start <= t < start + length
            )
            resid = up_cover + result.shortfall_up[t] - result.surplus_up[t] - r_up[t]
            assert abs(resid) <= 1e-7


def test_classical_reduction_cost_identity():
    # with everything at unit efficiency and no modulation, the objective is
    # the classical reservation+activation sum plus the explicit slack terms
    classical = [up_bid(6.0, 30.0), up_bid(10.0, 55.0), down_bid(12.0, 50.0)]
    r_up = np.array([12.0])
    r_dn = np.array([5.0])
    result = procure(classical, [], r_up, r_dn, PRICES)
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
            classical_bid("g", t, d, float(rng.uniform(1, 30)), float(rng.uniform(5, 60)))
            for t in range(4)
            for d in ("up", "down")
        ]
        modulation = [band_bid("r", 0, 4, float(rng.uniform(1, 30)), 0.0, 0.5)]
        required_up, required_down = rng.uniform(0, 40, (2, 4))
        result = procure(classical, modulation, required_up, required_down, PRICES)
        expected = 0.0
        for (_, _, direction, volume, price), x in zip(classical, result.classical_fraction):
            sign = 1.0 if direction == "up" else -1.0
            expected += (45.0 + sign * price) * volume * float(x)
        for (_, _, _, amplitude, price, _), x in zip(modulation, result.modulation_fraction):
            expected += (10.0 + price) * amplitude * float(x)
        assert result.contracted_cost == expected


def test_raising_modulation_capacity_price_weakly_reduces_modulation():
    classical = [up_bid(20.0, 60.0, t) for t in range(4)] + [down_bid(20.0, 50.0, t) for t in range(4)]
    modulation = [band_bid(actor="ret", start=0, length=4, amplitude=30.0, efficiency=0.5)]
    r = np.full(4, 10.0)
    contracted = []
    for pi_f in [0.0, 10.0, 50.0, 150.0, 199.0, 201.0, 400.0]:
        prices = ReservePrices(45.0, 45.0, pi_f, 500.0)
        result = procure(classical, modulation, r, r, prices)
        contracted.append(float(result.modulation_fraction[0]) * 30.0)
    assert all(a >= b - 1e-9 for a, b in zip(contracted, contracted[1:]))
    assert contracted[0] > contracted[-1]


def test_overlapping_bids_of_one_actor_rejected():
    bids = [
        band_bid(actor="ret", start=0, length=4, amplitude=5.0),
        band_bid(actor="ret", start=2, length=2, amplitude=5.0),
    ]
    with pytest.raises(ValueError):
        procure([], bids, np.zeros(4), np.zeros(4), PRICES)


def test_classical_bid_validation():
    with pytest.raises(ValueError):
        ClassicalBook.from_rows([up_bid(-1.0, 10.0)]).validate(1)
    with pytest.raises(ValueError):
        ModulationBook.from_rows([band_bid("a", 0, 3, 1.0)]).validate(4)


@pytest.mark.parametrize(
    "classical, modulation, message",
    [
        ([up_bid(1.0, np.nan)], [], r"bid 0 of actor 'gen': activation_price nan"),
        ([up_bid(1.0, 5.0), up_bid(np.inf, 5.0, actor="g2")], [], r"bid 1 of actor 'g2': volume inf"),
        ([up_bid(1.0, 5.0, period=0.5)], [], r"bid 0 of actor 'gen': period 0.5"),
        ([], [band_bid("ret", 0, 2, np.nan)], r"bid 0 of actor 'ret': amplitude nan"),
        ([], [band_bid("ret", 0, 2, 1.0, np.nan)], r"bid 0 of actor 'ret': activation_price nan"),
        ([], [band_bid("ret", 0, 2, 1.0, efficiency=np.nan)], r"bid 0 of actor 'ret': efficiency nan"),
        ([], [band_bid("ret", 0, 2, 1.0), band_bid("ret", 1, 2, 1.0)], r"bid 1 of actor 'ret': start 1 overlaps"),
    ],
    ids=["nan-price", "inf-volume", "half-period", "nan-amplitude", "nan-band-price", "nan-efficiency", "overlap"],
)
def test_non_finite_bids_are_rejected_naming_the_bid(classical, modulation, message):
    # NaN and inf used to pass validation and fail inside the LP as a
    # "non-finite objective coefficient" that named no bid
    with pytest.raises(ValueError, match=message):
        procure(classical, modulation, np.ones(4), np.ones(4), PRICES)


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_requirements_must_be_nonnegative_and_finite(value):
    # NaN used to pass and fail inside the LP as a "non-finite right-hand side"
    required = np.array([1.0, value])
    with pytest.raises(ValueError, match=r"up requirement .* in period 1"):
        procure([], [], required, np.ones(2), PRICES)
    with pytest.raises(ValueError, match=r"down requirement .* in period 1"):
        procure([], [], np.ones(2), required, PRICES)


@pytest.mark.parametrize("field", ["up_capacity", "down_capacity", "modulation_capacity", "non_contracted"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_reserve_prices_must_be_nonnegative_and_finite(field, value):
    with pytest.raises(ValueError, match=f"price {field}"):
        dataclasses.replace(PRICES, **{field: value})



# ---------------------------------------------------------------------------
# tied bids share pro rata
# ---------------------------------------------------------------------------


def band(amplitude, start=0, length=2, actor="ret", efficiency=0.5, price=0.0):
    return band_bid(actor, start, length, amplitude, price, efficiency)


def clear_raw(monkeypatch, *args):
    """``procure(*args)`` with the fractions the LP picked, ties unshared."""
    with monkeypatch.context() as patch:
        patch.setattr(reserve_market, "_pro_rata", lambda fraction, keys, volume: fraction)
        return procure(*args)


def covered(result):
    """(periods, 2) MW of reserve each direction gets from the accepted bids."""
    cover = np.zeros((len(result.surplus_up), 2))
    classical, bands = result.classical, result.modulation
    for k, x in enumerate(result.classical_fraction):
        cover[classical.period[k], classical.direction[k] == "down"] += classical.volume[k] * x
    for k, x in enumerate(result.modulation_fraction):
        start, length = bands.start[k], bands.length[k]
        cover[start : start + length] += bands.amplitude[k] * bands.efficiency[k] * x
    return cover


def test_tied_classical_bids_share_one_fraction(monkeypatch):
    bids = [
        up_bid(6.0, 20.0, actor="a"), up_bid(12.0, 20.0, actor="b"), up_bid(9.0, 30.0, actor="c")
    ]
    args = (bids, [], np.array([9.0]), np.array([0.0]), PRICES)
    raw = clear_raw(monkeypatch, *args).classical_fraction
    assert raw[0] != raw[1]  # the LP picked a vertex of the tie
    fraction = procure(*args).classical_fraction
    assert fraction[0] == fraction[1] == pytest.approx(0.5)
    assert fraction[2] == raw[2] == 0.0


def test_tied_band_bids_share_one_fraction(monkeypatch):
    bids = [band(10.0, actor="a"), band(30.0, actor="b"), band(20.0, actor="c")]
    r = np.full(2, 12.0)
    raw = clear_raw(monkeypatch, [], bids, r, r, PRICES).modulation_fraction
    assert len(set(raw)) > 1
    fraction = procure([], bids, r, r, PRICES).modulation_fraction
    assert fraction[0] == fraction[1] == fraction[2] == pytest.approx(24.0 / 60.0)


@pytest.mark.parametrize(
    "second",
    [
        dict(efficiency=0.6),
        dict(price=1.0),
        dict(start=2),
        dict(length=4),
    ],
    ids=lambda change: next(iter(change)),
)
def test_band_bids_that_differ_in_one_tie_field_are_not_grouped(monkeypatch, second):
    bids = [band(10.0, actor="a"), band(20.0, actor="b", **second)]
    r = np.full(4, 3.0)
    raw = clear_raw(monkeypatch, [], bids, r, r, PRICES).modulation_fraction
    assert raw[0] != raw[1]
    assert np.array_equal(procure([], bids, r, r, PRICES).modulation_fraction, raw)


@pytest.mark.parametrize(
    "second", [dict(activation_price=21.0), dict(period=1), dict(direction="down")],
    ids=lambda change: next(iter(change)),
)
def test_classical_bids_that_differ_in_one_tie_field_are_not_grouped(monkeypatch, second):
    bids = [
        up_bid(6.0, 20.0, actor="a"),
        classical_bid(**{**dict(actor="b", period=0, direction="up", volume=12.0, activation_price=20.0), **second}),
    ]
    args = (bids, [], np.array([3.0, 3.0]), np.array([3.0, 3.0]), PRICES)
    raw = clear_raw(monkeypatch, *args).classical_fraction
    assert raw[0] != raw[1]
    assert np.array_equal(procure(*args).classical_fraction, raw)


def tied_book(rng, nudge=0.0):
    """Classical and band bids drawn from few periods, windows and prices, so
    that many tie; ``nudge`` moves the k-th bid's activation price by
    ``k * nudge`` to break every tie."""
    classical = [
        classical_bid(
            f"g{k}", int(rng.integers(0, 4)), ("up", "down")[int(rng.integers(0, 2))],
            float(rng.uniform(1, 10)), float(rng.choice([20.0, 40.0])) + k * nudge,
        )
        for k in range(24)
    ]
    modulation = [
        band_bid(
            f"r{k}", int(rng.integers(0, 2)) * 2, 2, float(rng.uniform(0, 15)),
            float(rng.choice([0.0, 5.0])) + k * nudge, 0.5,
        )
        for k in range(12)
    ]
    return classical, modulation


@pytest.mark.parametrize("seed", range(6))
def test_bids_without_a_tie_keep_the_lp_fraction_bit_for_bit(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    classical, modulation = tied_book(rng, nudge=1e-3)
    required = rng.uniform(5, 40, (2, 4))
    args = (classical, modulation, *required, PRICES)
    raw = clear_raw(monkeypatch, *args)
    shared = procure(*args)
    assert np.array_equal(shared.classical_fraction, raw.classical_fraction)
    assert np.array_equal(shared.modulation_fraction, raw.modulation_fraction)
    assert shared.contracted_cost == raw.contracted_cost


def test_a_lone_bid_keeps_a_fraction_that_reweighting_would_round():
    # 3.0 * 0.1 / 3.0 is 0.10000000000000002
    keys = (np.array([0, 0, 1, 1]), np.ones(4, dtype=bool), np.array([20.0, 30.0, 20.0, 20.0]))
    fraction = np.array([0.1, 0.7, 0.2, 0.6])
    shared = reserve_market._pro_rata(fraction, keys, np.array([3.0, 3.0, 1.0, 3.0]))
    assert shared[0] == 0.1 and shared[1] == 0.7
    assert shared[2] == shared[3] == pytest.approx((0.2 + 1.8) / 4)


@pytest.mark.parametrize("seed", range(6))
def test_sharing_keeps_the_lp_cover_cost_and_objective(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    classical, modulation = tied_book(rng)
    required = rng.uniform(5, 40, (2, 4))
    args = (classical, modulation, *required, PRICES)
    raw = clear_raw(monkeypatch, *args)
    shared = procure(*args)
    groups = {}
    for (_, period, direction, _, price), x in zip(classical, shared.classical_fraction):
        groups.setdefault((period, direction, price), set()).add(x)
    for (_, start, length, _, price, efficiency), x in zip(modulation, shared.modulation_fraction):
        groups.setdefault((start, length, efficiency, price), set()).add(x)
    assert all(len(fractions) == 1 for fractions in groups.values())
    assert len(groups) < len(classical) + len(modulation)
    assert np.allclose(covered(shared), covered(raw), rtol=0, atol=1e-9)
    assert shared.contracted_cost == pytest.approx(raw.contracted_cost, rel=0, abs=1e-9)
    assert shared.objective == raw.objective
    explicit = shared.contracted_cost
    explicit += float(shared.over_commit_penalty @ (shared.surplus_up + shared.surplus_down))
    explicit += 500.0 * float(np.sum(shared.shortfall_up + shared.shortfall_down))
    assert shared.objective == pytest.approx(explicit, rel=0, abs=1e-9)


def test_a_band_group_of_zero_amplitude_shares_one_fraction():
    bids = [band(0.0, actor="a"), band(0.0, actor="b"), band(0.0, actor="c")]
    r = np.full(2, 5.0)
    result = procure([], bids, r, r, PRICES)
    fraction = result.modulation_fraction
    assert np.isfinite(fraction).all() and 0.0 <= fraction[0] <= 1.0
    assert fraction[0] == fraction[1] == fraction[2]
    assert not result.modulation_contracted.any()
    assert result.shortfall_up == pytest.approx(r)


def test_grouping_matches_the_row_unique_reference_bit_for_bit():
    # ties on every key field, lone bids, zero volumes and -0.0 next to 0.0
    rng = np.random.default_rng(18)
    grouped = 0
    for _ in range(300):
        n = int(rng.integers(0, 60))
        columns = (
            rng.integers(0, 3, n),
            rng.random(n) < 0.5,
            rng.choice([0.0, -0.0, 5.0, 20.0, 20.000000000000004], n),
        )
        volume = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0, 30, n))
        fraction = np.where(rng.random(n) < 0.3, rng.choice([0.0, 1.0], n), rng.random(n))
        shared = reserve_market._pro_rata(fraction, columns, volume)
        reference = reference_pro_rata(fraction, np.column_stack(columns).astype(float), volume)
        assert shared.tobytes() == reference.tobytes()
        grouped += np.count_nonzero(shared != fraction)
    assert grouped > 1000


def test_clearing_matches_the_row_unique_reference_bit_for_bit(monkeypatch):
    def reference(fraction, keys, volume):
        return reference_pro_rata(fraction, np.column_stack(keys).astype(float), volume)

    rng = np.random.default_rng(180)
    for _ in range(200):
        classical, modulation = tied_book(rng)
        required = rng.uniform(5, 40, (2, 4))
        result = procure(classical, modulation, *required, PRICES)
        with monkeypatch.context() as patch:
            patch.setattr(reserve_market, "_pro_rata", reference)
            expected = procure(classical, modulation, *required, PRICES)
        assert result.classical_fraction.tobytes() == expected.classical_fraction.tobytes()
        assert result.modulation_fraction.tobytes() == expected.modulation_fraction.tobytes()
        assert result.contracted_cost == expected.contracted_cost
