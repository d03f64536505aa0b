from pathlib import Path

import numpy as np
import pytest

from flexmarket.imbalance import fees, settle
from flexmarket.reserve_market import (
    ClassicalBook,
    ModulationBook,
    ReservePrices,
    clear_reserve,
)

from test_agents import _same_bits

PRICES = ReservePrices(45.0, 45.0, 10.0, 500.0)
PI_NC = 500.0


def procure(classical, modulation, r_up, r_dn):
    """``clear_reserve`` on books of the given rows: (actor, period,
    direction, volume, activation price) for a classical bid and (actor,
    start, length, amplitude, activation price, efficiency) for a band."""
    return clear_reserve(
        ClassicalBook.from_rows(classical),
        ModulationBook.from_rows(modulation),
        np.asarray(r_up, float),
        np.asarray(r_dn, float),
        PRICES,
    )


def test_zero_imbalance_zero_activation():
    result = settle(np.zeros(3), procure([], [], np.zeros(3), np.zeros(3)), PI_NC)
    assert result.activation_cost == pytest.approx(0.0)
    assert np.allclose(result.activated_up, 0.0)
    assert np.array_equal(result.tariff_up, np.zeros(3))
    assert np.array_equal(result.tariff_down, np.zeros(3))


@pytest.mark.parametrize(
    "imbalance, price, message",
    [
        ([np.nan], PI_NC, r"imbalance nan in period 0 is not finite"),
        ([1.0], np.nan, r"non-contracted price nan is not nonnegative"),
        ([1.0], -5.0, r"non-contracted price -5.0 is not nonnegative"),
        ([1.0, 2.0], PI_NC, r"imbalance covers 2 periods, the procurement 1"),
    ],
    ids=["nan-imbalance", "nan-price", "negative-price", "period-count"],
)
def test_settle_rejects_bad_imbalance_or_price(imbalance, price, message):
    procurement = procure([], [], [0.0], [0.0])
    with pytest.raises(ValueError, match=message):
        settle(np.array(imbalance), procurement, price)


def test_deficit_covered_by_half_of_contracted_bid():
    bid = ("gen", 0, "up", 10.0, 7.0)
    procurement = procure([bid], [], [10.0], [0.0])
    result = settle(np.array([-5.0]), procurement, PI_NC)
    assert result.classical_activation[0] == pytest.approx(0.5)
    assert result.non_contracted_up[0] == pytest.approx(0.0, abs=1e-9)
    assert result.activation_cost == pytest.approx(7.0 * 5.0)


def test_shortfall_spills_to_non_contracted():
    bid = ("gen", 0, "up", 10.0, 7.0)
    procurement = procure([bid], [], [10.0], [0.0])
    result = settle(np.array([-15.0]), procurement, PI_NC)
    assert result.classical_activation[0] == pytest.approx(1.0)
    assert result.non_contracted_up[0] == pytest.approx(5.0)
    assert result.activation_cost == pytest.approx(7.0 * 10.0 + 500.0 * 5.0)
    assert result.tariff_up[0] == PI_NC


def test_tariff_is_most_expensive_activated_bid():
    bids = [
        ("a", 0, "up", 6.0, 5.0),
        ("b", 0, "up", 6.0, 12.0),
    ]
    procurement = procure(bids, [], [12.0], [0.0])
    result = settle(np.array([-9.0]), procurement, PI_NC)
    assert result.tariff_up[0] == pytest.approx(12.0)
    assert result.tariff_down[0] == 0.0


def test_surplus_uses_downward_and_sets_down_tariff():
    bid = ("gen", 0, "down", 10.0, 48.0)
    procurement = procure([bid], [], [0.0], [10.0])
    result = settle(np.array([6.0]), procurement, PI_NC)
    assert result.activated_down[0] == pytest.approx(6.0)
    assert result.tariff_down[0] == pytest.approx(48.0)
    assert result.tariff_up[0] == 0.0


def test_modulation_energy_neutrality():
    bid = ("ret", 0, 4, 12.0, 0.0, 0.5)
    procurement = procure([], [bid], np.full(4, 6.0), np.full(4, 6.0))
    assert procurement.modulation_fraction[0] == pytest.approx(1.0)
    imbalance = np.array([-5.0, 0.0, 5.0, 0.0])
    result = settle(imbalance, procurement, PI_NC)
    v, w = result.modulation_up[0], result.modulation_down[0]
    assert abs(float(np.sum(v - w))) <= 1e-9
    # deficit in period 0 answered upward, surplus in period 2 downward
    assert result.activated_up[0] == pytest.approx(5.0)
    assert result.activated_down[2] == pytest.approx(5.0)
    assert result.activation_cost == pytest.approx(0.0, abs=1e-9)


def test_windows_and_periods_given_as_floats_settle_as_integers():
    # a book keeps the dtype it is given, and whole floats pass validation
    bids = [("g", 1, "up", 5.0, 3.0), ("g", 3, "down", 5.0, 30.0)]
    bands = [("r", 0, 4, 12.0, 2.0, 0.5)]
    imbalance = np.array([-5.0, -2.0, 5.0, 3.0])
    r = np.full(4, 8.0)
    as_int = settle(imbalance, procure(bids, bands, r, r), PI_NC)
    as_float = settle(
        imbalance,
        procure(
            [(a, float(t), d, v, p) for a, t, d, v, p in bids],
            [(a, float(s), float(n), m, p, e) for a, s, n, m, p, e in bands],
            r,
            r,
        ),
        PI_NC,
    )
    for field in (
        "classical_activation", "modulation_up", "modulation_down",
        "activated_up", "activated_down", "tariff_up", "tariff_down",
    ):
        assert np.array_equal(getattr(as_float, field), getattr(as_int, field)), field
    # both bids and the band were contracted, so the comparison is not empty
    assert as_float.classical_activation.size == 2 and len(as_float.modulation_up) == 1


def test_one_sided_imbalance_forces_non_contracted_with_modulation_only():
    # a deficit lasting the whole block cannot be served by an
    # energy-neutral band: recovery pushes the gap elsewhere
    bid = ("ret", 0, 2, 10.0, 0.0, 0.5)
    procurement = procure([], [bid], np.full(2, 5.0), np.full(2, 5.0))
    result = settle(np.array([-4.0, -4.0]), procurement, PI_NC)
    assert float(np.sum(result.non_contracted_up)) == pytest.approx(8.0, abs=1e-6)


def test_settlement_cost_never_increases_with_extra_modulation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        classical = [
            ("g", t, d, float(rng.uniform(2, 10)), float(rng.uniform(5, 60)))
            for t in range(4)
            for d in ("up", "down")
        ]
        modulation = [("r", 0, 4, float(rng.uniform(0, 10)), 0.0, 0.5)]
        r = np.full(4, 8.0)
        imbalance = rng.uniform(-6, 6, 4)
        with_mod = settle(imbalance, procure(classical, modulation, r, r), PI_NC)
        without = settle(imbalance, procure(classical, [], r, r), PI_NC)
        # same classical book, so the only difference is the extra option
        assert with_mod.activation_cost <= without.activation_cost + 1e-6


def test_balance_residuals_on_random_profiles():
    rng = np.random.default_rng(3)
    classical = [
        ("g", t, d, 12.0, float(rng.uniform(5, 60)))
        for t in range(6)
        for d in ("up", "down")
    ]
    modulation = [("r", 0, 4, 8.0, 0.0, 0.5), ("r", 4, 2, 5.0, 0.0, 0.5)]
    procurement = procure(classical, modulation, np.full(6, 9.0), np.full(6, 9.0))
    for _ in range(30):
        imbalance = rng.uniform(-20, 20, 6)
        result = settle(imbalance, procurement, PI_NC)
        net = (
            result.activated_up
            - result.activated_down
            + imbalance
        )
        assert np.max(np.abs(net)) <= 1e-7
        for v, w in zip(result.modulation_up, result.modulation_down):
            assert abs(float(np.sum(v - w))) <= 1e-9


def loop_activation(result, procurement, non_contracted_price):
    """Activated MW per direction, cost and tariffs, bid by bid and period by
    period: the reference for the array code in ``settle``."""
    t_count = len(result.imbalance)
    classical = [
        (row, volume * x)
        for row, volume, x in zip(
            procurement.classical.rows(), procurement.classical.volume, procurement.classical_fraction
        )
        if x > 1e-9
    ]
    penalty = procurement.over_commit_penalty
    up, down, cost = np.zeros(t_count), np.zeros(t_count), 0.0
    for ((_, period, direction, _, price), volume), x in zip(classical, result.classical_activation):
        if direction == "up":
            up[period] += volume * x
            cost += price * volume * x
        else:
            down[period] += volume * x
            cost += (penalty[period] - price) * volume * x
    sold = [
        (row, amplitude * x)
        for row, amplitude, x in zip(
            procurement.modulation.rows(), procurement.modulation.amplitude, procurement.modulation_fraction
        )
        if x > 1e-9 and amplitude > 0
    ]
    bands = list(zip(sold, result.modulation_up, result.modulation_down))
    for ((_, start, length, _, price, _), volume), v, w in bands:
        for j, t in enumerate(range(start, start + length)):
            up[t] += volume * v[j]
            down[t] += volume * w[j]
            cost += price * volume * (v[j] + w[j])
    cost += non_contracted_price * float(np.sum(result.non_contracted_up + result.non_contracted_down))
    tariff_up, tariff_down = np.zeros(t_count), np.zeros(t_count)
    for t in range(t_count):
        up_prices, down_prices = [], []
        for ((_, period, direction, _, price), volume), x in zip(classical, result.classical_activation):
            if period == t and volume * x > 1e-9:
                (up_prices if direction == "up" else down_prices).append(price)
        for ((_, start, length, _, price, _), volume), v, w in bands:
            if start <= t < start + length:
                if volume * v[t - start] > 1e-9:
                    up_prices.append(price)
                if volume * w[t - start] > 1e-9:
                    down_prices.append(price)
        if result.non_contracted_up[t] > 1e-9:
            tariff_up[t] = non_contracted_price
        elif up_prices:
            tariff_up[t] = max(up_prices)
        if result.non_contracted_down[t] > 1e-9:
            tariff_down[t] = non_contracted_price
        elif down_prices:
            tariff_down[t] = max(down_prices)
    return up + result.non_contracted_up, down + result.non_contracted_down, cost, tariff_up, tariff_down


def test_activation_sums_cost_and_tariffs_match_bid_loops():
    rng = np.random.default_rng(5)
    for _ in range(20):
        classical = [
            ("g", t, d, float(rng.uniform(1, 8)), float(rng.uniform(5, 60)))
            for t in range(6)
            for d in ("up", "down")
            if rng.random() < 0.7
        ]
        modulation = [
            ("r", 0, 4, float(rng.uniform(1, 8)), float(rng.uniform(0, 20)), 0.5),
            ("s", 2, 4, float(rng.uniform(1, 8)), float(rng.uniform(0, 20)), 0.5),
        ]
        procurement = procure(classical, modulation, np.full(6, 9.0), np.full(6, 9.0))
        result = settle(rng.uniform(-25, 25, 6), procurement, PI_NC)
        up, down, cost, tariff_up, tariff_down = loop_activation(result, procurement, PI_NC)
        assert np.array_equal(result.activated_up, up)
        assert np.array_equal(result.activated_down, down)
        # band terms are summed per period here and per bid in the reference
        assert result.activation_cost == pytest.approx(cost, rel=1e-12, abs=1e-12)
        assert np.array_equal(result.tariff_up, tariff_up)
        assert np.array_equal(result.tariff_down, tariff_down)


def test_fee_examples():
    up = np.array([12.0])
    down = np.array([8.0])
    charges = fees(up, down, {"idle": (np.zeros(1), np.zeros(1)), "long": (np.array([2.0]), np.zeros(1))})
    assert charges["idle"] == 0.0
    assert charges["long"] == pytest.approx(24.0)


def test_fees_use_own_direction_even_when_system_nets_out():
    bids = [
        ("g", 0, "up", 5.0, 10.0),
        ("g", 0, "down", 5.0, 8.0),
    ]
    procurement = procure(bids, [], [5.0], [5.0])
    result = settle(np.array([0.0]), procurement, PI_NC)  # +3 and -3 net out
    # the example pins tariffs (10, 8)
    charges = fees(
        np.where(result.tariff_up > 0, result.tariff_up, 10.0),
        np.where(result.tariff_down > 0, result.tariff_down, 8.0),
        {"a": (np.array([3.0]), np.zeros(1)), "b": (np.zeros(1), np.array([3.0]))},
    )
    assert charges["a"] == pytest.approx(30.0)
    assert charges["b"] == pytest.approx(24.0)


# ---------------------------------------------------------------------------
# model snapshot: the market LPs, term for term
# ---------------------------------------------------------------------------

MARKET_SNAPSHOT = Path(__file__).with_name("market_models.npz")


def capture_market_models() -> dict:
    """Every reserve-clearing and settlement LP, in solve order, as it
    reaches ``solve``: those of an open 10 % run at seed 1 over 3 rounds,
    then those of books drawn as criterion 6 draws them (bands of lengths 4
    and 2), settled against two imbalances, and of the same books cleared
    against a zero requirement, so that nothing is contracted."""
    from flexmarket import imbalance, reserve_market

    models = {}

    def recording(source, original):
        def solve(lp, *args):
            models[f"{source}.{len(models):02d}.{lp.name}"] = lp
            return original(lp, *args)

        return solve

    originals = reserve_market.solve, imbalance.solve
    try:
        for source, play in (("open", _play_open_run), ("books", _play_criterion_6_books)):
            reserve_market.solve = recording(source, originals[0])
            imbalance.solve = recording(source, originals[1])
            play()
    finally:
        reserve_market.solve, imbalance.solve = originals
    return models


def _play_open_run():
    from flexmarket.scenario import ScenarioConfig
    from flexmarket.simulator import run

    run(ScenarioConfig(seed=1, flexibility_rate=0.1, setting="open", max_rounds=3))


def _play_criterion_6_books():
    rng = np.random.default_rng(99)
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
    procurement = clear_reserve(classical, modulation, requirement, requirement, PRICES)
    for _ in range(2):
        settle(rng.uniform(-25, 25, 6), procurement, PI_NC)
    empty = clear_reserve(classical, modulation, np.zeros(6), np.zeros(6), PRICES)
    assert not empty.classical_contracted.any() and not empty.modulation_contracted.any()
    settle(rng.uniform(-25, 25, 6), empty, PI_NC)


def record_market_models(path=MARKET_SNAPSHOT) -> None:
    """Write the snapshot :func:`test_market_models_match_snapshot` reads."""
    arrays = {}
    for key, lp in capture_market_models().items():
        for field, value in lp.highs_columns()._asdict().items():
            arrays[f"{key}.{field}"] = value
        arrays[key + ".lower"] = lp.lower
        arrays[key + ".upper"] = lp.upper
        arrays[key + ".objective"] = lp.objective_vector()
        arrays[key + ".sense"] = np.array(lp.sense)
    np.savez_compressed(path, **arrays)


def test_market_models_match_snapshot():
    """Every reserve-clearing and settlement LP of
    :func:`capture_market_models` is the one recorded: the same columns,
    row bounds, variable bounds, objective and sense, bit for bit, so HiGHS
    receives the same input and returns the same vertex.  Regenerate it
    (only when a model is meant to change) from the repository root with::

        PYTHONPATH=src:tests python -c "import test_imbalance; test_imbalance.record_market_models()"
    """
    expected = np.load(MARKET_SNAPSHOT)
    models = capture_market_models()
    assert sorted(models) == sorted({name.rsplit(".", 1)[0] for name in expected.files})
    for key, lp in models.items():
        actual = lp.highs_columns()._asdict() | {
            "lower": lp.lower,
            "upper": lp.upper,
            "objective": lp.objective_vector(),
        }
        for field, value in actual.items():
            assert _same_bits(value, expected[f"{key}.{field}"]), (key, field)
        assert str(expected[key + ".sense"]) == lp.sense, key
