"""Day-ahead energy auction: uniform price per period.

Each offer covers a single period and one side of the book.  The clearing
price of a period is the lowest price at which all demand strictly willing
to pay more is covered by the supply willing to sell at or below it; if
excess demand persists all the way up, the price cap binds and demand is
rationed.  Offers priced strictly inside the money are filled completely,
offers at the clearing price share the marginal volume pro rata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_PRICE_CAP = 3000.0

SUPPLY = "supply"
DEMAND = "demand"


@dataclass(frozen=True)
class EnergyOffer:
    """One-period offer: ``volume`` MW at limit ``price`` EUR/MWh."""

    actor: str
    period: int
    side: str
    volume: float
    price: float

    def validate(self, period_count: int, price_cap: float) -> None:
        if self.side not in (SUPPLY, DEMAND):
            raise ValueError(f"offer side must be supply/demand, got {self.side!r}")
        if not 0 <= self.period < period_count:
            raise ValueError(f"offer period {self.period} outside 0..{period_count - 1}")
        if not self.volume > 0:
            raise ValueError(f"offer volume must be positive, got {self.volume}")
        if not 0.0 <= self.price <= price_cap:
            raise ValueError(f"offer price {self.price} outside [0, {price_cap}]")


@dataclass
class ClearingResult:
    """Uniform prices plus per-offer acceptance for one cleared day."""

    price: np.ndarray               # EUR/MWh per period
    traded_volume: np.ndarray       # MW per period
    fractions: np.ndarray           # acceptance fraction per offer (input order)
    no_market: np.ndarray           # periods with an empty book on both sides
    cleared_demand: dict[str, np.ndarray] = field(default_factory=dict)
    cleared_supply: dict[str, np.ndarray] = field(default_factory=dict)

    def demand_of(self, actor: str) -> np.ndarray:
        return self.cleared_demand.get(actor, np.zeros_like(self.price))

    def supply_of(self, actor: str) -> np.ndarray:
        return self.cleared_supply.get(actor, np.zeros_like(self.price))


def clear(
    offers: list[EnergyOffer],
    period_count: int,
    price_cap: float = DEFAULT_PRICE_CAP,
) -> ClearingResult:
    """Clear all periods of a day independently."""
    if period_count < 1:
        raise ValueError("period_count must be at least 1")
    for offer in offers:
        offer.validate(period_count, price_cap)

    price = np.zeros(period_count)
    traded = np.zeros(period_count)
    fractions = np.zeros(len(offers))
    no_market = np.zeros(period_count, dtype=bool)

    by_period: list[list[int]] = [[] for _ in range(period_count)]
    for k, offer in enumerate(offers):
        by_period[offer.period].append(k)

    for t in range(period_count):
        ids = by_period[t]
        sup = [k for k in ids if offers[k].side == SUPPLY]
        dem = [k for k in ids if offers[k].side == DEMAND]
        if not sup and not dem:
            no_market[t] = True
            continue
        mcp, volume = _clear_period(
            np.array([offers[k].price for k in sup]),
            np.array([offers[k].volume for k in sup]),
            np.array([offers[k].price for k in dem]),
            np.array([offers[k].volume for k in dem]),
            price_cap,
        )
        price[t] = mcp
        traded[t] = volume
        _assign_fractions(offers, sup, mcp, volume, fractions, is_supply=True)
        _assign_fractions(offers, dem, mcp, volume, fractions, is_supply=False)

    result = ClearingResult(price, traded, fractions, no_market)
    for k, offer in enumerate(offers):
        book = result.cleared_supply if offer.side == SUPPLY else result.cleared_demand
        series = book.setdefault(offer.actor, np.zeros(period_count))
        series[offer.period] += fractions[k] * offer.volume
    return result


def _clear_period(sup_price, sup_vol, dem_price, dem_vol, price_cap):
    """Lowest stable price and the volume exchanged there."""
    grid = np.unique(np.concatenate([[0.0, price_cap], sup_price, dem_price]))
    for pi in grid:
        supply_at = sup_vol[sup_price <= pi].sum()
        demand_above = dem_vol[dem_price > pi].sum()
        if demand_above <= supply_at + 1e-12:
            demand_at = dem_vol[dem_price >= pi].sum()
            return float(pi), float(min(supply_at, demand_at))
    # unreachable: at the cap no demand is strictly above
    raise AssertionError("no stable clearing price found")


def _assign_fractions(offers, ids, mcp, volume, fractions, is_supply):
    if not ids:
        return
    prices = np.array([offers[k].price for k in ids])
    vols = np.array([offers[k].volume for k in ids])
    strict = prices < mcp if is_supply else prices > mcp
    marginal = prices == mcp
    fill = volume - vols[strict].sum()
    at_volume = vols[marginal].sum()
    share = min(1.0, max(0.0, fill / at_volume)) if at_volume > 0 else 0.0
    for k, is_strict, is_marginal in zip(ids, strict, marginal):
        fractions[k] = 1.0 if is_strict else (share if is_marginal else 0.0)
