"""Day-ahead energy auction: uniform price per period.

Each offer covers a single period and one side of the book.  The clearing
price of a period is the lowest price at which all demand strictly willing
to pay more is covered by the supply willing to sell at or below it; if
excess demand persists all the way up, the price cap binds and demand is
rationed.  Offers priced strictly inside the money are filled completely,
offers at the clearing price share the marginal volume pro rata.

The whole day clears at once on the columns of an :class:`OfferBook`, but
every volume that decides a price, the traded volume or a marginal share
is still one ``np.sum`` over the qualifying offers of one period and side,
in offer order, so it rounds as a period-by-period loop does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .book import Book, column, whole

DEFAULT_PRICE_CAP = 3000.0

SUPPLY = "supply"
DEMAND = "demand"

#: demand strictly above a price counts as covered within this many MW
COVER_TOL = 1e-12


@dataclass(frozen=True)
class OfferBook(Book):
    """One-period offers: ``actor`` offers ``volume`` MW on ``side`` (supply
    or demand) in ``period`` at limit ``price`` EUR/MWh."""

    entry = "offer"

    actor: np.ndarray = column(str)
    period: np.ndarray = column()
    side: np.ndarray = column(str)
    volume: np.ndarray = column(float)
    price: np.ndarray = column(float)

    def validate(self, period_count: int, price_cap: float) -> None:
        """Raise ``ValueError`` naming the first offer that breaks a rule.
        Each rule is written as what holds, so NaN breaks it too."""
        self._require((self.side == SUPPLY) | (self.side == DEMAND), "side", "is not supply/demand")
        self._require(
            whole(self.period, 0, period_count - 1), "period",
            f"is not an integer in 0..{period_count - 1}",
        )
        self._require((self.volume > 0) & (self.volume < np.inf), "volume", "is not positive and finite")
        self._require(
            (self.price >= 0) & (self.price <= price_cap), "price", f"is outside [0, {price_cap}]"
        )


@dataclass
class ClearingResult:
    """Uniform prices plus per-offer acceptance for one cleared day."""

    price: np.ndarray               # EUR/MWh per period
    traded_volume: np.ndarray       # MW per period
    fractions: np.ndarray           # acceptance fraction per offer (book order)
    no_market: np.ndarray           # periods with an empty book on both sides
    cleared_demand: dict[str, np.ndarray] = field(default_factory=dict)
    cleared_supply: dict[str, np.ndarray] = field(default_factory=dict)

    def demand_of(self, actor: str) -> np.ndarray:
        return self.cleared_demand.get(actor, np.zeros_like(self.price))

    def supply_of(self, actor: str) -> np.ndarray:
        return self.cleared_supply.get(actor, np.zeros_like(self.price))


def clear(
    offers: OfferBook,
    period_count: int,
    price_cap: float = DEFAULT_PRICE_CAP,
) -> ClearingResult:
    """Clear all periods of a day independently."""
    if period_count < 1:
        raise ValueError("period_count must be at least 1")
    offers.validate(period_count, price_cap)
    period = offers.period.astype(np.intp)
    supply = offers.side == SUPPLY
    volume, price = offers.volume, offers.price

    no_market = np.bincount(period, minlength=period_count) == 0
    mcp, traded, share = _clear_periods(period, supply, volume, price, no_market, price_cap)

    # 1 inside the money, the side's marginal share at the price, else 0
    at_price = mcp[period]
    strict = np.where(supply, price < at_price, price > at_price)
    side = np.where(supply, 0, 1)
    fractions = np.where(strict, 1.0, np.where(price == at_price, share[side, period], 0.0))

    # each actor's cleared MW per period and side, added offer by offer
    names, actor = np.unique(offers.actor, return_inverse=True)
    cleared = np.zeros((2, len(names), period_count))
    np.add.at(cleared, (side, actor, period), fractions * volume)
    offered = np.zeros((2, len(names)), dtype=bool)
    offered[side, actor] = True
    supplied, demanded = (
        {name: cleared[s, k] for k, name in enumerate(names.tolist()) if offered[s, k]}
        for s in (0, 1)
    )
    return ClearingResult(
        mcp, traded, fractions, no_market, cleared_demand=demanded, cleared_supply=supplied
    )


def _clear_periods(period, supply, volume, price, no_market, price_cap):
    """Per period: the lowest price of {0, cap, offer prices} at which the
    demand strictly above it is covered by the supply at or below it, the
    volume traded there, and the (supply, demand) marginal share."""
    period_count = len(no_market)
    markets = np.flatnonzero(~no_market)
    grid_price, candidate = _candidates(period, price, markets, price_cap)
    demand = ~supply
    while True:
        mcp = np.zeros(period_count)
        mcp[markets] = grid_price[candidate]
        at_price = mcp[period]
        # per period and kind, the offers that count, each kind in offer order
        kinds = [
            supply & (price <= at_price),   # supplied
            demand & (price > at_price),    # demand strictly above the price
            demand & (price >= at_price),   # demand at or above it
            supply & (price < at_price),    # supply strictly inside the money
            supply & (price == at_price),   # marginal supply
            demand & (price == at_price),   # marginal demand
        ]
        sums = _period_sums(volume, period, kinds, period_count)
        supplied, strict_demand = sums[0, markets], sums[1, markets]
        short = ~(strict_demand <= supplied + COVER_TOL)
        if not short.any():
            break
        candidate = candidate + short
    traded = np.minimum(sums[0], sums[2])
    # what the marginal offers of each side share: the traded volume less
    # what the strict offers take, over the volume at the price
    at_volume = sums[[4, 5]]
    share = np.zeros((2, period_count))
    np.divide(traded - sums[[3, 1]], at_volume, out=share, where=at_volume > 0)
    return mcp, traded, np.clip(share, 0.0, 1.0)


def _candidates(period, price, markets, price_cap):
    """The candidate prices of every market period (its offers' prices, 0
    and the cap) in (period, price) order, and the index of each period's
    lowest one."""
    grid_period = np.concatenate([period, markets, markets])
    grid_price = np.concatenate([price, np.zeros(len(markets)), np.full(len(markets), price_cap)])
    order = np.lexsort((grid_price, grid_period))
    grid_period, grid_price = grid_period[order], grid_price[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (grid_period[1:] != grid_period[:-1]) | (grid_price[1:] != grid_price[:-1])
    grid_period, grid_price = grid_period[new], grid_price[new]
    return grid_price, np.searchsorted(grid_period, markets)


def _period_sums(volume, period, kinds, period_count):
    """(kinds, periods) array: ``np.sum`` of the ``volume`` of the offers of
    each kind (a mask over offers) in each period, in offer order.

    Groups of one size are added as the rows of one 2-D array, and
    ``np.sum`` adds each row of a C-ordered array exactly as it adds that
    row alone."""
    group = np.concatenate([k * period_count + period[mask] for k, mask in enumerate(kinds)])
    values = np.concatenate([volume[mask] for mask in kinds])
    order = np.argsort(group, kind="stable")
    values = values[order]
    size = np.bincount(group, minlength=len(kinds) * period_count)
    start = np.cumsum(size) - size
    sums = np.zeros(len(size))
    for length in np.unique(size[size > 0]).tolist():
        rows = np.flatnonzero(size == length)
        sums[rows] = values[start[rows, None] + np.arange(length)].sum(axis=1)
    return sums.reshape(len(kinds), period_count)
