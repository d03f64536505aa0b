"""Day-ahead secondary reserve procurement.

The operator must secure an upward and a downward reserve quantity for
every period.  Two products compete: classical one-period, one-direction
bids, and modulation bids -- a symmetric band around a consumption baseline
held over a block of consecutive periods, which therefore counts toward
both directions in every covered period (discounted by its efficiency
ratio).  Clearing minimizes reservation plus assumed-activation cost, with
a penalty on contracting past the requirement and an expensive fallback on
any shortfall.

Tied bids share pro rata, as marginal offers do in the energy auction.
Classical bids tie when they have the same period, direction and
activation price; band bids when they have the same window, efficiency and
activation price.  Tied bids cost the same and count the same per MW, so
every group of them gets one accepted fraction, the volume-weighted mean
of the fractions the LP picked, and equal bids are accepted alike whatever
vertex the solver returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import EQUAL, LinearProgram, solve

UP = "up"
DOWN = "down"

#: activation fractions below this are treated as rejected
ACCEPT_TOL = 1e-9


@dataclass(frozen=True)
class ClassicalReserveBid:
    """Single-period reserve capacity in one direction."""

    actor: str
    period: int
    direction: str
    volume: float                # MW
    activation_price: float      # EUR/MWh paid (up) or received (down) on use

    def validate(self, period_count: int) -> None:
        if self.direction not in (UP, DOWN):
            raise ValueError(f"direction must be up/down, got {self.direction!r}")
        if not 0 <= self.period < period_count:
            raise ValueError(f"bid period {self.period} outside horizon")
        if not self.volume > 0:
            raise ValueError("bid volume must be positive")
        if self.activation_price < 0:
            raise ValueError("activation price must be nonnegative")


@dataclass(frozen=True)
class ModulationBid:
    """Symmetric flexibility band of ``amplitude`` MW over consecutive periods.

    The consumption underlying the band is energy neutral across the block,
    so the same capacity serves both reserve directions in every covered
    period.
    """

    actor: str
    start: int
    length: int
    amplitude: float             # MW, the tradeable volume
    activation_price: float = 0.0
    efficiency: float = 1.0

    @property
    def periods(self) -> range:
        return range(self.start, self.start + self.length)

    def validate(self, period_count: int) -> None:
        if self.length < 2 or self.length % 2 != 0:
            raise ValueError("modulation length must be even and at least 2")
        if self.start < 0 or self.start + self.length > period_count:
            raise ValueError("modulation window outside horizon")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if self.activation_price < 0:
            raise ValueError("activation price must be nonnegative")


@dataclass
class ReservePrices:
    """Regulated capacity prices and the non-contracted fallback price."""

    up_capacity: float = 45.0
    down_capacity: float = 45.0
    modulation_capacity: float = 10.0
    non_contracted: float = 500.0

    def validate(self) -> None:
        for label, value in vars(self).items():
            if value < 0:
                raise ValueError(f"price {label} must be nonnegative")


@dataclass
class ReserveProcurement:
    """Accepted fractions plus the per-period surplus and shortfall."""

    classical: list[ClassicalReserveBid]
    modulation: list[ModulationBid]
    classical_fraction: np.ndarray
    modulation_fraction: np.ndarray
    surplus_up: np.ndarray
    surplus_down: np.ndarray
    shortfall_up: np.ndarray
    shortfall_down: np.ndarray
    over_commit_penalty: np.ndarray      # per period, reused at settlement
    contracted_cost: float               # reservation + assumed activation
    objective: float                     # LP value incl. surplus/shortfall terms

    def contracted_classical(self) -> list[tuple[ClassicalReserveBid, float]]:
        return [
            (bid, bid.volume * float(x))
            for bid, x in zip(self.classical, self.classical_fraction)
            if x > ACCEPT_TOL
        ]

    def contracted_modulation(self) -> list[tuple[ModulationBid, float]]:
        return [
            (bid, bid.amplitude * float(x))
            for bid, x in zip(self.modulation, self.modulation_fraction)
            if x > ACCEPT_TOL and bid.amplitude > 0
        ]


def ordered_sum(*parts: np.ndarray) -> float:
    """The terms of ``parts`` added one by one from 0.0, in order: a plain
    loop's rounding to the last bit, which ``np.sum`` (adding in pairs) lacks."""
    return float(np.add.accumulate(np.concatenate([[0.0], *parts]))[-1])


def band_coverage(bids: list[ModulationBid]) -> tuple[np.ndarray, np.ndarray]:
    """(bid index, period) of every period each band bid covers, bid by bid
    and in period order within a bid."""
    lengths = np.array([bid.length for bid in bids], dtype=np.intp)
    starts = np.array([bid.start for bid in bids], dtype=np.intp)
    owner = np.repeat(np.arange(len(bids)), lengths)
    within = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, starts[owner] + within


def _check_non_overlap(modulation: list[ModulationBid]) -> None:
    seen: dict[str, set[int]] = {}
    for bid in modulation:
        covered = seen.setdefault(bid.actor, set())
        window = set(bid.periods)
        if covered & window:
            raise ValueError(f"overlapping modulation bids for actor {bid.actor!r}")
        covered |= window


def _pro_rata(fraction: np.ndarray, keys: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """``fraction`` with each group of tied bids (equal rows of ``keys``)
    given one fraction: the ``volume``-weighted mean of its members'
    fractions, or their plain mean where the group's volume is 0.

    Tied bids cost the same and count the same per MW, so the group's
    contribution to every requirement row and its cost keep the LP's values
    (up to rounding) and the LP's optimum stays an optimum.  Each group's
    sums run in bid order from 0.0 (``np.bincount`` adds its weights one by
    one), so the result is deterministic; a bid alone in its group keeps
    its fraction bit for bit.
    """
    _, group, size = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    total = np.bincount(group, volume, len(size))
    mean = np.bincount(group, fraction, len(size)) / size
    np.divide(np.bincount(group, volume * fraction, len(size)), total, out=mean, where=total > 0)
    return np.where(size[group] > 1, mean[group], fraction)


def clear_reserve(
    classical: list[ClassicalReserveBid],
    modulation: list[ModulationBid],
    required_up: np.ndarray,
    required_down: np.ndarray,
    prices: ReservePrices,
) -> ReserveProcurement:
    """Minimum-cost acceptance of reserve bids against both requirements.

    Always feasible: shortfall and surplus variables absorb any gap.
    """
    required_up = np.asarray(required_up, dtype=float)
    required_down = np.asarray(required_down, dtype=float)
    period_count = len(required_up)
    if len(required_down) != period_count:
        raise ValueError("requirement series differ in length")
    if np.any(required_up < 0) or np.any(required_down < 0):
        raise ValueError("requirements must be nonnegative")
    prices.validate()
    for bid in classical:
        bid.validate(period_count)
    for bid in modulation:
        bid.validate(period_count)
    _check_non_overlap(modulation)

    lp = LinearProgram(sense="min", name="reserve-clearing")
    # the cost of accepting all of each bid: reservation plus assumed activation
    is_up = np.array([bid.direction == UP for bid in classical], dtype=bool)
    volume = np.array([bid.volume for bid in classical], dtype=float)
    capacity = np.where(is_up, prices.up_capacity, prices.down_capacity)
    sign = np.where(is_up, 1.0, -1.0)
    activation = np.array([bid.activation_price for bid in classical], dtype=float)
    classical_cost = (capacity + sign * activation) * volume
    x_classical = lp.add_variables(len(classical), 0.0, 1.0)
    lp.add_objectives(x_classical, classical_cost)
    amplitude = np.array([bid.amplitude for bid in modulation], dtype=float)
    band_activation = np.array([bid.activation_price for bid in modulation], dtype=float)
    band_cost = (prices.modulation_capacity + band_activation) * amplitude
    x_modulation = lp.add_variables(len(modulation), 0.0, 1.0)
    lp.add_objectives(x_modulation, band_cost)

    # the over-contract penalty stops the clearing from banking surplus
    # reserve for its downward activation revenue: 10% above the dearest
    # downward activation price of each period, or above the dearest price
    # of the day (the fallback price without bids) in a period without one
    period = np.array([bid.period for bid in classical], dtype=np.intp)
    all_prices = np.concatenate([activation, band_activation])
    fallback = all_prices.max() if all_prices.size else prices.non_contracted
    dearest_down = np.full(period_count, -np.inf)
    np.maximum.at(dearest_down, period[~is_up], activation[~is_up])
    penalty = 1.1 * np.where(dearest_down > -np.inf, dearest_down, fallback)

    s_up, s_dn, n_up, n_dn = (lp.add_variables(period_count) for _ in range(4))
    lp.add_objectives(s_up, penalty)
    lp.add_objectives(s_dn, penalty)
    lp.add_objectives(n_up, prices.non_contracted)
    lp.add_objectives(n_dn, prices.non_contracted)

    # rows 2t and 2t + 1: the upward and downward requirement of period t
    up_row = 2 * np.arange(period_count)
    bid_row = 2 * period + np.where(is_up, 0, 1)
    owner, covered = band_coverage(modulation)
    band_efficiency = np.array([bid.efficiency for bid in modulation], dtype=float)
    contribution = (amplitude * band_efficiency)[owner]
    lp.add_constraints(
        [
            (up_row, n_up, 1.0),
            (up_row, s_up, -1.0),
            (up_row + 1, n_dn, 1.0),
            (up_row + 1, s_dn, -1.0),
            (bid_row, x_classical, volume),
            (2 * covered, x_modulation[owner], contribution),
            (2 * covered + 1, x_modulation[owner], contribution),
        ],
        EQUAL,
        np.column_stack([required_up, required_down]).ravel(),
    )

    sol = solve(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"reserve clearing unexpectedly {sol.status}")

    xc = _pro_rata(
        np.clip(sol.values(x_classical), 0.0, 1.0),
        np.column_stack([period, is_up, activation]),
        volume,
    )
    window = np.array([(bid.start, bid.length) for bid in modulation], dtype=float).reshape(-1, 2)
    xm = _pro_rata(
        np.clip(sol.values(x_modulation), 0.0, 1.0),
        np.column_stack([window, band_efficiency, band_activation]),
        amplitude,
    )

    return ReserveProcurement(
        classical=list(classical),
        modulation=list(modulation),
        classical_fraction=xc,
        modulation_fraction=xm,
        surplus_up=sol.values(s_up),
        surplus_down=sol.values(s_dn),
        shortfall_up=sol.values(n_up),
        shortfall_down=sol.values(n_dn),
        over_commit_penalty=penalty,
        contracted_cost=ordered_sum(classical_cost * xc, band_cost * xm),
        objective=sol.objective,
    )
