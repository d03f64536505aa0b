"""Day-ahead secondary reserve procurement.

The operator must secure an upward and a downward reserve quantity for
every period.  Two products compete: classical one-period, one-direction
bids, and modulation bids -- a symmetric band around a consumption baseline
held over a block of consecutive periods, which therefore counts toward
both directions in every covered period (discounted by its efficiency
ratio).  Clearing minimizes reservation plus assumed-activation cost, with
a penalty on contracting past the requirement and an expensive fallback on
any shortfall.  Each product's bids arrive as one book, a column per field
(:class:`ClassicalBook`, :class:`ModulationBook`).

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

from .book import Book, column, whole
from .lp import EQUAL, LinearProgram, solve

UP = "up"
DOWN = "down"

#: activation fractions below this are treated as rejected
ACCEPT_TOL = 1e-9


@dataclass(frozen=True)
class ClassicalBook(Book):
    """Single-period reserve capacity in one direction: ``actor`` offers
    ``volume`` MW in ``period`` and ``direction``, paid (up) or paying
    (down) ``activation_price`` EUR/MWh on use."""

    entry = "bid"

    actor: np.ndarray = column(str)
    period: np.ndarray = column()
    direction: np.ndarray = column(str)
    volume: np.ndarray = column(float)             # MW
    activation_price: np.ndarray = column(float)   # EUR/MWh

    def validate(self, period_count: int) -> None:
        """Raise ``ValueError`` naming the first bid that breaks a rule.
        Each rule is written as what holds, so NaN breaks it too."""
        self._require((self.direction == UP) | (self.direction == DOWN), "direction", "is not up/down")
        self._require(
            whole(self.period, 0, period_count - 1), "period",
            f"is not an integer in 0..{period_count - 1}",
        )
        self._require((self.volume > 0) & (self.volume < np.inf), "volume", "is not positive and finite")
        self._require(
            (self.activation_price >= 0) & (self.activation_price < np.inf),
            "activation_price", "is not nonnegative and finite",
        )


@dataclass(frozen=True)
class ModulationBook(Book):
    """Symmetric flexibility bands: ``actor`` offers a band of ``amplitude``
    MW over the ``length`` periods from ``start``.

    The consumption underlying a band is energy neutral across its block,
    so the same capacity serves both reserve directions in every covered
    period, each MW counting ``efficiency`` MW of reserve.
    """

    entry = "bid"

    actor: np.ndarray = column(str)
    start: np.ndarray = column()
    length: np.ndarray = column()
    amplitude: np.ndarray = column(float)          # MW, the tradeable volume
    activation_price: np.ndarray = column(float)
    efficiency: np.ndarray = column(float)

    def validate(self, period_count: int) -> None:
        """Raise ``ValueError`` naming the first bid that breaks a rule.
        Each rule is written as what holds, so NaN breaks it too."""
        self._require(
            whole(self.length / 2, 1, period_count / 2), "length",
            f"is not an even integer in 2..{period_count}",
        )
        self._require(
            whole(self.start, 0, period_count - self.length), "start",
            "puts the window outside the horizon",
        )
        self._require(
            (self.amplitude >= 0) & (self.amplitude < np.inf), "amplitude", "is not nonnegative and finite"
        )
        self._require(
            (self.efficiency > 0) & (self.efficiency <= 1), "efficiency", "is outside (0, 1]"
        )
        self._require(
            (self.activation_price >= 0) & (self.activation_price < np.inf),
            "activation_price", "is not nonnegative and finite",
        )
        # the windows of one actor must not share a period: sorted by actor
        # and start, a window overlapping any earlier one overlaps the one
        # just before it
        order = np.lexsort((self.start, self.actor))
        actor, start = self.actor[order], self.start[order]
        end = start + self.length[order]
        overlap = np.zeros(len(self), dtype=bool)
        overlap[order[1:]] = (actor[1:] == actor[:-1]) & (start[1:] < end[:-1])
        self._require(~overlap, "start", "overlaps another window of the same actor")


@dataclass(frozen=True)
class ReservePrices:
    """Regulated capacity prices and the non-contracted fallback price,
    each nonnegative and finite: checked when made, and frozen."""

    up_capacity: float = 45.0
    down_capacity: float = 45.0
    modulation_capacity: float = 10.0
    non_contracted: float = 500.0

    def __post_init__(self):
        for label, value in vars(self).items():
            # written as "holds" so that NaN fails too
            if not 0 <= value < np.inf:
                raise ValueError(f"price {label} must be nonnegative and finite, got {value!r}")


@dataclass
class ReserveProcurement:
    """Accepted fractions plus the per-period surplus and shortfall."""

    classical: ClassicalBook
    modulation: ModulationBook
    classical_fraction: np.ndarray
    modulation_fraction: np.ndarray
    surplus_up: np.ndarray
    surplus_down: np.ndarray
    shortfall_up: np.ndarray
    shortfall_down: np.ndarray
    over_commit_penalty: np.ndarray      # per period, reused at settlement
    contracted_cost: float               # reservation + assumed activation
    objective: float                     # LP value incl. surplus/shortfall terms

    @property
    def classical_contracted(self) -> np.ndarray:
        """Where a classical bid was accepted: its contracted MW are
        ``volume * classical_fraction`` there."""
        return self.classical_fraction > ACCEPT_TOL

    @property
    def modulation_contracted(self) -> np.ndarray:
        """Where a band bid of positive amplitude was accepted: its
        contracted MW are ``amplitude * modulation_fraction`` there."""
        return (self.modulation_fraction > ACCEPT_TOL) & (self.modulation.amplitude > 0)


def ordered_sum(*parts: np.ndarray) -> float:
    """The terms of ``parts`` added one by one from 0.0, in order: a plain
    loop's rounding to the last bit, which ``np.sum`` (adding in pairs) lacks."""
    return float(np.add.accumulate(np.concatenate([[0.0], *parts]))[-1])


def band_coverage(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(band index, period) of every period each band from ``start`` over
    ``length`` periods covers, band by band and in period order within a
    band."""
    start = np.asarray(start, dtype=np.intp)
    length = np.asarray(length, dtype=np.intp)
    owner = np.repeat(np.arange(len(length)), length)
    within = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
    return owner, start[owner] + within


def _pro_rata(fraction: np.ndarray, keys: tuple[np.ndarray, ...], volume: np.ndarray) -> np.ndarray:
    """``fraction`` with each group of tied bids (equal in every column of
    ``keys``) given one fraction: the ``volume``-weighted mean of its
    members' fractions, or their plain mean where the group's volume is 0.

    Tied bids cost the same and count the same per MW, so the group's
    contribution to every requirement row and its cost keep the LP's values
    (up to rounding) and the LP's optimum stays an optimum.  Each group's
    sums run in bid order from 0.0 (``np.bincount`` adds its weights one by
    one), so the result is deterministic; a bid alone in its group keeps
    its fraction bit for bit.
    """
    order = np.lexsort(keys[::-1])
    ranked = [key[order] for key in keys]
    new = np.ones(len(fraction), dtype=bool)
    new[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in ranked])
    group = np.empty(len(fraction), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    size = np.bincount(group)
    total = np.bincount(group, volume, len(size))
    mean = np.bincount(group, fraction, len(size)) / size
    np.divide(np.bincount(group, volume * fraction, len(size)), total, out=mean, where=total > 0)
    return np.where(size[group] > 1, mean[group], fraction)


def clear_reserve(
    classical: ClassicalBook,
    modulation: ModulationBook,
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
    for direction, required in ((UP, required_up), (DOWN, required_down)):
        # written as "holds" so that NaN fails too
        bad = np.flatnonzero(~((required >= 0) & (required < np.inf)))
        if bad.size:
            raise ValueError(
                f"{direction} requirement {required[bad[0]].item()!r} in period {bad[0]} "
                "is not nonnegative and finite"
            )
    classical.validate(period_count)
    modulation.validate(period_count)

    lp = LinearProgram(sense="min", name="reserve-clearing")
    # the cost of accepting all of each bid: reservation plus assumed activation
    is_up = classical.direction == UP
    volume = classical.volume
    capacity = np.where(is_up, prices.up_capacity, prices.down_capacity)
    sign = np.where(is_up, 1.0, -1.0)
    activation = classical.activation_price
    classical_cost = (capacity + sign * activation) * volume
    x_classical = lp.add_variables(len(classical), 0.0, 1.0)
    lp.add_objectives(x_classical, classical_cost)
    amplitude = modulation.amplitude
    band_activation = modulation.activation_price
    band_cost = (prices.modulation_capacity + band_activation) * amplitude
    x_modulation = lp.add_variables(len(modulation), 0.0, 1.0)
    lp.add_objectives(x_modulation, band_cost)

    # the over-contract penalty stops the clearing from banking surplus
    # reserve for its downward activation revenue: 10% above the dearest
    # downward activation price of each period, or above the dearest price
    # of the day (the fallback price without bids) in a period without one
    period = classical.period.astype(np.intp)
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
    owner, covered = band_coverage(modulation.start, modulation.length)
    contribution = (amplitude * modulation.efficiency)[owner]
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
        np.clip(sol.values(x_classical), 0.0, 1.0), (period, is_up, activation), volume
    )
    xm = _pro_rata(
        np.clip(sol.values(x_modulation), 0.0, 1.0),
        (modulation.start, modulation.length, modulation.efficiency, band_activation),
        amplitude,
    )

    return ReserveProcurement(
        classical=classical,
        modulation=modulation,
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
