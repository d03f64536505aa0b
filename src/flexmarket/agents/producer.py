"""Producer position optimization and bid construction.

A producer dispatches its units against the energy price forecast, holds
back ramp-feasible headroom as upward/downward reserve (valued at a small
regulated credit so reserve never displaces profitable energy), and may
deviate from its sold position when the imbalance tariff forecast beats
the market.  The same model runs three times per round: free, with the
cleared sale fixed, and with the accepted reserves (mapped back onto the
units by :func:`producer_accepted_reserve`) fixed as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy_market import SUPPLY, EnergyOffer
from ..lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, solve
from ..reserve_market import DOWN, UP, ClassicalReserveBid
from .forecast import PriceForecast
from .retailer import IMBALANCE_FRICTION, OFFER_TOL, ConfigurationError, Pins, add_pin_penalties

#: regulated credit per MW of reserve capability kept available
DEFAULT_RESERVE_VALUATION = 0.005


@dataclass
class GenerationUnit:
    name: str
    power_min: np.ndarray
    power_max: np.ndarray
    ramp_up: float
    ramp_down: float
    cost: np.ndarray
    initial_output: float = 0.0

    def __post_init__(self):
        self.power_min = np.asarray(self.power_min, dtype=float)
        self.power_max = np.asarray(self.power_max, dtype=float)
        self.cost = np.asarray(self.cost, dtype=float)
        if not len(self.power_min) == len(self.power_max) == len(self.cost):
            raise ConfigurationError(f"unit {self.name!r}: power or cost series length mismatch")
        # written as "holds" so that NaN fails too
        if not np.all((self.power_min >= 0) & (self.power_min <= self.power_max)):
            raise ConfigurationError(f"unit {self.name!r}: bad power bounds")
        if not self.ramp_up >= 0 or not self.ramp_down >= 0:
            raise ConfigurationError(f"unit {self.name!r}: ramp limit not >= 0")


@dataclass
class ProducerPortfolio:
    name: str
    units: list[GenerationUnit]
    imbalance_limit: float
    reserve_valuation: float = DEFAULT_RESERVE_VALUATION
    # weak preference for running over idling when a unit is at par with the
    # price forecast; keeps marginal units from flipping off on forecast noise
    production_bias: float = 0.0

    def __post_init__(self):
        if not self.units:
            raise ConfigurationError(f"producer {self.name!r}: no units")
        t = self.units[0].power_max.shape[0]
        for unit in self.units:
            if unit.power_max.shape[0] != t:
                raise ConfigurationError(f"producer {self.name!r}: unit horizon mismatch")
        if not self.imbalance_limit >= 0:
            raise ConfigurationError(f"producer {self.name!r}: imbalance limit not >= 0")

    @property
    def horizon(self) -> int:
        return self.units[0].power_max.shape[0]


@dataclass(frozen=True)
class ProducerPosition:
    sale: np.ndarray
    imbalance_up: np.ndarray
    imbalance_down: np.ndarray
    unit_output: np.ndarray   # (units, periods)
    reserve: np.ndarray       # (units, periods, 2): upward, then downward
    objective: float


def fleet_capacity(portfolio: ProducerPortfolio) -> np.ndarray:
    """Total nameplate output per period, the anchor for cap-round learning."""
    return np.sum([unit.power_max for unit in portfolio.units], axis=0)


def optimize_producer(
    portfolio: ProducerPortfolio,
    fc: PriceForecast,
    price_cap: float,
    non_contracted_price: float,
    fixed_sale: np.ndarray | None = None,
    fixed_reserve: np.ndarray | None = None,
    pins: Pins | None = None,
) -> ProducerPosition:
    """Profit-maximal dispatch, reserve and imbalance plan.

    Stages differ only in what is already decided: nothing one day ahead,
    the cleared sale after the energy market, and additionally the accepted
    ``(units, periods, 2)`` reserve after the reserve market.  ``pins`` are
    the learned (minimum sale, upward imbalance, downward imbalance) pins.
    """
    t_count = portfolio.horizon
    lp = LinearProgram(sense="max", name=f"producer-{portfolio.name}")

    p, reserve = _add_units(lp, portfolio, fixed_reserve)

    if fixed_sale is not None:
        sale = lp.add_variables(t_count, fixed_sale, fixed_sale)
    else:
        sale = lp.add_variables(t_count)
    # the structural limit bounds the free day-ahead problem; with the sale
    # fixed, the production balance already pins deviations
    i_cap = np.inf if fixed_sale is not None else portfolio.imbalance_limit
    i_up = lp.add_variables(t_count, 0.0, i_cap)
    i_dn = lp.add_variables(t_count, 0.0, i_cap)

    lp.add_objectives(sale, fc.energy)
    lp.add_objectives(i_up, -(fc.imbalance_up + IMBALANCE_FRICTION))
    lp.add_objectives(i_dn, -(fc.imbalance_down + IMBALANCE_FRICTION))
    periods = np.arange(t_count)
    lp.add_constraints(
        [(periods, sale, 1.0), (periods, i_up, 1.0), (periods, i_dn, -1.0)]
        + [(periods, p, -1.0)],
        EQUAL,
        np.zeros(t_count),
    )

    # selling below the learned pin risks another price-cap round
    if pins is not None:
        sale_pin, up_pin, down_pin = pins
        add_pin_penalties(lp, sale_pin, -(price_cap + fc.energy), (sale,), floor=True)
        add_pin_penalties(lp, up_pin, -(non_contracted_price - fc.imbalance_up), (i_up,))
        add_pin_penalties(lp, down_pin, -(non_contracted_price - fc.imbalance_down), (i_dn,))

    sol = solve(lp)
    if sol.status != "optimal":
        raise ConfigurationError(
            f"producer {portfolio.name!r} position problem is {sol.status}; "
            "check unit ramps, bounds and fixed quantities"
        )

    return ProducerPosition(
        sale=sol.values(sale),
        imbalance_up=sol.values(i_up),
        imbalance_down=sol.values(i_dn),
        unit_output=sol.values(p),
        reserve=sol.values(reserve),
        objective=sol.objective,
    )


def _add_units(lp, portfolio, fixed_reserve):
    """Output, upward and downward reserve of every unit and period, with
    their objective terms and the per-unit capacity, floor and ramp rows.

    Variables run unit by unit, each unit's output, then its upward and its
    downward reserve over the horizon.  Rows run unit by unit and period by
    period: capacity, floor, ramp-up, ramp-down.  The first period ramps
    from the initial output.  Returns the (units, periods) output and the
    (units, periods, 2) reserve handle arrays.
    """
    units = portfolio.units
    t_count = portfolio.horizon
    power_min = np.array([unit.power_min for unit in units])
    power_max = np.array([unit.power_max for unit in units])
    if fixed_reserve is None:
        reserve_lo = np.zeros((len(units), 2, t_count))
        reserve_hi = np.full_like(reserve_lo, np.inf)
    else:
        reserve_lo = reserve_hi = np.asarray(fixed_reserve, dtype=float).transpose(0, 2, 1)
    handles = lp.add_variables(
        power_min.size * 3,
        np.concatenate([power_min[:, None], reserve_lo], axis=1).ravel(),
        np.concatenate([power_max[:, None], reserve_hi], axis=1).ravel(),
    ).reshape(len(units), 3, t_count)
    p, u, l = handles[:, 0], handles[:, 1], handles[:, 2]
    cost = np.array([unit.cost for unit in units])
    lp.add_objectives(p, portfolio.production_bias - cost)
    lp.add_objectives(handles[:, 1:], portfolio.reserve_valuation)

    cap, floor, ramp_up, ramp_dn = (
        4 * np.arange(p.size).reshape(p.shape) + k for k in range(4)
    )
    initial = np.array([unit.initial_output for unit in units], dtype=float)
    up_limit = np.repeat([[float(unit.ramp_up)] for unit in units], t_count, axis=1)
    up_limit[:, 0] += initial
    dn_limit = np.repeat([[float(unit.ramp_down)] for unit in units], t_count, axis=1)
    dn_limit[:, 0] -= initial
    lp.add_constraints(
        [
            (cap, p, 1.0),
            (cap, u, 1.0),
            (floor, p, 1.0),
            (floor, l, -1.0),
            (ramp_up, p, 1.0),
            (ramp_up, u, 1.0),
            (ramp_up[:, 1:], p[:, :-1], -1.0),
            (ramp_dn, p, -1.0),
            (ramp_dn, l, 1.0),
            (ramp_dn[:, 1:], p[:, :-1], 1.0),
        ],
        np.tile([LESS_EQUAL, GREATER_EQUAL, LESS_EQUAL, LESS_EQUAL], p.size),
        np.stack([power_max, power_min, up_limit, dn_limit], axis=2).ravel(),
    )
    return p, handles[:, 1:].transpose(0, 2, 1)


def producer_energy_offers(
    position: ProducerPosition, portfolio: ProducerPortfolio, fc: PriceForecast
) -> list[EnergyOffer]:
    """Per-unit supply offers at marginal cost, plus the predicted downward
    imbalance offered at the downward tariff forecast."""
    priced = [(output, unit.cost) for output, unit in zip(position.unit_output, portfolio.units)]
    priced.append((position.imbalance_down, fc.imbalance_down))
    return [
        EnergyOffer(portfolio.name, int(t), SUPPLY, float(volume[t]), float(price[t]))
        for volume, price in priced
        for t in np.flatnonzero(volume > OFFER_TOL)
    ]


def producer_reserve_bids(
    position: ProducerPosition, portfolio: ProducerPortfolio
) -> list[ClassicalReserveBid]:
    """A bid at the unit's cost for every unit, period and direction with
    reserve held back, in that order (upward before downward)."""
    reserve = position.reserve
    return [
        ClassicalReserveBid(
            actor=portfolio.name, period=int(t), direction=(UP, DOWN)[d],
            volume=float(reserve[k, t, d]), activation_price=float(portfolio.units[k].cost[t]),
        )
        for k, t, d in zip(*np.nonzero(reserve > OFFER_TOL))
    ]


def producer_accepted_reserve(position: ProducerPosition, fractions: np.ndarray) -> np.ndarray:
    """(units, periods, 2) reserve the market accepted, given the accepted
    ``fractions`` of the bids :func:`producer_reserve_bids` made from
    ``position``."""
    reserve = position.reserve
    offered = reserve > OFFER_TOL
    accepted = np.zeros_like(reserve)
    accepted[offered] += reserve[offered] * fractions
    return accepted
