"""Producer position optimization and bid construction.

A producer dispatches its units against the energy price forecast, holds
back ramp-feasible headroom as upward/downward reserve (valued at a small
regulated credit so reserve never displaces profitable energy), and may
deviate from its sold position when the imbalance tariff forecast beats
the market.  The same model runs three times per round: free, with the
cleared sale fixed, and with the accepted reserves fixed as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy_market import SUPPLY, EnergyOffer
from ..lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, solve
from ..reserve_market import ClassicalReserveBid
from .forecast import PriceForecast
from .retailer import IMBALANCE_FRICTION, ConfigurationError, Pins, add_pin_penalties

#: regulated credit per MW of reserve capability kept available
DEFAULT_RESERVE_VALUATION = 0.005

#: offers and bids below this volume (MW) are not submitted
OFFER_TOL = 1e-9


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
        if np.any(self.power_min < 0) or np.any(self.power_min > self.power_max):
            raise ConfigurationError(f"unit {self.name!r}: bad power bounds")
        if self.ramp_up < 0 or self.ramp_down < 0:
            raise ConfigurationError(f"unit {self.name!r}: negative ramp limit")
        if len(self.power_max) != len(self.cost):
            raise ConfigurationError(f"unit {self.name!r}: cost series length mismatch")


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
        if self.imbalance_limit < 0:
            raise ConfigurationError(f"producer {self.name!r}: negative imbalance limit")

    @property
    def horizon(self) -> int:
        return self.units[0].power_max.shape[0]


@dataclass
class ProducerPosition:
    sale: np.ndarray
    imbalance_up: np.ndarray
    imbalance_down: np.ndarray
    unit_output: dict[str, np.ndarray]
    reserve_up: dict[str, np.ndarray]
    reserve_down: dict[str, np.ndarray]
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
    fixed_reserve_up: dict[str, np.ndarray] | None = None,
    fixed_reserve_down: dict[str, np.ndarray] | None = None,
    pins: Pins | None = None,
) -> ProducerPosition:
    """Profit-maximal dispatch, reserve and imbalance plan.

    Stages differ only in what is already decided: nothing one day ahead,
    the cleared sale after the energy market, and additionally the accepted
    per-unit reserves after the reserve market.  ``pins`` are the learned
    (minimum sale, upward imbalance, downward imbalance) pins.
    """
    t_count = portfolio.horizon
    lp = LinearProgram(sense="max", name=f"producer-{portfolio.name}")

    p, u, l = {}, {}, {}
    for unit in portfolio.units:
        p[unit.name] = [
            lp.add_variable(f"p_{unit.name}_{t}", unit.power_min[t], unit.power_max[t])
            for t in range(t_count)
        ]
        u[unit.name] = _reserve_variables(lp, unit, "u", fixed_reserve_up, t_count)
        l[unit.name] = _reserve_variables(lp, unit, "l", fixed_reserve_down, t_count)
        for t in range(t_count):
            lp.add_objective(p[unit.name][t], portfolio.production_bias - unit.cost[t])
            lp.add_objective(u[unit.name][t], portfolio.reserve_valuation)
            lp.add_objective(l[unit.name][t], portfolio.reserve_valuation)
            lp.add_constraint(
                [(p[unit.name][t], 1.0), (u[unit.name][t], 1.0)], LESS_EQUAL, unit.power_max[t]
            )
            lp.add_constraint(
                [(p[unit.name][t], 1.0), (l[unit.name][t], -1.0)],
                GREATER_EQUAL,
                unit.power_min[t],
            )
            ramp_terms_up = [(p[unit.name][t], 1.0), (u[unit.name][t], 1.0)]
            ramp_terms_dn = [(p[unit.name][t], -1.0), (l[unit.name][t], 1.0)]
            if t == 0:
                lp.add_constraint(ramp_terms_up, LESS_EQUAL, unit.ramp_up + unit.initial_output)
                lp.add_constraint(ramp_terms_dn, LESS_EQUAL, unit.ramp_down - unit.initial_output)
            else:
                lp.add_constraint(
                    ramp_terms_up + [(p[unit.name][t - 1], -1.0)], LESS_EQUAL, unit.ramp_up
                )
                lp.add_constraint(
                    ramp_terms_dn + [(p[unit.name][t - 1], 1.0)], LESS_EQUAL, unit.ramp_down
                )

    if fixed_sale is not None:
        sale = [
            lp.add_variable(f"P{t}", float(fixed_sale[t]), float(fixed_sale[t]))
            for t in range(t_count)
        ]
    else:
        sale = [lp.add_variable(f"P{t}") for t in range(t_count)]
    # the structural limit bounds the free day-ahead problem; with the sale
    # fixed, the production balance already pins deviations
    i_cap = np.inf if fixed_sale is not None else portfolio.imbalance_limit
    i_up = [lp.add_variable(f"Iup{t}", 0.0, i_cap) for t in range(t_count)]
    i_dn = [lp.add_variable(f"Idn{t}", 0.0, i_cap) for t in range(t_count)]

    for t in range(t_count):
        lp.add_objective(sale[t], fc.energy[t])
        lp.add_objective(i_up[t], -(fc.imbalance_up[t] + IMBALANCE_FRICTION))
        lp.add_objective(i_dn[t], -(fc.imbalance_down[t] + IMBALANCE_FRICTION))
        terms = [(sale[t], 1.0), (i_up[t], 1.0), (i_dn[t], -1.0)]
        terms += [(p[unit.name][t], -1.0) for unit in portfolio.units]
        lp.add_constraint(terms, EQUAL, 0.0)

    # selling below the learned pin risks another price-cap round
    if pins is not None:
        sale_pin, up_pin, down_pin = pins
        add_pin_penalties(lp, "P", sale_pin, -(price_cap + fc.energy), (sale,), floor=True)
        add_pin_penalties(lp, "U", up_pin, -(non_contracted_price - fc.imbalance_up), (i_up,))
        add_pin_penalties(lp, "L", down_pin, -(non_contracted_price - fc.imbalance_down), (i_dn,))

    sol = solve(lp, backend="highs")
    if sol.status != "optimal":
        raise ConfigurationError(
            f"producer {portfolio.name!r} position problem is {sol.status}; "
            "check unit ramps, bounds and fixed quantities"
        )

    return ProducerPosition(
        sale=sol.values(sale),
        imbalance_up=sol.values(i_up),
        imbalance_down=sol.values(i_dn),
        unit_output={unit.name: sol.values(p[unit.name]) for unit in portfolio.units},
        reserve_up={unit.name: sol.values(u[unit.name]) for unit in portfolio.units},
        reserve_down={unit.name: sol.values(l[unit.name]) for unit in portfolio.units},
        objective=sol.objective,
    )


def _reserve_variables(lp, unit, tag, fixed, t_count):
    if fixed is None:
        return [lp.add_variable(f"{tag}_{unit.name}_{t}") for t in range(t_count)]
    series = fixed[unit.name]
    return [
        lp.add_variable(f"{tag}_{unit.name}_{t}", float(series[t]), float(series[t]))
        for t in range(t_count)
    ]


def producer_energy_offers(
    position: ProducerPosition, portfolio: ProducerPortfolio, fc: PriceForecast
) -> list[EnergyOffer]:
    """Per-unit supply offers at marginal cost, plus the predicted downward
    imbalance offered at the downward tariff forecast."""
    offers = []
    for unit in portfolio.units:
        output = position.unit_output[unit.name]
        for t in range(portfolio.horizon):
            if output[t] > OFFER_TOL:
                offers.append(
                    EnergyOffer(
                        actor=portfolio.name,
                        period=t,
                        side=SUPPLY,
                        volume=float(output[t]),
                        price=float(unit.cost[t]),
                    )
                )
    for t in range(portfolio.horizon):
        if position.imbalance_down[t] > OFFER_TOL:
            offers.append(
                EnergyOffer(
                    actor=portfolio.name,
                    period=t,
                    side=SUPPLY,
                    volume=float(position.imbalance_down[t]),
                    price=float(fc.imbalance_down[t]),
                )
            )
    return offers


def producer_reserve_bids(
    position: ProducerPosition, portfolio: ProducerPortfolio
) -> list[tuple[ClassicalReserveBid, str]]:
    """Reserve bids with the unit each one came from, so accepted volumes
    can be pinned back onto that unit afterwards."""
    bids = []
    for unit in portfolio.units:
        for t in range(portfolio.horizon):
            up = position.reserve_up[unit.name][t]
            down = position.reserve_down[unit.name][t]
            if up > OFFER_TOL:
                bids.append(
                    (
                        ClassicalReserveBid(
                            actor=portfolio.name,
                            period=t,
                            direction="up",
                            volume=float(up),
                            activation_price=float(unit.cost[t]),
                        ),
                        unit.name,
                    )
                )
            if down > OFFER_TOL:
                bids.append(
                    (
                        ClassicalReserveBid(
                            actor=portfolio.name,
                            period=t,
                            direction="down",
                            volume=float(down),
                            activation_price=float(unit.cost[t]),
                        ),
                        unit.name,
                    )
                )
    return bids
