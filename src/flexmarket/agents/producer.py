"""Producer position optimization and bid construction.

A producer dispatches its units against the energy price forecast, holds
back ramp-feasible headroom as upward/downward reserve (valued at a small
regulated credit so reserve never displaces profitable energy), and may
deviate from its sold position when the imbalance tariff forecast beats
the market.  :func:`build_producer_model` builds the LP once per run and
:func:`optimize_producer` solves it in each of the three stages of every
round: free, with the cleared sale fixed, and with the accepted reserves
(mapped back onto the units by :func:`.retailer.accepted_volumes`) fixed as
well, each stage under the bounds :func:`.retailer.stage_bounds` makes and
the round's forecast as its costs.

The learned pins are column bounds, so the model keeps one shape for the
whole run.  Each (minimum sale, upward imbalance, downward imbalance) pin
and period has a slot: a slack ``z >= 0`` priced at the pin's penalty and a
tally ``q`` in one row, ``q = sale + z`` for the minimum-sale floor and
``q = imbalance - z`` for a cap.  A pin is ``q``'s lower bound (the floor)
or upper bound (a cap); without one, ``q`` is free and ``z`` fixed at 0, so
the dispatch, sale and imbalances range over what they would without the
slot, at the same profit.

Each solve returns, with the position, the :class:`~..lp.Basis` it ended
on, and starts from one an earlier solve of the same model ended on, or
else from the slack basis (:func:`~..lp.slack_basis`), which spares HiGHS
its presolve.  The producer LP has no dual-degenerate optimum on the
configs of the acceptance criteria, so where the simplex starts changes
the iterations it takes and rounding, not the vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy_market import SUPPLY, OfferBook
from ..lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, Basis, LinearProgram, slack_basis, solve
from ..reserve_market import DOWN, UP, ClassicalBook
from .forecast import PriceForecast
from .retailer import (
    IMBALANCE_FRICTION, OFFER_TOL, ConfigurationError, Pins, stage_bounds,
)

#: regulated credit per MW of reserve capability kept available
DEFAULT_RESERVE_VALUATION = 0.005


@dataclass(frozen=True)
class GenerationUnit:
    name: str
    power_min: np.ndarray
    power_max: np.ndarray
    ramp_up: float
    ramp_down: float
    cost: np.ndarray
    initial_output: float = 0.0

    def __post_init__(self):
        for series in ("power_min", "power_max", "cost"):
            object.__setattr__(self, series, np.asarray(getattr(self, series), dtype=float))
        if not len(self.power_min) == len(self.power_max) == len(self.cost):
            raise ConfigurationError(f"unit {self.name!r}: power or cost series length mismatch")
        # written as "holds" so that NaN fails too
        power = (0 <= self.power_min) & (self.power_min <= self.power_max)
        if not np.all(power & (self.power_max < np.inf)):
            raise ConfigurationError(f"unit {self.name!r}: not 0 <= power_min <= power_max < inf")
        if not np.all(np.abs(self.cost) < np.inf):
            raise ConfigurationError(f"unit {self.name!r}: cost not finite")
        for field in ("initial_output", "ramp_up", "ramp_down"):
            if not 0 <= getattr(self, field) < np.inf:
                raise ConfigurationError(f"unit {self.name!r}: {field} not finite and >= 0")


@dataclass(frozen=True)
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
        if len({unit.power_max.shape[0] for unit in self.units}) != 1:
            raise ConfigurationError(f"producer {self.name!r}: unit horizon mismatch")
        if not self.imbalance_limit >= 0:
            raise ConfigurationError(f"producer {self.name!r}: imbalance limit not >= 0")
        for field in ("reserve_valuation", "production_bias"):
            if not abs(getattr(self, field)) < np.inf:
                raise ConfigurationError(f"producer {self.name!r}: {field} not finite")

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


@dataclass(frozen=True)
class ProducerModel:
    """A producer's position LP under the day-ahead bounds without pins
    (sale free, reserve from 0 up, each deviation within the imbalance
    limit, each slot inactive), the handles of its variables and the
    prices its pin penalties are made of.  Its own objective is the part of
    the costs no forecast moves.  :func:`optimize_producer` solves it under
    each round's costs and pins and each stage's bounds."""

    name: str
    lp: LinearProgram
    sale: np.ndarray
    imbalance_up: np.ndarray
    imbalance_down: np.ndarray
    unit_output: np.ndarray   # (units, periods)
    reserve: np.ndarray       # (units, periods, 2): upward, then downward
    # (3, periods): the slack and the tally of each (minimum sale, upward,
    # downward imbalance) pin slot
    slack: np.ndarray
    tally: np.ndarray
    price_cap: float
    non_contracted_price: float
    # the objective vector of ``lp``, read-only
    fixed_costs: np.ndarray


def build_producer_model(
    portfolio: ProducerPortfolio, price_cap: float, non_contracted_price: float
) -> ProducerModel:
    """The position LP of ``portfolio``, for every round and pin of a run."""
    t_count = portfolio.horizon
    lp = LinearProgram(sense="max", name=f"producer-{portfolio.name}")

    p, reserve = _add_units(lp, portfolio)
    sale = lp.add_variables(t_count)
    i_up = lp.add_variables(t_count, 0.0, portfolio.imbalance_limit)
    i_dn = lp.add_variables(t_count, 0.0, portfolio.imbalance_limit)
    periods = np.arange(t_count)
    lp.add_constraints(
        [(periods, sale, 1.0), (periods, i_up, 1.0), (periods, i_dn, -1.0)]
        + [(periods, p, -1.0)],
        EQUAL,
        np.zeros(t_count),
    )

    # the pin slots, all inactive: each slack fixed at 0, each tally free
    slack = lp.add_variables(3 * t_count, 0.0, 0.0).reshape(3, t_count)
    tally = lp.add_variables(3 * t_count, -np.inf, np.inf).reshape(3, t_count)
    slots = np.arange(3 * t_count).reshape(3, t_count)
    lp.add_constraints(
        [
            (slots, tally, 1.0),
            (slots, np.stack([sale, i_up, i_dn]), -1.0),
            (slots, slack, np.array([[-1.0], [1.0], [1.0]])),
        ],
        EQUAL,
        np.zeros(3 * t_count),
    )
    fixed_costs = lp.objective_vector()
    fixed_costs.flags.writeable = False
    return ProducerModel(
        portfolio.name, lp, sale, i_up, i_dn, p, reserve, slack, tally,
        price_cap, non_contracted_price, fixed_costs,
    )


def _costs(model: ProducerModel, fc: PriceForecast) -> np.ndarray:
    """The objective vector of ``model`` against ``fc``: its own, with the
    sale, the imbalances and every pin slack priced by the forecast."""
    costs = model.fixed_costs.copy()
    costs[model.sale] = fc.energy
    costs[model.imbalance_up] = -(fc.imbalance_up + IMBALANCE_FRICTION)
    costs[model.imbalance_down] = -(fc.imbalance_down + IMBALANCE_FRICTION)
    # selling below the learned pin risks another price-cap round
    costs[model.slack] = [
        -(model.price_cap + fc.energy),
        -(model.non_contracted_price - fc.imbalance_up),
        -(model.non_contracted_price - fc.imbalance_down),
    ]
    return costs


def optimize_producer(
    model: ProducerModel,
    fc: PriceForecast,
    pins: Pins | None = None,
    fixed_sale: np.ndarray | None = None,
    fixed_reserve: np.ndarray | None = None,
    basis: Basis | None = None,
) -> tuple[ProducerPosition, Basis]:
    """Profit-maximal dispatch, reserve and imbalance plan of ``model``
    against ``fc`` under the learned ``pins``, and the basis its solve ended
    on.

    Stages differ only in what is already decided: nothing one day ahead,
    the cleared sale after the energy market, and additionally the accepted
    ``(units, periods, 2)`` reserve after the reserve market.  ``model`` is
    left as it was, so every stage and round may share it.  The solve
    starts from ``basis`` if one is given, else from the slack basis.
    """
    fixed = [(model.reserve, fixed_reserve, "fixed_reserve"), (model.sale, fixed_sale, "fixed_sale")]
    lower, upper = stage_bounds(model, fixed, lift=fixed_sale is not None)
    if pins is not None:
        pins = np.asarray(pins, dtype=float)
        pinned = np.isfinite(pins)
        lower[model.tally[0]] = np.where(pinned[0], pins[0], -np.inf)
        upper[model.tally[1:]] = np.where(pinned[1:], pins[1:], np.inf)
        upper[model.slack] = np.where(pinned, np.inf, 0.0)
    if basis is None:
        basis = slack_basis(model.lp, lower, upper)
    sol = solve(model.lp, lower, upper, basis=basis, costs=_costs(model, fc))
    if sol.status != "optimal":
        raise ConfigurationError(
            f"producer {model.name!r} position problem is {sol.status}; "
            "check unit ramps, bounds and fixed quantities"
        )

    position = ProducerPosition(
        sale=sol.values(model.sale),
        imbalance_up=sol.values(model.imbalance_up),
        imbalance_down=sol.values(model.imbalance_down),
        unit_output=sol.values(model.unit_output),
        reserve=sol.values(model.reserve),
        objective=sol.objective,
    )
    return position, sol.basis


def _add_units(lp, portfolio):
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
    reserve_lo = np.zeros((len(units), 2, t_count))
    reserve_hi = np.full_like(reserve_lo, np.inf)
    handles = lp.add_variables(
        power_min.size * 3,
        np.concatenate([power_min[:, None], reserve_lo], axis=1).ravel(),
        np.concatenate([power_max[:, None], reserve_hi], axis=1).ravel(),
    ).reshape(len(units), 3, t_count)
    p, u, l = handles[:, 0], handles[:, 1], handles[:, 2]
    lp.add_objectives(p, portfolio.production_bias - _unit_costs(portfolio))
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
) -> OfferBook:
    """Per-unit supply offers at marginal cost, unit by unit and period by
    period, then the predicted downward imbalance offered at the downward
    tariff forecast."""
    volume = np.vstack([position.unit_output, position.imbalance_down])
    price = np.vstack([_unit_costs(portfolio), fc.imbalance_down])
    row, period = np.nonzero(volume > OFFER_TOL)
    return OfferBook(
        np.full(len(row), portfolio.name),
        period,
        np.full(len(row), SUPPLY),
        volume[row, period],
        price[row, period],
    )


def producer_reserve_bids(position: ProducerPosition, portfolio: ProducerPortfolio) -> ClassicalBook:
    """A bid at the unit's cost for every unit, period and direction with
    reserve held back, in that order (upward before downward)."""
    unit, period, direction = np.nonzero(position.reserve > OFFER_TOL)
    return ClassicalBook(
        np.full(len(unit), portfolio.name),
        period,
        np.array([UP, DOWN])[direction],
        position.reserve[unit, period, direction],
        _unit_costs(portfolio)[unit, period],
    )


def _unit_costs(portfolio: ProducerPortfolio) -> np.ndarray:
    """(units, periods) marginal cost."""
    return np.array([unit.cost for unit in portfolio.units])
