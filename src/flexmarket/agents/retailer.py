"""Retailer position optimization, demand offers and band bids.

A retailer buys energy for an inelastic demand plus a set of tank-model
flexible loads, may lean on intentional imbalance when the tariff forecast
makes it attractive, and -- when the reserve market is open to it -- sells
flexibility bands over fixed blocks of periods.  Selling a band of
amplitude F means committing to two extreme consumption scenarios (high
then low, and the mirror) that stay feasible for every load; their energy
links back into the baseline tank state at both ends of each block.

The same model serves both decision stages: pass ``fixed_demand`` (and
``fixed_amplitudes`` when bands were sold) to re-optimize the residual
degrees of freedom after the markets cleared, with the accepted amplitudes
from :func:`retailer_accepted_amplitudes`.  Learned volume pins arrive as
plain per-period arrays; the learning itself belongs to the simulation run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..energy_market import DEMAND, EnergyOffer
from ..lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, solve
from ..reserve_market import ModulationBid
from .forecast import PriceForecast
from .tank import TankLoad


class ConfigurationError(ValueError):
    """Inconsistent portfolio data made an agent problem infeasible."""


#: offers and bids below this volume (MW) are not submitted
OFFER_TOL = 1e-9

#: negligible friction on deviations; breaks the tie toward a clean position
#: when the tariff forecast exactly matches the energy price forecast
IMBALANCE_FRICTION = 1e-6

#: revenue whisper per MW of band; prefers larger bands when the capacity
#: price is zero
AMPLITUDE_BONUS = 1e-6

#: learned pins of one actor, a (3, periods) array (``inf``: no pin); a
#: retailer pins (demand, upward, downward imbalance), a producer (minimum
#: sale, upward, downward imbalance)
Pins = np.ndarray


@dataclass
class RetailerPortfolio:
    name: str
    inelastic: np.ndarray
    loads: list[TankLoad]
    imbalance_limit: float

    def __post_init__(self):
        self.inelastic = np.asarray(self.inelastic, dtype=float)
        if np.any(self.inelastic < 0):
            raise ConfigurationError(f"retailer {self.name!r}: negative inelastic demand")
        t = len(self.inelastic)
        for load in self.loads:
            if load.horizon != t:
                raise ConfigurationError(f"retailer {self.name!r}: load horizon mismatch")
        if not self.imbalance_limit >= 0:
            raise ConfigurationError(f"retailer {self.name!r}: imbalance limit not >= 0")

    @property
    def horizon(self) -> int:
        return len(self.inelastic)


@dataclass(frozen=True)
class RetailerPosition:
    demand: np.ndarray
    imbalance_up: np.ndarray
    imbalance_down: np.ndarray
    # (loads, periods) consumption: the baseline, then the high-first and
    # the low-first scenario, which follow the baseline outside sold windows
    schedules: np.ndarray
    up_schedules: np.ndarray
    down_schedules: np.ndarray
    objective: float
    windows: list[tuple[int, int]] = field(default_factory=list)
    amplitudes: np.ndarray = field(default_factory=lambda: np.zeros(0))


def optimize_retailer(
    portfolio: RetailerPortfolio,
    fc: PriceForecast,
    price_cap: float,
    non_contracted_price: float,
    windows: list[tuple[int, int]] | None = None,
    modulation_price: float = 10.0,
    fixed_demand: np.ndarray | None = None,
    fixed_amplitudes: np.ndarray | None = None,
    pins: Pins | None = None,
) -> RetailerPosition:
    """Cost-minimal retailer position under the current forecasts.

    ``windows`` switches on the flexibility-band machinery: each (start,
    length) block gets an amplitude variable, extreme-scenario schedules
    for every load, and the cross-linked tank-state equations at the block
    boundaries.  ``pins`` are the learned (demand, upward imbalance,
    downward imbalance) pins.
    """
    t_count = portfolio.horizon
    modulating = windows is not None
    windows = list(windows or [])
    _check_windows(windows, t_count)

    lp = LinearProgram(sense="min", name=f"retailer-{portfolio.name}")
    d_vars, e_vars = _tank_variables(lp, portfolio.loads, t_count)

    if fixed_demand is not None:
        demand = lp.add_variables(t_count, fixed_demand, fixed_demand)
    else:
        demand = lp.add_variables(t_count)
    # the structural limit bounds the otherwise open-ended day-ahead problem;
    # with the purchase fixed, the balance equation already pins deviations
    # and the limit would only cut feasibility after deep rationing
    i_cap = np.inf if fixed_demand is not None else portfolio.imbalance_limit
    i_up = lp.add_variables(t_count, 0.0, i_cap)
    i_dn = lp.add_variables(t_count, 0.0, i_cap)

    lp.add_objectives(demand, fc.energy)
    lp.add_objectives(i_up, fc.imbalance_up + IMBALANCE_FRICTION)
    lp.add_objectives(i_dn, fc.imbalance_down + IMBALANCE_FRICTION)
    periods = np.arange(t_count)
    lp.add_constraints(
        [
            (periods, demand, 1.0),
            (periods, i_up, -1.0),
            (periods, i_dn, 1.0),
            (periods, d_vars, -1.0),
        ],
        EQUAL,
        portfolio.inelastic,
    )

    # penalty beyond the learned pins; with bands on, the pinned demand
    # includes the downward imbalance
    if pins is not None:
        demand_pin, up_pin, down_pin = pins
        pinned_demand = (demand, i_dn) if modulating else (demand,)
        add_pin_penalties(lp, demand_pin, price_cap - fc.energy, pinned_demand)
        add_pin_penalties(lp, up_pin, non_contracted_price - fc.imbalance_up, (i_up,))
        add_pin_penalties(lp, down_pin, non_contracted_price - fc.imbalance_down, (i_dn,))

    if modulating:
        amplitude_vars, up_d, dn_d = _modulation_block(
            lp,
            portfolio,
            windows,
            d_vars,
            e_vars,
            modulation_price,
            fixed_amplitudes,
        )

    sol = solve(lp)
    if sol.status != "optimal":
        raise ConfigurationError(
            f"retailer {portfolio.name!r} position problem is {sol.status}; "
            "check tank data and fixed quantities"
        )

    schedules = sol.values(d_vars)
    if modulating:
        amplitudes = sol.values(amplitude_vars)
        up_schedules = _patched(schedules, windows, up_d, sol)
        down_schedules = _patched(schedules, windows, dn_d, sol)
    else:
        amplitudes, up_schedules, down_schedules = np.zeros(0), schedules, schedules
    return RetailerPosition(
        demand=sol.values(demand),
        imbalance_up=sol.values(i_up),
        imbalance_down=sol.values(i_dn),
        schedules=schedules,
        up_schedules=up_schedules,
        down_schedules=down_schedules,
        objective=sol.objective,
        windows=windows,
        amplitudes=amplitudes,
    )


def retailer_demand_offers(
    position: RetailerPosition, portfolio: RetailerPortfolio, price_cap: float
) -> list[EnergyOffer]:
    """The purchase as demand offers at the price cap, one per period."""
    return [
        EnergyOffer(portfolio.name, int(t), DEMAND, float(position.demand[t]), price_cap)
        for t in np.flatnonzero(position.demand > OFFER_TOL)
    ]


def retailer_band_bids(
    position: RetailerPosition, portfolio: RetailerPortfolio, efficiency: float
) -> list[ModulationBid]:
    """One band bid per window with a positive amplitude, in window order,
    free to activate."""
    return [
        ModulationBid(
            actor=portfolio.name, start=start, length=length,
            amplitude=float(amplitude), activation_price=0.0, efficiency=efficiency,
        )
        for (start, length), amplitude in zip(position.windows, position.amplitudes)
        if amplitude > OFFER_TOL
    ]


def retailer_accepted_amplitudes(position: RetailerPosition, fractions: np.ndarray) -> np.ndarray:
    """Per-window amplitude the market accepted, given the accepted
    ``fractions`` of the bids :func:`retailer_band_bids` made from ``position``."""
    offered = position.amplitudes > OFFER_TOL
    accepted = np.zeros(len(position.windows))
    accepted[offered] = position.amplitudes[offered] * fractions
    return accepted


def _check_windows(windows, t_count):
    covered = set()
    for start, length in windows:
        if length < 2 or length % 2 != 0:
            raise ConfigurationError(f"band window length {length} must be even and >= 2")
        if start < 0 or start + length > t_count:
            raise ConfigurationError(f"band window ({start}, {length}) outside horizon")
        span = set(range(start, start + length))
        if covered & span:
            raise ConfigurationError("band windows overlap")
        covered |= span


def _load_series(loads, attr, width):
    """Per-load series ``attr`` stacked into one (loads, width) array."""
    series = np.array([getattr(load, attr) for load in loads], dtype=float)
    return series.reshape(len(loads), width)


def _tank_variables(lp, loads, t_count):
    """Baseline consumption and tank-state variables plus their dynamics.

    Returns (loads, periods) handle arrays ``d`` and ``e``; ``e[i, k - 1]``
    is the state of load ``i`` after period ``k - 1``.
    """
    d_vars, e_vars = [], []
    for load in loads:
        d = lp.add_variables(t_count, load.power_min, load.power_max)
        e = lp.add_variables(t_count, load.energy_min[1:], load.energy_max[1:])
        rate = load.efficiency * load.period_hours
        periods = np.arange(t_count)
        rhs = -load.loss
        rhs[0] += load.energy_start
        # e[k] - rate * d[k] - e[k - 1] == -loss[k], from the start state at k = 0
        terms = [(periods, e, 1.0), (periods, d, -rate), (periods[1:], e[:-1], -1.0)]
        if load.total_min == load.total_max:
            totals = [EQUAL], [load.total_min]
        else:
            totals = [GREATER_EQUAL, LESS_EQUAL], [load.total_min, load.total_max]
        # the energy drawn over the horizon, in the rows after the dynamics
        terms += [(t_count + k, d, load.period_hours) for k in range(len(totals[0]))]
        lp.add_constraints(
            terms,
            np.concatenate([np.full(t_count, EQUAL), totals[0]]),
            np.concatenate([rhs, totals[1]]),
        )
        d_vars.append(d)
        e_vars.append(e)
    shape = (len(loads), t_count)
    return (
        np.array(d_vars, dtype=np.intp).reshape(shape),
        np.array(e_vars, dtype=np.intp).reshape(shape),
    )


def add_pin_penalties(lp, pin, penalty, columns, floor=False):
    """Soft learned pin on the per-period sum of ``columns``.

    Every period with a finite ``pin`` gets a slack variable with objective
    coefficient ``penalty[t]`` that lets the sum pass the pin: above it for
    a cap, below it for a ``floor``.
    """
    pinned = np.flatnonzero(np.isfinite(pin))
    z = lp.add_variables(pinned.size)
    lp.add_objectives(z, penalty[pinned])
    rows = np.arange(pinned.size)
    terms = [(rows, column[pinned], 1.0) for column in columns]
    terms.append((rows, z, 1.0 if floor else -1.0))
    lp.add_constraints(terms, GREATER_EQUAL if floor else LESS_EQUAL, pin[pinned])


def _modulation_block(
    lp,
    portfolio,
    windows,
    d_vars,
    e_vars,
    modulation_price,
    fixed_amplitudes,
):
    """Amplitude variables and the two extreme scenarios of every window.

    Consecutive windows of one length are built as one block.  Returns the
    amplitude handles and, per window, the (loads, length) scenario
    consumption handles of the high-first ("up") and low-first ("down")
    scenarios.
    """
    if fixed_amplitudes is None:
        amplitude_lo, amplitude_hi = np.zeros(len(windows)), np.full(len(windows), np.inf)
    else:
        amplitude_lo = amplitude_hi = np.asarray(fixed_amplitudes, dtype=float)
    amplitude_vars, up_d, dn_d = [], [], []
    first = 0
    for length, run in itertools.groupby(windows, key=lambda window: window[1]):
        starts = np.array([start for start, _ in run])
        block = slice(first, first + len(starts))
        first += len(starts)
        f_vars, s_up, s_dn = _band_windows(
            lp, portfolio.loads, starts, length, d_vars, e_vars,
            amplitude_lo[block], amplitude_hi[block],
        )
        # revenue for the band, plus the bonus for larger bands
        lp.add_objectives(f_vars, -(length * modulation_price + AMPLITUDE_BONUS))
        amplitude_vars.append(f_vars)
        up_d.extend(s_up)
        dn_d.extend(s_dn)
    return np.concatenate(amplitude_vars or [np.zeros(0, dtype=np.intp)]), up_d, dn_d


def _band_windows(lp, loads, starts, length, d_vars, e_vars, amplitude_lo, amplitude_hi):
    """Variables and rows of windows of one ``length`` starting at ``starts``.

    Each window holds its amplitude F, then per scenario ("up", "down") and
    load the consumption over the window and the tank states after all but
    its last period.  The last state is the baseline's, so each scenario
    hands the tank back unchanged.  Its rows are the scenario tank dynamics
    per scenario, load and period, then two amplitude rows per period.
    Returns the amplitude handles and (windows, loads, length) handle
    arrays of the two scenarios' consumption.
    """
    n_windows, (n_loads, t_count) = len(starts), d_vars.shape
    periods = starts[:, None] + np.arange(length)  # (windows, length)

    def per_window(attr, width, columns):
        # (windows, loads, columns) slices of a per-load series
        return _load_series(loads, attr, width)[:, columns].transpose(1, 0, 2)

    inner = periods[:, 1:]
    scenario_lo = np.concatenate(
        [per_window("power_min", t_count, periods), per_window("energy_min", t_count + 1, inner)],
        axis=2,
    )
    scenario_hi = np.concatenate(
        [per_window("power_max", t_count, periods), per_window("energy_max", t_count + 1, inner)],
        axis=2,
    )
    width = 2 * n_loads * (2 * length - 1)
    lower = np.column_stack([amplitude_lo, np.tile(scenario_lo.reshape(n_windows, -1), 2)])
    upper = np.column_stack([amplitude_hi, np.tile(scenario_hi.reshape(n_windows, -1), 2)])
    handles = lp.add_variables(lower.size, lower, upper).reshape(n_windows, 1 + width)
    f_vars = handles[:, 0]
    scenario = handles[:, 1:].reshape(n_windows, 2, n_loads, 2 * length - 1)
    s_d, s_e = scenario[..., :length], scenario[..., length:]

    # tank dynamics of every scenario, load and period
    window_row = (2 * n_loads * length + 2 * length) * np.arange(n_windows)
    dynamics = window_row[:, None, None, None] + np.arange(2 * n_loads * length).reshape(
        2, n_loads, length
    )
    rate = np.array([load.efficiency * load.period_hours for load in loads])
    rhs = np.broadcast_to(-per_window("loss", t_count, periods)[:, None], dynamics.shape).copy()
    linked = starts > 0
    rhs[~linked, ..., 0] += [load.energy_start for load in loads]
    terms = [
        (dynamics[..., :-1], s_e, 1.0),
        (dynamics[..., -1], e_vars[:, starts + length - 1].T[:, None], 1.0),
        (dynamics, s_d, -rate[:, None]),
        (dynamics[..., 1:], s_e, -1.0),
        (dynamics[linked, ..., 0], e_vars[:, starts[linked] - 1].T[:, None], -1.0),
    ]

    # amplitude rows, two per period: the high scenario sits F above the
    # baseline and the low one F below in the first half, roles swapped in
    # the recovery half
    high = window_row[:, None, None] + 2 * n_loads * length + 2 * np.arange(length)
    low = high + 1
    sign = np.where(np.arange(length) < length // 2, -1.0, 1.0)
    s_up, s_dn = s_d[:, 0], s_d[:, 1]
    base = d_vars[:, periods].transpose(1, 0, 2)
    f_column = f_vars[:, None, None]
    terms += [
        (high, f_column, 1.0),
        (high, s_up, sign),
        (high, base, -sign),
        (low, f_column, 1.0),
        (low, base, sign),
        (low, s_dn, -sign),
    ]
    lp.add_constraints(
        terms,
        np.tile(np.repeat([EQUAL, LESS_EQUAL], [dynamics[0].size, 2 * length]), n_windows),
        np.column_stack([rhs.reshape(n_windows, -1), np.zeros((n_windows, 2 * length))]),
    )
    return f_vars, s_up, s_dn


def _patched(schedules, windows, scenario_vars, sol):
    """(loads, periods) scenario schedules, baseline outside windows."""
    out = schedules.copy()
    for (start, length), handles in zip(windows, scenario_vars):
        out[:, start : start + length] = sol.values(handles)
    return out
