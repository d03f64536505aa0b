"""Retailer position optimization.

A retailer buys energy for an inelastic demand plus a set of tank-model
flexible loads, may lean on intentional imbalance when the tariff forecast
makes it attractive, and -- when the reserve market is open to it -- sells
flexibility bands over fixed blocks of periods.  Selling a band of
amplitude F means committing to two extreme consumption scenarios (high
then low, and the mirror) that stay feasible for every load; their energy
links back into the baseline tank state at both ends of each block.

The same model serves both decision stages: pass ``fixed_demand`` (and
``fixed_amplitudes`` when bands were sold) to re-optimize the residual
degrees of freedom after the markets cleared.  Learned volume pins arrive as
plain per-period arrays; the learning itself belongs to the simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, solve
from .forecast import PriceForecast
from .tank import TankLoad


class ConfigurationError(ValueError):
    """Inconsistent portfolio data made an agent problem infeasible."""


#: negligible friction on deviations; breaks the tie toward a clean position
#: when the tariff forecast exactly matches the energy price forecast
IMBALANCE_FRICTION = 1e-6

#: learned pins of one actor, one value per period each (``inf``: no pin);
#: a retailer pins (demand, upward, downward imbalance), a producer
#: (minimum sale, upward, downward imbalance)
Pins = tuple[np.ndarray, np.ndarray, np.ndarray]


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
        if self.imbalance_limit < 0:
            raise ConfigurationError(f"retailer {self.name!r}: negative imbalance limit")

    @property
    def horizon(self) -> int:
        return len(self.inelastic)


@dataclass
class RetailerPosition:
    demand: np.ndarray
    imbalance_up: np.ndarray
    imbalance_down: np.ndarray
    schedules: list[np.ndarray]
    objective: float
    windows: list[tuple[int, int]] = field(default_factory=list)
    amplitudes: np.ndarray = field(default_factory=lambda: np.zeros(0))
    up_schedules: list[np.ndarray] = field(default_factory=list)
    down_schedules: list[np.ndarray] = field(default_factory=list)
    up_consumption: np.ndarray | None = None
    down_consumption: np.ndarray | None = None


def optimize_retailer(
    portfolio: RetailerPortfolio,
    fc: PriceForecast,
    price_cap: float,
    non_contracted_price: float,
    windows: list[tuple[int, int]] | None = None,
    modulation_price: float = 10.0,
    amplitude_bonus: float = 1e-6,
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
    d_vars, e_vars = _tank_variables(lp, portfolio.loads, "")

    if fixed_demand is not None:
        demand = [
            lp.add_variable(f"D{t}", float(fixed_demand[t]), float(fixed_demand[t]))
            for t in range(t_count)
        ]
    else:
        demand = [lp.add_variable(f"D{t}") for t in range(t_count)]
    # the structural limit bounds the otherwise open-ended day-ahead problem;
    # with the purchase fixed, the balance equation already pins deviations
    # and the limit would only cut feasibility after deep rationing
    i_cap = np.inf if fixed_demand is not None else portfolio.imbalance_limit
    i_up = [lp.add_variable(f"Iup{t}", 0.0, i_cap) for t in range(t_count)]
    i_dn = [lp.add_variable(f"Idn{t}", 0.0, i_cap) for t in range(t_count)]

    for t in range(t_count):
        lp.add_objective(demand[t], fc.energy[t])
        lp.add_objective(i_up[t], fc.imbalance_up[t] + IMBALANCE_FRICTION)
        lp.add_objective(i_dn[t], fc.imbalance_down[t] + IMBALANCE_FRICTION)
        terms = [(demand[t], 1.0), (i_up[t], -1.0), (i_dn[t], 1.0)]
        terms += [(d_vars[i][t], -1.0) for i in range(len(portfolio.loads))]
        lp.add_constraint(terms, EQUAL, portfolio.inelastic[t])

    # penalty beyond the learned pins; with bands on, the pinned demand
    # includes the downward imbalance
    if pins is not None:
        demand_pin, up_pin, down_pin = pins
        pinned_demand = (demand, i_dn) if modulating else (demand,)
        add_pin_penalties(lp, "D", demand_pin, price_cap - fc.energy, pinned_demand)
        add_pin_penalties(lp, "U", up_pin, non_contracted_price - fc.imbalance_up, (i_up,))
        add_pin_penalties(lp, "L", down_pin, non_contracted_price - fc.imbalance_down, (i_dn,))

    amplitude_vars: list[int] = []
    up_d: list[dict[int, int]] = [dict() for _ in portfolio.loads]
    dn_d: list[dict[int, int]] = [dict() for _ in portfolio.loads]
    if modulating:
        amplitude_vars = _modulation_block(
            lp,
            portfolio,
            windows,
            d_vars,
            e_vars,
            up_d,
            dn_d,
            modulation_price,
            amplitude_bonus,
            fixed_amplitudes,
        )

    sol = solve(lp, backend="highs")
    if sol.status != "optimal":
        raise ConfigurationError(
            f"retailer {portfolio.name!r} position problem is {sol.status}; "
            "check tank data and fixed quantities"
        )

    schedules = [sol.values(d_vars[i]) for i in range(len(portfolio.loads))]
    position = RetailerPosition(
        demand=sol.values(demand),
        imbalance_up=sol.values(i_up),
        imbalance_down=sol.values(i_dn),
        schedules=schedules,
        objective=sol.objective,
        windows=windows,
    )
    if modulating:
        position.amplitudes = sol.values(amplitude_vars) if amplitude_vars else np.zeros(0)
        position.up_schedules = _patched(schedules, up_d, sol)
        position.down_schedules = _patched(schedules, dn_d, sol)
        position.up_consumption = portfolio.inelastic + (
            np.sum(position.up_schedules, axis=0) if position.up_schedules else 0.0
        )
        position.down_consumption = portfolio.inelastic + (
            np.sum(position.down_schedules, axis=0) if position.down_schedules else 0.0
        )
    return position


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


def _tank_variables(lp, loads, tag):
    """Baseline consumption and tank-state variables plus their dynamics."""
    d_vars, e_vars = [], []
    for i, load in enumerate(loads):
        t_count = load.horizon
        d_i = [
            lp.add_variable(f"d{tag}_{i}_{t}", load.power_min[t], load.power_max[t])
            for t in range(t_count)
        ]
        e_i = {
            k: lp.add_variable(f"e{tag}_{i}_{k}", load.energy_min[k], load.energy_max[k])
            for k in range(1, t_count + 1)
        }
        rate = load.efficiency * load.period_hours
        for k in range(1, t_count + 1):
            terms = [(e_i[k], 1.0), (d_i[k - 1], -rate)]
            rhs = -load.loss[k - 1]
            if k == 1:
                rhs += load.energy_start
            else:
                terms.append((e_i[k - 1], -1.0))
            lp.add_constraint(terms, EQUAL, rhs)
        total = [(v, load.period_hours) for v in d_i]
        if load.total_min == load.total_max:
            lp.add_constraint(total, EQUAL, load.total_min)
        else:
            lp.add_constraint(total, GREATER_EQUAL, load.total_min)
            lp.add_constraint(total, LESS_EQUAL, load.total_max)
        d_vars.append(d_i)
        e_vars.append(e_i)
    return d_vars, e_vars


def add_pin_penalties(lp, tag, pin, penalty, columns, floor=False):
    """Soft learned pin on the per-period sum of ``columns``.

    Every period with a finite ``pin`` gets a slack ``z{tag}{t}`` with
    objective coefficient ``penalty[t]`` that lets the sum pass the pin:
    above it for a cap, below it for a ``floor``.
    """
    for t in np.flatnonzero(np.isfinite(pin)):
        z = lp.add_variable(f"z{tag}{t}")
        lp.add_objective(z, penalty[t])
        terms = [(column[t], 1.0) for column in columns]
        if floor:
            lp.add_constraint(terms + [(z, 1.0)], GREATER_EQUAL, pin[t])
        else:
            lp.add_constraint(terms + [(z, -1.0)], LESS_EQUAL, pin[t])


def _modulation_block(
    lp,
    portfolio,
    windows,
    d_vars,
    e_vars,
    up_d,
    dn_d,
    modulation_price,
    amplitude_bonus,
    fixed_amplitudes,
):
    amplitude_vars = []
    for w, (start, length) in enumerate(windows):
        if fixed_amplitudes is not None:
            fixed = float(fixed_amplitudes[w])
            f_var = lp.add_variable(f"F{w}", fixed, fixed)
        else:
            f_var = lp.add_variable(f"F{w}")
        # revenue for the band, plus a whisper to prefer larger bands when
        # the capacity price is zero
        lp.add_objective(f_var, -(length * modulation_price + amplitude_bonus))
        amplitude_vars.append(f_var)

        scenario_vars = []
        for direction, store in (("up", up_d), ("down", dn_d)):
            s_d = _scenario_schedule(
                lp, portfolio.loads, d_vars, e_vars, start, length, w, direction
            )
            for i, sched in enumerate(s_d):
                store[i].update(sched)
            scenario_vars.append(s_d)
        s_up, s_dn = scenario_vars

        half = length // 2
        for t in range(start, start + length):
            first_half = t - start < half
            up_minus_base = [(s_up[i][t], 1.0) for i in range(len(portfolio.loads))]
            up_minus_base += [(d_vars[i][t], -1.0) for i in range(len(portfolio.loads))]
            base_minus_dn = [(d_vars[i][t], 1.0) for i in range(len(portfolio.loads))]
            base_minus_dn += [(s_dn[i][t], -1.0) for i in range(len(portfolio.loads))]
            if first_half:
                # high scenario sits above the baseline, low one below
                lp.add_constraint([(f_var, 1.0)] + _negate(up_minus_base), LESS_EQUAL, 0.0)
                lp.add_constraint([(f_var, 1.0)] + _negate(base_minus_dn), LESS_EQUAL, 0.0)
            else:
                # recovery half: the roles swap
                lp.add_constraint([(f_var, 1.0)] + up_minus_base, LESS_EQUAL, 0.0)
                lp.add_constraint([(f_var, 1.0)] + base_minus_dn, LESS_EQUAL, 0.0)
    return amplitude_vars


def _negate(terms):
    return [(v, -c) for v, c in terms]


def _scenario_schedule(lp, loads, d_vars, e_vars, start, length, w, direction):
    """Extreme-scenario consumption for one band window, linked to the
    baseline tank state at both boundaries."""
    s_d = []
    for i, load in enumerate(loads):
        rate = load.efficiency * load.period_hours
        d_i = {
            t: lp.add_variable(
                f"{direction}d{w}_{i}_{t}", load.power_min[t], load.power_max[t]
            )
            for t in range(start, start + length)
        }
        e_i = {
            k: lp.add_variable(
                f"{direction}e{w}_{i}_{k}", load.energy_min[k], load.energy_max[k]
            )
            for k in range(start + 1, start + length)
        }
        for t in range(start, start + length):
            final = t == start + length - 1
            state = e_vars[i][t + 1] if final else e_i[t + 1]
            terms = [(state, 1.0), (d_i[t], -rate)]
            rhs = -load.loss[t]
            if t == start:
                if start == 0:
                    rhs += load.energy_start
                else:
                    terms.append((e_vars[i][start], -1.0))
            else:
                terms.append((e_i[t], -1.0))
            lp.add_constraint(terms, EQUAL, rhs)
        s_d.append(d_i)
    return s_d


def _patched(schedules, scenario_vars, sol):
    """Scenario schedules as full-horizon arrays, baseline outside windows."""
    out = []
    for base, per_load in zip(schedules, scenario_vars):
        full = base.copy()
        for t, var in per_load.items():
            full[t] = sol.value(var)
        out.append(full)
    return out
