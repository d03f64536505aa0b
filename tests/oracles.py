"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's solution paths: LPs are checked by
enumerating basic solutions, auctions by sweeping every breakpoint price,
and agent schedules by grid search.  Keep them dumb.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from flexmarket.agents import TankLoad
from flexmarket.lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, _joined


def enumerate_lp_optimum(lp: LinearProgram, feas_tol: float = 1e-9):
    """Optimal objective of ``lp`` by enumerating candidate vertices.

    Requires every variable to carry finite bounds so the feasible region is
    a polytope (then an optimum, if any, sits on a vertex).  Returns
    ``("optimal", value)`` or ``("infeasible", nan)``.
    """
    n = lp.n_variables
    lower = np.asarray(lp.lower)
    upper = np.asarray(lp.upper)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("enumeration oracle needs a bounded box")

    a, rel, b = lp.dense_rows()
    c = lp.objective_vector()

    eq_rows = [i for i, r in enumerate(rel) if r == EQUAL]
    ineq_rows = [i for i, r in enumerate(rel) if r != EQUAL]

    # pool of single-row equations that can be active at a vertex
    pool_a = [a[i] for i in ineq_rows]
    pool_b = [b[i] for i in ineq_rows]
    for j in range(n):
        row = np.zeros(n)
        row[j] = 1.0
        pool_a.append(row.copy())
        pool_b.append(lower[j])
        pool_a.append(row)
        pool_b.append(upper[j])
    pool_a = np.asarray(pool_a)
    pool_b = np.asarray(pool_b)

    fixed_a = a[eq_rows] if eq_rows else np.zeros((0, n))
    fixed_b = b[eq_rows] if eq_rows else np.zeros(0)
    k = n - len(eq_rows)
    if k < 0:
        return "infeasible", math.nan

    combos = list(itertools.combinations(range(len(pool_a)), k))
    if not combos:
        combos = [()]
    systems = np.stack(
        [np.vstack([fixed_a, pool_a[list(s)]]) for s in combos]
    )
    rhs = np.stack([np.concatenate([fixed_b, pool_b[list(s)]]) for s in combos])

    dets = np.linalg.det(systems)
    usable = np.abs(dets) > 1e-9
    if not usable.any():
        return "infeasible", math.nan
    points = np.linalg.solve(systems[usable], rhs[usable][..., None])[..., 0]

    in_box = np.all(points >= lower - feas_tol, axis=1) & np.all(
        points <= upper + feas_tol, axis=1
    )
    lhs = points @ a.T
    ok = in_box
    for i, r in enumerate(rel):
        if r == LESS_EQUAL:
            ok &= lhs[:, i] <= b[i] + feas_tol * max(1.0, abs(b[i]))
        elif r == GREATER_EQUAL:
            ok &= lhs[:, i] >= b[i] - feas_tol * max(1.0, abs(b[i]))
        else:
            ok &= np.abs(lhs[:, i] - b[i]) <= feas_tol * max(1.0, abs(b[i]))
    if not ok.any():
        return "infeasible", math.nan

    values = points[ok] @ c
    best = values.min() if lp.sense == "min" else values.max()
    return "optimal", float(best)


def sparse_rows(lp: LinearProgram):
    """(A, relations, b) of ``lp``: A as a CSR array straight from the
    model's (row, column, coefficient) triplets, with repeated terms summed
    and cancelled ones dropped; ``relations`` is an array of relation
    strings."""
    from scipy.sparse import csr_array

    rows, columns, coefficients = _joined(lp._terms)
    matrix = csr_array((coefficients, (rows, columns)), shape=(lp.n_constraints, lp.n_variables))
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    relations, rhs = _joined(lp._rows)
    return matrix, relations, rhs


def dual_degenerate(lp: LinearProgram, lower, upper, costs=None, rel_tol: float = 1e-9) -> bool:
    """Whether the optimum of ``lp`` under the variable bounds ``lower`` and
    ``upper`` and the objective vector ``costs`` (the model's own when
    None) is dual-degenerate: whether a nonbasic column or row that is free
    to move (its bounds differ) has a reduced cost or dual of at most
    ``rel_tol * max|c|``, so that the optimal face may be more than one
    vertex.  Solved on a HiGHS instance of its own, with the rows in the
    model's own order, from scratch."""
    from scipy.optimize._highspy import _core as core

    matrix, relations, rhs = sparse_rows(lp)
    matrix = matrix.tocsc()
    matrix.sort_indices()
    row_lower = np.where(relations == LESS_EQUAL, -math.inf, rhs)
    row_upper = np.where(relations == GREATER_EQUAL, math.inf, rhs)
    c = lp.objective_vector() if costs is None else np.asarray(costs, float)
    highs = core._Highs()
    options = core.HighsOptions()
    options.output_flag = False
    highs.passOptions(options)
    highs.passModel(
        lp.n_variables, lp.n_constraints, matrix.nnz, int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMaximize if lp.sense == "max" else core.ObjSense.kMinimize), 0.0,
        c, np.asarray(lower, float), np.asarray(upper, float), row_lower, row_upper,
        matrix.indptr.astype(np.int32), matrix.indices.astype(np.int32), matrix.data,
        np.zeros(lp.n_variables, np.int32),
    )
    highs.run()
    assert highs.getModelStatus() == core.HighsModelStatus.kOptimal, lp.name
    basis, solution = highs.getBasis(), highs.getSolution()
    tol = rel_tol * np.max(np.abs(c), initial=0.0)

    def degenerate(status, dual, lo, hi):
        nonbasic = np.array([s != core.HighsBasisStatus.kBasic for s in status], bool)
        return np.any(nonbasic & (lo < hi) & (np.abs(np.asarray(dual)) <= tol))

    return bool(
        degenerate(basis.col_status, solution.col_dual, lower, upper)
        or degenerate(basis.row_status, solution.row_dual, row_lower, row_upper)
    )


def row_form_producer_model(portfolio, fc, price_cap: float, non_contracted_price: float, pins):
    """A producer's position LP with its learned ``pins`` as rows: for each
    finite pin only, a slack column priced as the pin slot's slack is and a
    row ``sale + z >= pin`` (the minimum sale) or ``imbalance - z <= pin``
    (a cap).  The unit blocks and the balance rows are the package's.
    Returns a namespace with the model (``lp``) and the handles the
    producer's stage bounds read."""
    from types import SimpleNamespace

    from flexmarket.agents.producer import _add_units
    from flexmarket.agents.retailer import IMBALANCE_FRICTION

    t_count = portfolio.horizon
    lp = LinearProgram(sense="max", name=f"row-form-{portfolio.name}")
    p, reserve = _add_units(lp, portfolio)
    sale = lp.add_variables(t_count)
    i_up = lp.add_variables(t_count, 0.0, portfolio.imbalance_limit)
    i_dn = lp.add_variables(t_count, 0.0, portfolio.imbalance_limit)
    lp.add_objectives(sale, fc.energy)
    lp.add_objectives(i_up, -(fc.imbalance_up + IMBALANCE_FRICTION))
    lp.add_objectives(i_dn, -(fc.imbalance_down + IMBALANCE_FRICTION))
    periods = np.arange(t_count)
    lp.add_constraints(
        [(periods, sale, 1.0), (periods, i_up, 1.0), (periods, i_dn, -1.0), (periods, p, -1.0)],
        EQUAL,
        np.zeros(t_count),
    )
    kinds = (
        (sale, -(price_cap + fc.energy), GREATER_EQUAL, 1.0),
        (i_up, -(non_contracted_price - fc.imbalance_up), LESS_EQUAL, -1.0),
        (i_dn, -(non_contracted_price - fc.imbalance_down), LESS_EQUAL, -1.0),
    )
    for pin, (column, penalty, relation, sign) in zip(np.asarray(pins, float), kinds):
        pinned = np.flatnonzero(np.isfinite(pin))
        z = lp.add_variables(pinned.size)
        lp.add_objectives(z, penalty[pinned])
        rows = np.arange(pinned.size)
        lp.add_constraints(
            [(rows, column[pinned], 1.0), (rows, z, sign)], relation, pin[pinned]
        )
    return SimpleNamespace(
        lp=lp, sale=sale, imbalance_up=i_up, imbalance_down=i_dn, unit_output=p, reserve=reserve
    )


def per_load_retailer_model(
    portfolio, fc, price_cap: float, non_contracted_price: float, windows, modulation_price, pins
):
    """A retailer's position LP with a tank per load, twin loads included:
    every load gets its own consumption, state and band-scenario columns
    and its own dynamics rows, so the LP is free to split a schedule among
    twins.  The tank, band and pin blocks are the package's.  Returns a
    namespace with the model (``lp``), the handles the retailer's stage
    bounds read and the (3, loads, periods) scenario handles."""
    from types import SimpleNamespace

    from flexmarket.agents.retailer import (
        IMBALANCE_FRICTION,
        _modulation_block,
        _tank_variables,
        add_pin_penalties,
    )

    t_count = portfolio.horizon
    lp = LinearProgram(sense="min", name=f"per-load-{portfolio.name}")
    d_vars, e_vars = _tank_variables(lp, portfolio.loads, t_count)
    demand = lp.add_variables(t_count)
    i_up = lp.add_variables(t_count, 0.0, portfolio.imbalance_limit)
    i_dn = lp.add_variables(t_count, 0.0, portfolio.imbalance_limit)
    lp.add_objectives(demand, fc.energy)
    lp.add_objectives(i_up, fc.imbalance_up + IMBALANCE_FRICTION)
    lp.add_objectives(i_dn, fc.imbalance_down + IMBALANCE_FRICTION)
    periods = np.arange(t_count)
    # purchase - up + down deviation == inelastic + the sum of every load
    lp.add_constraints(
        [(periods, demand, 1.0), (periods, i_up, -1.0), (periods, i_dn, 1.0)]
        + [(periods, d, -1.0) for d in d_vars],
        EQUAL,
        portfolio.inelastic,
    )
    demand_pin, up_pin, down_pin = pins
    add_pin_penalties(lp, demand_pin, price_cap - fc.energy, (demand, i_dn) if windows else (demand,))
    add_pin_penalties(lp, up_pin, non_contracted_price - fc.imbalance_up, (i_up,))
    add_pin_penalties(lp, down_pin, non_contracted_price - fc.imbalance_down, (i_dn,))
    amplitudes, scenarios = _modulation_block(
        lp, portfolio.loads, windows, d_vars, e_vars, modulation_price
    )
    return SimpleNamespace(
        lp=lp, demand=demand, imbalance_up=i_up, imbalance_down=i_dn, amplitudes=amplitudes,
        scenarios=scenarios,
    )


def random_box_lp(rng: np.random.Generator, max_vars: int = 6, max_rows: int = 6):
    """A random LP over a finite box, mixing relation kinds and densities."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    lp = LinearProgram(sense=rng.choice(["min", "max"]))
    lower = rng.uniform(-5.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 8.0, size=n)
    x = lp.add_variables(n, lower, upper)
    lp.add_objectives(x, rng.uniform(-10.0, 10.0, size=n))
    for _ in range(m):
        coefs = rng.uniform(-3.0, 3.0, size=n)
        coefs[rng.random(n) < 0.3] = 0.0
        if not np.any(coefs):
            coefs[int(rng.integers(0, n))] = 1.0
        relation = rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL], p=[0.45, 0.45, 0.10])
        # anchor the rhs near an interior point so instances are usually,
        # but not always, feasible
        anchor = coefs @ rng.uniform(lower, upper)
        rhs = float(anchor + rng.uniform(-2.0, 2.0))
        lp.add_constraints([(0, x, coefs)], relation, [rhs])
    return lp


def reference_forecast(energy_history, tariff_up_history, tariff_down_history, config):
    """(energy, upward tariff, downward tariff) forecasts computed one price
    series at a time, each with its own extreme mask, forward fill and
    weighted mean, as the simulator forecast them before it stacked the
    three series into one history."""
    periods = config.periods
    if not energy_history:
        return (
            np.full(periods, config.energy_seed_price),
            np.full(periods, config.tariff_seed_price),
            np.full(periods, config.tariff_seed_price),
        )

    def tariff_extreme(tariff):
        return (tariff <= 1e-9) | (tariff >= config.non_contracted_price - 1e-9)

    def mean(history, invalid, seed):
        rounds = history.shape[0]
        replaced = np.empty_like(history)
        usable = np.zeros_like(invalid, dtype=bool)
        last = np.full(periods, np.nan)
        have = np.zeros(periods, dtype=bool)
        for r in range(rounds):
            good = ~invalid[r]
            last = np.where(good, history[r], last)
            have = have | good
            replaced[r] = last
            usable[r] = have
        start = max(0, rounds - config.forecast_window)
        out = np.full(periods, seed)
        weights = config.forecast_alpha ** np.arange(rounds - start - 1, -1, -1)
        for t in range(periods):
            mask = usable[start:, t]
            if not mask.any():
                continue
            w = weights[mask]
            out[t] = float(w @ replaced[start:, t][mask] / w.sum())
        return out

    energy = np.vstack(energy_history)
    up = np.vstack(tariff_up_history)
    down = np.vstack(tariff_down_history)
    tariff_seed, fallback = config.tariff_seed_price, config.non_contracted_price
    return (
        np.clip(
            mean(energy, energy >= config.price_cap - 1e-9, config.energy_seed_price),
            0.0,
            config.price_cap,
        ),
        np.clip(mean(up, tariff_extreme(up), tariff_seed), 0.0, fallback),
        np.clip(mean(down, tariff_extreme(down), tariff_seed), 0.0, fallback),
    )


def sweep_auction_oracle(sup, dem, price_cap):
    """Clearing by exhaustive sweep of every breakpoint price.

    ``sup``/``dem`` are (price, volume) pairs.  Returns (mcp, traded volume).
    A price is admissible only when no demand strictly above it goes
    unserved; among admissible prices the sweep keeps those trading maximal
    volume and returns the lowest.
    """
    prices = sorted({0.0, price_cap} | {p for p, _ in sup} | {p for p, _ in dem})
    best = None
    for pi in prices:
        s_at = sum(v for p, v in sup if p <= pi)
        d_strict = sum(v for p, v in dem if p > pi)
        if d_strict > s_at + 1e-12:
            continue
        d_at = sum(v for p, v in dem if p >= pi)
        volume = min(s_at, d_at)
        if best is None or volume > best[1] + 1e-12:
            best = (pi, volume)
    assert best is not None
    return best


def reference_clear(offers, period_count, price_cap):
    """``(price, traded, fractions, cleared_supply, cleared_demand)`` of the
    energy auction, cleared period by period: every candidate price of a
    period is tried in ascending order with fresh ``np.sum`` calls, and each offer's cleared MW
    is added to its actor's series one offer at a time.  ``offers`` is an
    ``OfferBook``; validation is left out."""
    price = np.zeros(period_count)
    traded = np.zeros(period_count)
    fractions = np.zeros(len(offers))
    by_period = [[] for _ in range(period_count)]
    for k, t in enumerate(offers.period):
        by_period[int(t)].append(k)
    for t in range(period_count):
        sup = [k for k in by_period[t] if offers.side[k] == "supply"]
        dem = [k for k in by_period[t] if offers.side[k] == "demand"]
        if not sup and not dem:
            continue
        mcp, volume = _reference_clear_period(
            offers.price[sup], offers.volume[sup], offers.price[dem], offers.volume[dem], price_cap
        )
        price[t], traded[t] = mcp, volume
        _reference_fractions(offers, sup, mcp, volume, fractions, is_supply=True)
        _reference_fractions(offers, dem, mcp, volume, fractions, is_supply=False)
    cleared = {"supply": {}, "demand": {}}
    for k in range(len(offers)):
        series = cleared[str(offers.side[k])].setdefault(str(offers.actor[k]), np.zeros(period_count))
        series[int(offers.period[k])] += fractions[k] * offers.volume[k]
    return price, traded, fractions, cleared["supply"], cleared["demand"]


def _reference_clear_period(sup_price, sup_vol, dem_price, dem_vol, price_cap):
    """Lowest stable price and the volume exchanged there."""
    grid = np.unique(np.concatenate([[0.0, price_cap], sup_price, dem_price]))
    for pi in grid:
        supply_at = sup_vol[sup_price <= pi].sum()
        demand_above = dem_vol[dem_price > pi].sum()
        if demand_above <= supply_at + 1e-12:
            demand_at = dem_vol[dem_price >= pi].sum()
            return float(pi), float(min(supply_at, demand_at))
    raise AssertionError("no stable clearing price found")


def _reference_fractions(offers, ids, mcp, volume, fractions, is_supply):
    if not ids:
        return
    prices = offers.price[ids]
    vols = offers.volume[ids]
    strict = prices < mcp if is_supply else prices > mcp
    marginal = prices == mcp
    fill = volume - vols[strict].sum()
    at_volume = vols[marginal].sum()
    share = min(1.0, max(0.0, fill / at_volume)) if at_volume > 0 else 0.0
    for k, is_strict, is_marginal in zip(ids, strict, marginal):
        fractions[k] = 1.0 if is_strict else (share if is_marginal else 0.0)


def reference_pro_rata(fraction, keys, volume):
    """Tied-bid sharing with the groups found by ``np.unique`` over the rows
    of the (bids, key fields) array ``keys``."""
    _, group, size = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    total = np.bincount(group, volume, len(size))
    mean = np.bincount(group, fraction, len(size)) / size
    np.divide(np.bincount(group, volume * fraction, len(size)), total, out=mean, where=total > 0)
    return np.where(size[group] > 1, mean[group], fraction)


def reference_coverage(load, baseline, up, down, samples, seed):
    """``(draws, failures, first_failure)`` of the band coverage check, one
    sample at a time: each row is drawn by scalar ``rng.uniform`` calls and
    checked on its own, as the checker did before it worked on one
    ``(samples, periods)`` array.  Envelope validation is left out."""
    half = load.horizon // 2
    lo = np.concatenate([down[:half], up[half:]])
    hi = np.concatenate([up[:half], down[half:]])
    target = float(np.sum(baseline))
    rng = np.random.default_rng(seed)
    draws = np.array([reference_fixed_sum(rng, lo, hi, target) for _ in range(samples)])
    return (draws, *reference_checks(load, baseline, draws))


def reference_fixed_sum(rng, lo, hi, target):
    """One draw from the box ``[lo, hi]`` restricted to a fixed sum."""
    n = len(lo)
    out = np.empty(n)
    remaining = target
    tail_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0.0]])
    tail_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0.0]])
    for t in range(n):
        low = max(lo[t], remaining - tail_hi[t + 1])
        high = min(hi[t], remaining - tail_lo[t + 1])
        value = rng.uniform(low, high) if high > low else low
        out[t] = value
        remaining -= value
    return out


def reference_checks(load, baseline, draws):
    """``(failures, first_failure)`` of the coverage check on given draws,
    one row at a time."""
    baseline_terminal = reference_trajectory(load, baseline)[-1]
    failures = 0
    first_failure = None
    for k, draw in enumerate(draws):
        problems = reference_violations(load, draw, tol=1e-7)
        if not abs(reference_trajectory(load, draw)[-1] - baseline_terminal) <= 1e-7:
            problems.append("terminal energy differs from baseline")
        if problems:
            failures += 1
            if first_failure is None:
                first_failure = {"sample": k, "schedule": draw, "problems": problems}
    return failures, first_failure


def reference_trajectory(load, schedule):
    """Tank states of one schedule, start included, by a running sum."""
    gain = load.efficiency * np.asarray(schedule, dtype=float) * load.period_hours - load.loss
    running = 0.0
    states = [load.energy_start]
    for g in gain:
        running += g
        states.append(load.energy_start + running)
    return np.array(states)


def reference_violations(load, schedule, tol):
    """The bounds one schedule breaks, tested entry by entry; NaN breaks
    every bound it enters."""

    def holds(values, lower, upper):
        return all(a - tol <= v <= b + tol for v, a, b in zip(values, lower, upper))

    problems = []
    if not holds(schedule, load.power_min, load.power_max):
        problems.append("power bounds")
    if not holds(reference_trajectory(load, schedule), load.energy_min, load.energy_max):
        problems.append("energy bounds")
    drawn = float(np.sum(schedule) * load.period_hours)
    if not load.total_min - tol <= drawn <= load.total_max + tol:
        problems.append("total energy bounds")
    return problems


def window_load(load: TankLoad, baseline, start: int, length: int) -> TankLoad:
    """``load`` cut down to the periods ``start .. start + length - 1`` of a
    band window: the window's power, loss and energy bounds, the baseline's
    tank state at the window start, and the total fixed to the baseline's
    energy over the window."""
    block = slice(start, start + length)
    states = slice(start, start + length + 1)
    drawn = float(np.sum(baseline[block]) * load.period_hours)
    return TankLoad(
        name=f"{load.name}[{start}:{start + length}]",
        power_min=load.power_min[block],
        power_max=load.power_max[block],
        energy_min=load.energy_min[states],
        energy_max=load.energy_max[states],
        efficiency=load.efficiency,
        loss=load.loss[block],
        total_min=drawn,
        total_max=drawn,
        energy_start=float(load.energy_trajectory(baseline)[start]),
        period_hours=load.period_hours,
    )
