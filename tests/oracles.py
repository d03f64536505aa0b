"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's solution paths: LPs are checked by
enumerating basic solutions, auctions by sweeping every breakpoint price,
and agent schedules by grid search.  Keep them dumb.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from flexmarket.lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram


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
