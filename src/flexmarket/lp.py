"""Dense linear programming on bounded variables.

Every optimization in this package (market clearings, agent position
problems, settlement) is expressed as a :class:`LinearProgram` and handed to
:func:`solve`.  Two interchangeable backends are provided:

* ``"simplex"`` -- the built-in dense two-phase simplex working directly on
  variable bounds, with Bland's rule as an anti-cycling fallback after a run
  of degenerate pivots.  Fully deterministic: entering-variable ties are
  broken by lowest column index, leaving-variable ties by lowest basis index.
  It is the reference implementation, the default of :func:`solve`.
* ``"highs"`` -- delegation to ``scipy.optimize.linprog``; the agent models,
  the reserve clearing and the settlement always solve with it.

Both backends satisfy the same contract: an ``optimal`` solution is primal
feasible within ``TOL_FEAS`` (relative to ``max(1, |rhs|)``) and matches a
vertex-enumeration oracle on small instances.  Infinite bounds are the
floats ``inf``/``-inf``, never large finite sentinels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

#: feasibility tolerance for returned optimal solutions (relative)
TOL_FEAS = 1e-7
#: pivot / reduced-cost tolerance of the simplex
TOL_PIVOT = 1e-9
#: consecutive degenerate pivots before switching to Bland's rule
DEGENERATE_PIVOT_LIMIT = 40

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LinearProgramError(ValueError):
    """Raised for ill-formed models (bad bounds, unknown variables)."""


@dataclass
class _Constraint:
    indices: np.ndarray
    coefficients: np.ndarray
    relation: str
    rhs: float


class LinearProgram:
    """A linear program built incrementally from named, bounded variables.

    Variables are referred to by the integer handle returned from
    :meth:`add_variable`.  Objective coefficients accumulate, which keeps
    model-building code free of bookkeeping when several cost terms touch
    the same variable.
    """

    def __init__(self, sense: str = "min", name: str = ""):
        if sense not in ("min", "max"):
            raise LinearProgramError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.name = name
        self.variable_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self._objective: dict[int, float] = {}
        self.constraints: list[_Constraint] = []

    # -- model building ----------------------------------------------------

    def add_variable(self, name: str, lower: float = 0.0, upper: float = INF) -> int:
        if math.isnan(lower) or math.isnan(upper):
            raise LinearProgramError(f"variable {name!r} has NaN bound")
        if lower > upper:
            raise LinearProgramError(
                f"variable {name!r} has lower bound {lower} above upper bound {upper}"
            )
        self.variable_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.variable_names) - 1

    def add_objective(self, var: int, coefficient: float) -> None:
        self._check_var(var)
        self._objective[var] = self._objective.get(var, 0.0) + float(coefficient)

    def add_constraint(self, terms, relation: str, rhs: float) -> int:
        """Add ``sum(coef * var) relation rhs``; ``terms`` is {var: coef} or
        an iterable of (var, coef) pairs."""
        if relation not in _RELATIONS:
            raise LinearProgramError(f"unknown relation {relation!r}")
        if isinstance(terms, dict):
            terms = terms.items()
        idx, coef = [], []
        for var, c in terms:
            self._check_var(var)
            if c != 0.0:
                idx.append(var)
                coef.append(float(c))
        self.constraints.append(
            _Constraint(np.asarray(idx, dtype=np.intp), np.asarray(coef), relation, float(rhs))
        )
        return len(self.constraints) - 1

    def _check_var(self, var: int) -> None:
        if not 0 <= var < len(self.variable_names):
            raise LinearProgramError(f"unknown variable handle {var}")

    # -- views --------------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.variable_names)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_variables)
        for var, coef in self._objective.items():
            c[var] = coef
        return c

    def dense_rows(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        """(A, relations, b) with one dense row per constraint."""
        a = np.zeros((self.n_constraints, self.n_variables))
        rel = []
        b = np.zeros(self.n_constraints)
        for i, con in enumerate(self.constraints):
            np.add.at(a[i], con.indices, con.coefficients)
            rel.append(con.relation)
            b[i] = con.rhs
        return a, rel, b


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: a status, the objective and the variable values.

    ``x`` is meaningful only when ``status == "optimal"``.
    """

    status: str
    objective: float
    x: np.ndarray

    def value(self, var: int) -> float:
        return float(self.x[var])

    def values(self, variables) -> np.ndarray:
        return self.x[np.asarray(variables, dtype=np.intp)]


def solve(lp: LinearProgram, backend: str = "simplex") -> Solution:
    """Solve ``lp`` to proven optimality.

    Infeasibility and unboundedness are reported through
    :attr:`Solution.status`, never raised.
    """
    if backend == "simplex":
        status, x = _simplex_solve(lp)
    elif backend == "highs":
        status, x = _highs_solve(lp)
    else:
        raise LinearProgramError(f"unknown backend {backend!r}")

    if status != OPTIMAL:
        return Solution(status, math.nan, np.full(lp.n_variables, math.nan))
    _check_feasible(lp, x)
    objective = float(lp.objective_vector() @ x)
    return Solution(OPTIMAL, objective, x)


def _check_feasible(lp: LinearProgram, x: np.ndarray) -> None:
    lower = np.asarray(lp.lower)
    upper = np.asarray(lp.upper)
    finite_lo = np.isfinite(lower)
    finite_up = np.isfinite(upper)
    if np.any(lower[finite_lo] - x[finite_lo] > TOL_FEAS) or np.any(
        x[finite_up] - upper[finite_up] > TOL_FEAS
    ):
        raise RuntimeError(f"solver returned out-of-bounds solution for {lp.name!r}")
    for con in lp.constraints:
        lhs = float(con.coefficients @ x[con.indices])
        scale = max(1.0, abs(con.rhs))
        resid = lhs - con.rhs
        bad = (
            (con.relation == EQUAL and abs(resid) > TOL_FEAS * scale)
            or (con.relation == LESS_EQUAL and resid > TOL_FEAS * scale)
            or (con.relation == GREATER_EQUAL and resid < -TOL_FEAS * scale)
        )
        if bad:
            raise RuntimeError(
                f"solver violated a constraint of {lp.name!r} by {resid:.3e}"
            )


# ---------------------------------------------------------------------------
# scipy backend
# ---------------------------------------------------------------------------


def _highs_solve(lp: LinearProgram) -> tuple[str, np.ndarray]:
    from scipy.optimize import linprog

    c = lp.objective_vector()
    if lp.sense == "max":
        c = -c
    a, rel, b = lp.dense_rows()
    ub_rows = [i for i, r in enumerate(rel) if r == LESS_EQUAL]
    ge_rows = [i for i, r in enumerate(rel) if r == GREATER_EQUAL]
    eq_rows = [i for i, r in enumerate(rel) if r == EQUAL]
    a_ub = b_ub = a_eq = b_eq = None
    if ub_rows or ge_rows:
        a_ub = np.vstack([a[ub_rows], -a[ge_rows]]) if ge_rows else a[ub_rows]
        b_ub = np.concatenate([b[ub_rows], -b[ge_rows]]) if ge_rows else b[ub_rows]
    if eq_rows:
        a_eq, b_eq = a[eq_rows], b[eq_rows]
    bounds = [
        (lo if math.isfinite(lo) else None, up if math.isfinite(up) else None)
        for lo, up in zip(lp.lower, lp.upper)
    ]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        return INFEASIBLE, np.empty(0)
    if res.status == 3:
        return UNBOUNDED, np.empty(0)
    if not res.success:
        raise RuntimeError(f"highs failed on {lp.name!r}: {res.message}")
    return OPTIMAL, np.asarray(res.x, dtype=float)


# ---------------------------------------------------------------------------
# built-in simplex backend
# ---------------------------------------------------------------------------

_AT_LOWER = 0
_AT_UPPER = 1


class _StandardForm:
    """min c.y  s.t.  A y = b,  0 <= y <= w, remembering how to undo shifts.

    Column order: transformed structural variables first (free variables
    contribute a second, negated column), then one slack per inequality row.
    """

    def __init__(self, lp: LinearProgram):
        a, rel, b = lp.dense_rows()
        c = lp.objective_vector()
        if lp.sense == "max":
            c = -c
        n = lp.n_variables
        lower = np.asarray(lp.lower)
        upper = np.asarray(lp.upper)

        cols: list[np.ndarray] = []
        costs: list[float] = []
        widths: list[float] = []
        # (mode, original index) per column; mode: 'lo' y=x-l, 'hi' y=u-x,
        # 'pos'/'neg' the two halves of a free variable split
        self.recover: list[tuple[str, int]] = []
        self.offset = 0.0
        b = b.copy()

        for j in range(n):
            col = a[:, j]
            lo, up = lower[j], upper[j]
            if math.isfinite(lo):
                b -= col * lo
                self.offset += c[j] * lo
                cols.append(col)
                costs.append(c[j])
                widths.append(up - lo)
                self.recover.append(("lo", j))
            elif math.isfinite(up):
                b -= col * up
                self.offset += c[j] * up
                cols.append(-col)
                costs.append(-c[j])
                widths.append(INF)
                self.recover.append(("hi", j))
            else:
                cols.append(col)
                costs.append(c[j])
                widths.append(INF)
                self.recover.append(("pos", j))
                cols.append(-col)
                costs.append(-c[j])
                widths.append(INF)
                self.recover.append(("neg", j))

        m = len(rel)
        for i, r in enumerate(rel):
            if r == EQUAL:
                continue
            col = np.zeros(m)
            col[i] = 1.0 if r == LESS_EQUAL else -1.0
            cols.append(col)
            costs.append(0.0)
            widths.append(INF)
            self.recover.append(("slack", i))

        self.a = np.column_stack(cols) if cols else np.zeros((m, 0))
        self.c = np.asarray(costs)
        self.w = np.asarray(widths)
        self.b = b
        self.n_original = n

    def restore(self, y: np.ndarray, lp: LinearProgram) -> np.ndarray:
        x = np.zeros(self.n_original)
        for value, (mode, j) in zip(y, self.recover):
            if mode == "lo":
                x[j] = lp.lower[j] + value
            elif mode == "hi":
                x[j] = lp.upper[j] - value
            elif mode == "pos":
                x[j] += value
            elif mode == "neg":
                x[j] -= value
        return x


def _simplex_solve(lp: LinearProgram) -> tuple[str, np.ndarray]:
    sf = _StandardForm(lp)
    a, b, w = sf.a, sf.b.copy(), sf.w
    m, n = a.shape

    # flip rows to nonnegative right-hand sides
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)

    # artificial variables complete the identity start basis; slack columns
    # that already read +1 after flipping are reused instead
    slack_row = {}
    for col, (mode, i) in enumerate(sf.recover):
        if mode == "slack" and a[i, col] > 0.0:
            slack_row[i] = col
    art_rows = [i for i in range(m) if i not in slack_row]
    n_art = len(art_rows)
    if n_art:
        art_block = np.zeros((m, n_art))
        for k, i in enumerate(art_rows):
            art_block[i, k] = 1.0
        tableau = np.hstack([a, art_block])
    else:
        tableau = a.copy()
    widths = np.concatenate([w, np.full(n_art, INF)])
    art_of_row = {i: n + k for k, i in enumerate(art_rows)}
    basis = np.array([slack_row.get(i, art_of_row.get(i, -1)) for i in range(m)], dtype=np.intp)

    status = np.full(n + n_art, _AT_LOWER, dtype=np.int8)
    beta = b.copy()
    is_basic = np.zeros(n + n_art, dtype=bool)
    is_basic[basis] = True

    # phase 1: minimize the sum of artificials (slack-started rows need none)
    if n_art:
        c1 = np.zeros(n + n_art)
        c1[n:] = 1.0
        state = _Tableau(tableau, beta, basis, status, is_basic, widths)
        outcome = state.run(c1)
        if outcome == UNBOUNDED:
            raise RuntimeError("phase-1 problem reported unbounded")
        total = float(np.sum(state.beta[np.isin(state.basis, np.arange(n, n + n_art))]))
        if total > TOL_FEAS * max(1.0, float(np.abs(b).max(initial=0.0))):
            return INFEASIBLE, np.empty(0)
        state.lock_columns(range(n, n + n_art))
        state.drive_out(range(n, n + n_art))
    else:
        state = _Tableau(tableau, beta, basis, status, is_basic, widths)

    # phase 2
    c2 = np.concatenate([sf.c, np.zeros(n_art)])
    outcome = state.run(c2)
    if outcome == UNBOUNDED:
        return UNBOUNDED, np.empty(0)

    y = state.values()[:n]
    return OPTIMAL, sf.restore(y, lp)


class _Tableau:
    """Bounded-variable primal simplex on an explicit dense tableau.

    The tableau rows always hold B^-1 A; ``beta`` holds the basic variable
    values.  Nonbasic variables rest at 0 or at their width ``w``.
    """

    def __init__(self, tableau, beta, basis, status, is_basic, widths):
        # the starting basis (slacks reading +1 after row flips, plus
        # artificials) is already an identity block, no factorization needed
        self.t = np.ascontiguousarray(tableau, dtype=float)
        self.beta = beta
        self.basis = basis
        self.status = status
        self.is_basic = is_basic
        self.w = widths
        self.locked = np.zeros(self.t.shape[1], dtype=bool)

    def lock_columns(self, cols) -> None:
        """Pin columns at zero so they can never re-enter (spent artificials)."""
        for q in cols:
            self.locked[q] = True
            self.w[q] = 0.0

    def drive_out(self, cols) -> None:
        """Pivot still-basic locked columns out on any usable row element."""
        targets = set(cols)
        for p in range(len(self.basis)):
            if self.basis[p] not in targets:
                continue
            row = self.t[p]
            candidates = np.flatnonzero(
                (np.abs(row) > 1e-9) & ~self.is_basic & ~self.locked
            )
            if candidates.size:
                q = int(candidates[0])
                sigma = +1 if self.status[q] == _AT_LOWER else -1
                self._pivot(q, p, 0.0, sigma, leaving_to=_AT_LOWER)

    def values(self) -> np.ndarray:
        y = np.where(self.status == _AT_UPPER, self.w, 0.0)
        y[self.basis] = self.beta
        return y

    def run(self, costs: np.ndarray, max_iter: int | None = None) -> str:
        m, ncols = self.t.shape
        if max_iter is None:
            max_iter = 200 + 60 * (m + ncols)
        # reduced costs, maintained incrementally
        r = costs - costs[self.basis] @ self.t
        bland = False
        degenerate_run = 0

        movable = ~self.locked & (self.w > TOL_PIVOT)
        for _ in range(max_iter):
            eligible = ~self.is_basic & movable & (
                ((self.status == _AT_LOWER) & (r < -TOL_PIVOT))
                | ((self.status == _AT_UPPER) & (r > TOL_PIVOT))
            )
            if not eligible.any():
                return OPTIMAL
            if bland:
                q = int(np.flatnonzero(eligible)[0])
            else:
                score = np.where(eligible, np.abs(r), -1.0)
                q = int(np.argmax(score))

            sigma = +1 if self.status[q] == _AT_LOWER else -1
            g = sigma * self.t[:, q]

            limit = self.w[q]  # bound-flip distance (may be inf)
            ratios = np.full(m, INF)
            pos = g > TOL_PIVOT
            ratios[pos] = self.beta[pos] / g[pos]
            neg = g < -TOL_PIVOT
            head = self.w[self.basis[neg]] - self.beta[neg]
            ratios[neg] = head / -g[neg]
            row_min = ratios.min() if m else INF

            delta = min(limit, row_min)
            if delta == INF:
                return UNBOUNDED
            delta = max(delta, 0.0)

            if limit <= row_min:
                # entering variable swings to its other bound; no basis change
                self.beta -= g * delta
                self.status[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
            else:
                tied = np.flatnonzero(ratios <= delta + 1e-9)
                p = int(tied[np.argmin(self.basis[tied])])
                leaving_to = _AT_LOWER if g[p] > 0 else _AT_UPPER
                self._pivot(q, p, delta, sigma, leaving_to)
                r = r - r[q] * self.t[p]

            if delta <= 1e-9:
                degenerate_run += 1
                if degenerate_run > DEGENERATE_PIVOT_LIMIT:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        raise RuntimeError("simplex iteration limit exceeded")

    def _pivot(self, q: int, p: int, delta: float, sigma: int, leaving_to: int) -> None:
        g = sigma * self.t[:, q]
        self.beta -= g * delta
        entering_value = delta if sigma > 0 else self.w[q] - delta

        leaving = self.basis[p]
        self.is_basic[leaving] = False
        self.status[leaving] = leaving_to
        self.basis[p] = q
        self.is_basic[q] = True

        piv = self.t[p, q]
        row = self.t[p] / piv
        self.t[p] = row
        col = self.t[:, q].copy()
        col[p] = 0.0
        self.t -= np.outer(col, row)
        # clean residual round-off in the pivot column
        self.t[:, q] = 0.0
        self.t[p, q] = 1.0
        self.beta[p] = entering_value
