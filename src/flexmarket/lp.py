"""Linear programming on bounded variables, stored as sparse triplets.

Every optimization in this package (market clearings, agent position
problems, settlement) is expressed as a :class:`LinearProgram` and handed to
:func:`solve`.  Models are built from array blocks:
:meth:`~LinearProgram.add_variables` appends bounded variables,
:meth:`~LinearProgram.add_objectives` objective terms and
:meth:`~LinearProgram.add_constraints` rows given as (row, column,
coefficient) triplets.  ``add_variable``, ``add_objective`` and
``add_constraint`` are one-element calls into the same store.
:meth:`~LinearProgram.sparse_rows` assembles the CSR matrix once per solve,
summing repeated terms and dropping cancelled ones.

Two interchangeable backends are provided:

* ``"simplex"`` -- the built-in dense two-phase simplex working directly on
  variable bounds, with Bland's rule as an anti-cycling fallback after a run
  of degenerate pivots.  Fully deterministic: entering-variable ties are
  broken by lowest column index, leaving-variable ties by lowest basis index.
  It is the reference implementation, the default of :func:`solve`, and with
  the test oracles the only reader of :meth:`~LinearProgram.dense_rows`.
* ``"highs"`` -- the HiGHS dual simplex (Huangfu & Hall, *Math. Prog.
  Comp.* 2018) through scipy's ``_highspy`` core binding: one ``HighsLp``
  with the CSC matrix, solved on a fresh instance with the model and the
  options ``scipy.optimize.linprog(method="highs")`` would pass, and the
  optimum checked as ``linprog`` checks it.  The agent models, the reserve
  clearing and the settlement always solve with it.

Both backends satisfy the same contract: an ``optimal`` solution is primal
feasible within ``TOL_FEAS`` (relative to ``max(1, |rhs|)``) and matches a
vertex-enumeration oracle on small instances, and :attr:`Solution.iterations`
counts the simplex iterations it ran.  Coefficients, objective terms and
right-hand sides must be finite.  Infinite bounds are the floats
``inf``/``-inf``, never large finite sentinels, and every variable's domain
holds a finite point (``lower < inf``, ``upper > -inf``).
"""

from __future__ import annotations

import functools
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
    """Raised for ill-formed models (bad bounds, unknown variables,
    non-finite data)."""


class LinearProgram:
    """A linear program built from blocks of bounded variables and rows.

    Variables are referred to by the integer handles :meth:`add_variables`
    returns.  Objective terms accumulate, which keeps model-building code
    free of bookkeeping when several cost terms touch the same variable.
    Each store is a list of array chunks, joined into one on first read.
    """

    def __init__(self, sense: str = "min", name: str = ""):
        if sense not in ("min", "max"):
            raise LinearProgramError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.name = name
        self._n_variables = 0
        self._n_constraints = 0
        # (lower, upper), (variables, coefficients), (rows, columns,
        # coefficients) and (relations, rhs) chunks
        self._bounds = [(np.zeros(0), np.zeros(0))]
        self._objective = [(np.zeros(0, np.intp), np.zeros(0))]
        self._terms = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
        self._rows = [(np.zeros(0, "<U2"), np.zeros(0))]
        self._matrix = None

    # -- model building ----------------------------------------------------

    def add_variables(self, count: int, lower=0.0, upper=INF) -> np.ndarray:
        """Append ``count`` variables; ``lower``/``upper`` are scalars or one
        value per variable.  Returns their handles."""
        lower = _series(lower, count)
        upper = _series(upper, count)
        bad = np.flatnonzero(
            np.isnan(lower) | np.isnan(upper) | (lower > upper) | (lower == INF) | (upper == -INF)
        )
        if bad.size:
            j = bad[0]
            raise LinearProgramError(
                f"variable {self._n_variables + j} has bounds [{lower[j]}, {upper[j]}]"
            )
        start = self._n_variables
        self._bounds.append((lower, upper))
        self._n_variables += count
        self._matrix = None
        return np.arange(start, start + count)

    def add_variable(self, lower: float = 0.0, upper: float = INF) -> int:
        return int(self.add_variables(1, lower, upper)[0])

    def add_objectives(self, variables, coefficients) -> None:
        """Add ``coefficients[k]`` to the objective term of ``variables[k]``."""
        variables = np.array(variables, dtype=np.intp).ravel()
        self._check_handles(variables)
        coefficients = _series(coefficients, variables.size)
        _require_finite(coefficients, "objective coefficient")
        self._objective.append((variables, coefficients))

    def add_objective(self, var: int, coefficient: float) -> None:
        self.add_objectives([var], [coefficient])

    def add_constraints(self, terms, relations, rhs) -> np.ndarray:
        """Add one row ``sum(coef * var) relation rhs`` per entry of ``rhs``.

        ``relations`` is one relation or one per row.  ``terms`` is an
        iterable of ``(rows, columns, coefficients)`` triplets whose parts
        broadcast against each other; ``rows`` count from 0 within the block.
        Returns the indices of the new rows.
        """
        rhs = np.array(rhs, dtype=float).ravel()
        count = rhs.size
        relations = np.asarray(relations)
        if not (
            relations.item() in _RELATIONS
            if relations.ndim == 0
            else np.isin(relations, _RELATIONS).all()
        ):
            raise LinearProgramError(f"unknown relation in {relations}")
        _require_finite(rhs, "right-hand side")
        rows, columns, coefficients = _flat_terms(terms)
        if rows.size and (rows.min() < 0 or rows.max() >= count):
            raise LinearProgramError(f"term row outside a block of {count} rows")
        self._check_handles(columns)
        _require_finite(coefficients, "constraint coefficient")
        start = self._n_constraints
        self._terms.append((rows + start, columns, coefficients))
        self._rows.append((_series(relations, count, "<U2"), rhs))
        self._n_constraints += count
        self._matrix = None
        return np.arange(start, start + count)

    def add_constraint(self, terms, relation: str, rhs: float) -> int:
        """Add ``sum(coef * var) relation rhs``; ``terms`` is {var: coef} or
        an iterable of (var, coef) pairs."""
        pairs = list(terms.items() if isinstance(terms, dict) else terms)
        columns = [var for var, _ in pairs]
        coefficients = [coef for _, coef in pairs]
        return int(self.add_constraints([(0, columns, coefficients)], relation, [rhs])[0])

    def _check_handles(self, handles: np.ndarray) -> None:
        if handles.size and (handles.min() < 0 or handles.max() >= self._n_variables):
            bad = handles[(handles < 0) | (handles >= self._n_variables)][0]
            raise LinearProgramError(f"unknown variable handle {bad}")

    # -- views --------------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return self._n_variables

    @property
    def n_constraints(self) -> int:
        return self._n_constraints

    @property
    def lower(self) -> np.ndarray:
        return _joined(self._bounds)[0]

    @property
    def upper(self) -> np.ndarray:
        return _joined(self._bounds)[1]

    def objective_vector(self) -> np.ndarray:
        variables, coefficients = _joined(self._objective)
        c = np.zeros(self._n_variables)
        np.add.at(c, variables, coefficients)
        return c

    def sparse_rows(self):
        """(A, relations, b): A as a CSR array with repeated terms summed and
        cancelled ones dropped, kept until the model changes; ``relations``
        is an array of relation strings."""
        if self._matrix is None:
            from scipy.sparse import csr_array

            rows, columns, coefficients = _joined(self._terms)
            shape = (self._n_constraints, self._n_variables)
            matrix = csr_array((coefficients, (rows, columns)), shape=shape)
            matrix.sum_duplicates()
            matrix.eliminate_zeros()
            self._matrix = matrix
        relations, rhs = _joined(self._rows)
        return self._matrix, relations, rhs

    def dense_rows(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        """(A, relations, b) with one dense row per constraint, for the
        reference simplex and the test oracles."""
        rows, columns, coefficients = _joined(self._terms)
        a = np.zeros((self._n_constraints, self._n_variables))
        np.add.at(a, (rows, columns), coefficients)
        relations, rhs = _joined(self._rows)
        return a, relations.tolist(), rhs.copy()


def _series(values, count: int, dtype=float) -> np.ndarray:
    """``values`` (a scalar or ``count`` values in any shape) as a new
    one-dimensional array."""
    out = np.empty(count, dtype)
    out[...] = np.ravel(values)
    return out


def _flat_terms(terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, columns, coefficients) triplets of ``terms``, each one
    broadcast and flattened, concatenated into three arrays."""
    terms = [(part, np.broadcast(*part).shape) for part in terms]
    size = sum(math.prod(shape) for _, shape in terms)
    rows = np.empty(size, np.intp)
    columns = np.empty(size, np.intp)
    coefficients = np.empty(size)
    at = 0
    for (r, c, v), shape in terms:
        block = slice(at, at + math.prod(shape))
        rows[block].reshape(shape)[...] = r
        columns[block].reshape(shape)[...] = c
        coefficients[block].reshape(shape)[...] = v
        at = block.stop
    return rows, columns, coefficients


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise LinearProgramError(f"non-finite {what} {values[~np.isfinite(values)][0]}")


def _joined(chunks: list) -> tuple:
    """The single chunk of a store, concatenating its chunks first."""
    if len(chunks) > 1:
        chunks[:] = [tuple(np.concatenate(parts) for parts in zip(*chunks))]
    return chunks[0]


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: a status, the objective, the variable values and
    the simplex iterations the backend ran.

    ``x`` is meaningful only when ``status == "optimal"``.
    """

    status: str
    objective: float
    x: np.ndarray
    iterations: int

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
        status, x, iterations = _simplex_solve(lp)
    elif backend == "highs":
        status, x, iterations = _highs_solve(lp)
    else:
        raise LinearProgramError(f"unknown backend {backend!r}")

    if status != OPTIMAL:
        return Solution(status, math.nan, np.full(lp.n_variables, math.nan), iterations)
    _check_feasible(lp, x)
    objective = float(lp.objective_vector() @ x)
    return Solution(OPTIMAL, objective, x, iterations)


def _check_feasible(lp: LinearProgram, x: np.ndarray) -> None:
    """Raise unless ``x`` is finite, within its bounds (absolute ``TOL_FEAS``)
    and satisfies every row within ``TOL_FEAS * max(1, |rhs|)``."""
    if (
        not np.isfinite(x).all()
        or np.any(lp.lower - x > TOL_FEAS)
        or np.any(x - lp.upper > TOL_FEAS)
    ):
        raise RuntimeError(f"solver returned out-of-bounds solution for {lp.name!r}")
    a, relations, rhs = lp.sparse_rows()
    resid = a @ x - rhs
    slack = TOL_FEAS * np.maximum(1.0, np.abs(rhs))
    # written as "holds" so that a NaN residual fails every relation
    holds = np.where(
        relations == EQUAL,
        np.abs(resid) <= slack,
        np.where(relations == LESS_EQUAL, resid <= slack, resid >= -slack),
    )
    violated = np.flatnonzero(~(holds & np.isfinite(resid)))
    if violated.size:
        i = violated[0]
        raise RuntimeError(
            f"solver violated constraint {i} of {lp.name!r} by {resid[i]:.3e}"
        )


# ---------------------------------------------------------------------------
# HiGHS backend
# ---------------------------------------------------------------------------


def _highs_solve(lp: LinearProgram) -> tuple[str, np.ndarray, int]:
    """Solve ``lp`` with the HiGHS core on a fresh instance.

    HiGHS gets the model ``scipy.optimize.linprog(method="highs")`` would
    give it: the ``<=`` rows, then the negated ``>=`` rows (both with lower
    bound ``-inf``), then the ``==`` rows, one CSC matrix, the objective
    negated for ``max`` models and linprog's effective options.
    """
    from scipy.optimize._highspy import _core as core

    a, relations, b = lp.sparse_rows()
    ub_rows = np.flatnonzero(relations == LESS_EQUAL)
    ge_rows = np.flatnonzero(relations == GREATER_EQUAL)
    eq_rows = np.flatnonzero(relations == EQUAL)
    n_ineq = ub_rows.size + ge_rows.size
    a = a[np.concatenate([ub_rows, ge_rows, eq_rows])]
    a.data[a.indptr[ub_rows.size]:a.indptr[n_ineq]] *= -1.0
    a = a.tocsc()
    row_upper = np.concatenate([b[ub_rows], -b[ge_rows], b[eq_rows]])
    row_lower = np.concatenate([np.full(n_ineq, -INF), b[eq_rows]])
    c = lp.objective_vector()
    if lp.sense == "max":
        c = -c

    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.n_variables
    model.num_row_ = model.a_matrix_.num_row_ = lp.n_constraints
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    # the binding copies index lists faster than integer arrays
    model.a_matrix_.start_ = a.indptr.tolist()
    model.a_matrix_.index_ = a.indices.tolist()
    model.a_matrix_.value_ = a.data
    model.col_cost_ = c
    model.col_lower_ = lp.lower
    model.col_upper_ = lp.upper
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper

    highs = core._Highs()
    if highs.passOptions(_highs_options()) == core.HighsStatus.kError:
        raise RuntimeError(f"highs failed on {lp.name!r}: options rejected")
    if highs.passModel(model) == core.HighsStatus.kError:
        # a model HiGHS cannot load is a model error, which linprog reports
        # as infeasible
        return INFEASIBLE, np.empty(0), 0
    run_failed = highs.run() == core.HighsStatus.kError
    status = highs.getModelStatus()
    iterations = highs.getInfo().simplex_iteration_count
    if status in (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kModelError):
        return INFEASIBLE, np.empty(0), iterations
    if status == core.HighsModelStatus.kUnbounded:
        return UNBOUNDED, np.empty(0), iterations
    if run_failed or status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"highs failed on {lp.name!r}: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    _check_highs_result(lp, x, row_upper - np.array(solution.row_value), n_ineq)
    return OPTIMAL, x, iterations


@functools.cache
def _highs_options():
    """The options ``linprog`` sets on HiGHS (``solver`` stays unset)."""
    from scipy.optimize._highspy import _core as core

    options = core.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


#: absolute tolerance of the check ``linprog`` makes on a HiGHS optimum
HIGHS_CHECK_TOL = 10 * math.sqrt(1e-9)


def _check_highs_result(lp: LinearProgram, x: np.ndarray, slack: np.ndarray, n_ineq: int) -> None:
    """Raise unless ``x`` and the row slacks (``row_upper - A x``, inequality
    rows first) are free of NaN, ``x`` is within its bounds, no inequality
    slack is below ``-HIGHS_CHECK_TOL`` and every equality residual is within
    ``HIGHS_CHECK_TOL`` of 0."""
    tol = HIGHS_CHECK_TOL
    if (
        np.isnan(x).any()
        or np.isnan(slack).any()
        or not np.all((x >= lp.lower - tol) & (x <= lp.upper + tol))
        or (slack[:n_ineq] < -tol).any()
        or (np.abs(slack[n_ineq:]) > tol).any()
    ):
        raise RuntimeError(
            f"highs failed on {lp.name!r}: the solution does not satisfy the "
            f"constraints within {tol:.2e}"
        )


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
        lower, upper = lp.lower, lp.upper
        for value, (mode, j) in zip(y, self.recover):
            if mode == "lo":
                x[j] = lower[j] + value
            elif mode == "hi":
                x[j] = upper[j] - value
            elif mode == "pos":
                x[j] += value
            elif mode == "neg":
                x[j] -= value
        return x


def _simplex_solve(lp: LinearProgram) -> tuple[str, np.ndarray, int]:
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
            return INFEASIBLE, np.empty(0), state.iterations
        state.lock_columns(range(n, n + n_art))
        state.drive_out(range(n, n + n_art))
    else:
        state = _Tableau(tableau, beta, basis, status, is_basic, widths)

    # phase 2
    c2 = np.concatenate([sf.c, np.zeros(n_art)])
    outcome = state.run(c2)
    if outcome == UNBOUNDED:
        return UNBOUNDED, np.empty(0), state.iterations

    y = state.values()[:n]
    return OPTIMAL, sf.restore(y, lp), state.iterations


class _Tableau:
    """Bounded-variable primal simplex on an explicit dense tableau.

    The tableau rows always hold B^-1 A; ``beta`` holds the basic variable
    values.  Nonbasic variables rest at 0 or at their width ``w``.
    ``iterations`` counts the pivots and bound flips of every :meth:`run`.
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
        self.iterations = 0

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
            self.iterations += 1
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
