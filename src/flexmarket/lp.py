"""Linear programming on bounded variables, stored as sparse triplets.

Every optimization in this package (market clearings, agent position
problems, settlement) is expressed as a :class:`LinearProgram` and handed to
:func:`solve`.  Models are built from array blocks:
:meth:`~LinearProgram.add_variables` appends bounded variables,
:meth:`~LinearProgram.add_objectives` objective terms and
:meth:`~LinearProgram.add_constraints` rows given as (row, column,
coefficient) triplets; these are the only way to build a model.

Every model is solved by the HiGHS dual simplex (Huangfu & Hall, *Math.
Prog. Comp.* 2018) through scipy's ``_highspy`` core binding, on a fresh
instance with the model and the options
``scipy.optimize.linprog(method="highs")`` would pass, and the optimum is
checked as ``linprog`` checks it.  :meth:`~LinearProgram.highs_columns`
assembles the matrix once per model, in numpy, straight from the triplets:
the column-wise arrays HiGHS takes, with the rows in ``linprog``'s order
(``<=`` rows, negated ``>=`` rows, ``==`` rows), repeated terms summed and
cancelled ones dropped.  The same arrays give the row activity of the
feasibility check.  :meth:`~LinearProgram.dense_rows` is read only by the
test oracles and the benchmark tracer.  scipy is imported only when a model
is solved, so importing this package loads none of it.

An ``optimal`` solution is primal feasible within ``TOL_FEAS`` (relative to
``max(1, |rhs|)``) and matches a vertex-enumeration oracle on small
instances, and :attr:`Solution.iterations` counts the HiGHS simplex
iterations of the solve.  Coefficients, objective terms and right-hand sides
must be finite.  Infinite bounds are the floats ``inf``/``-inf``, never
large finite sentinels, and every variable's domain holds a finite point
(``lower < inf``, ``upper > -inf``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

INF = math.inf

#: feasibility tolerance for returned optimal solutions (relative)
TOL_FEAS = 1e-7

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
        self._columns = None

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
        self._columns = None
        return np.arange(start, start + count)

    def add_objectives(self, variables, coefficients) -> None:
        """Add ``coefficients[k]`` to the objective term of ``variables[k]``."""
        variables = np.array(variables, dtype=np.intp).ravel()
        self._check_handles(variables)
        coefficients = _series(coefficients, variables.size)
        _require_finite(coefficients, "objective coefficient")
        self._objective.append((variables, coefficients))

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
        self._columns = None
        return np.arange(start, start + count)

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

    def highs_columns(self) -> HighsColumns:
        """The rows as HiGHS takes them (see :class:`HighsColumns`), built
        once and kept until the model changes."""
        if self._columns is None:
            rows, columns, coefficients = _joined(self._terms)
            relations, rhs = _joined(self._rows)
            kinds = [np.flatnonzero(relations == r) for r in (LESS_EQUAL, GREATER_EQUAL, EQUAL)]
            order = np.concatenate(kinds)
            n_ineq = kinds[0].size + kinds[1].size
            position = np.empty(order.size, np.intp)
            position[order] = np.arange(order.size)
            highs_rows = position[rows]
            sign = np.where(relations == GREATER_EQUAL, -1.0, 1.0)
            key = columns * self._n_constraints + highs_rows
            # stable, so repeated terms keep the order they were added in
            at = np.argsort(key, kind="stable")
            first = np.flatnonzero(np.diff(key[at], prepend=-1))
            values = _run_sums((coefficients * sign[rows])[at], first)
            nonzero = values != 0.0
            kept = at[first[nonzero]]
            column = columns[kept]
            start = np.zeros(self._n_variables + 1, np.int32)
            start[1:] = np.cumsum(np.bincount(column, minlength=self._n_variables))
            row_upper = rhs[order] * sign[order]
            self._columns = HighsColumns(
                start=start,
                index=highs_rows[kept].astype(np.int32),
                value=values[nonzero],
                column=column,
                row_lower=np.concatenate([np.full(n_ineq, -INF), row_upper[n_ineq:]]),
                row_upper=row_upper,
                order=order,
                n_ineq=n_ineq,
            )
        return self._columns

    def dense_rows(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        """(A, relations, b) with one dense row per constraint, for the test
        oracles and the benchmark tracer."""
        rows, columns, coefficients = _joined(self._terms)
        a = np.zeros((self._n_constraints, self._n_variables))
        np.add.at(a, (rows, columns), coefficients)
        relations, rhs = _joined(self._rows)
        return a, relations.tolist(), rhs.copy()


class HighsColumns(NamedTuple):
    """The rows of a model in the form HiGHS takes them, in the row order of
    ``scipy.optimize.linprog``: the ``<=`` rows, the ``>=`` rows negated
    (both bounded below by ``-inf``), then the ``==`` rows.  The matrix is
    column-wise, rows ascending within a column, with repeated terms summed
    and cancelled ones dropped."""

    start: np.ndarray       # int32: where each column's nonzeros start, and the end
    index: np.ndarray       # int32: the row of each nonzero
    value: np.ndarray
    column: np.ndarray      # the column of each nonzero
    row_lower: np.ndarray
    row_upper: np.ndarray
    order: np.ndarray       # row ``k`` here is row ``order[k]`` of the model
    n_ineq: int             # the rows before the ``==`` rows


def _run_sums(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The sum of each run ``values[first[k]:first[k + 1]]`` (the last run
    ends with ``values``), added left to right as a loop over the terms
    would; ``np.add.reduceat`` sums runs of three or more pairwise, which
    can differ in the last bit."""
    sums = values[first]
    lengths = np.diff(first, append=values.size)
    for k in range(1, lengths.max(initial=1)):
        longer = lengths > k
        sums[longer] += values[first[longer] + k]
    return sums


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
    the simplex iterations HiGHS ran.

    ``x`` is meaningful only when ``status == "optimal"``.
    """

    status: str
    objective: float
    x: np.ndarray
    iterations: int

    def values(self, variables) -> np.ndarray:
        return self.x[np.asarray(variables, dtype=np.intp)]


def solve(lp: LinearProgram) -> Solution:
    """Solve ``lp`` to proven optimality with HiGHS.

    Infeasibility and unboundedness are reported through
    :attr:`Solution.status`, never raised.
    """
    status, x, iterations = _highs_solve(lp)
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
    a = lp.highs_columns()
    # rows in HiGHS order, where every inequality reads "<= row_upper"; a
    # product that overflows is a violation below
    with np.errstate(over="ignore"):
        terms = a.value * x[a.column]
    activity = np.bincount(a.index, terms, minlength=lp.n_constraints)
    resid = activity - a.row_upper
    slack = TOL_FEAS * np.maximum(1.0, np.abs(a.row_upper))
    # written as "holds" so that a NaN residual fails every row
    holds = resid <= slack
    holds[a.n_ineq:] &= resid[a.n_ineq:] >= -slack[a.n_ineq:]
    violated = np.flatnonzero(~(holds & np.isfinite(resid)))
    if violated.size:
        k = violated[np.argmin(a.order[violated])]
        i = a.order[k]
        # a negated ">=" row's residual, back in the model's own sign
        if _joined(lp._rows)[0][i] == GREATER_EQUAL:
            resid[k] = -resid[k]
        raise RuntimeError(
            f"solver violated constraint {i} of {lp.name!r} by {resid[k]:.3e}"
        )


# ---------------------------------------------------------------------------
# HiGHS
# ---------------------------------------------------------------------------


def _highs_solve(lp: LinearProgram) -> tuple[str, np.ndarray, int]:
    """Solve ``lp`` with the HiGHS core on a fresh instance.

    HiGHS gets the model ``scipy.optimize.linprog(method="highs")`` would
    give it: the ``<=`` rows, then the negated ``>=`` rows (both with lower
    bound ``-inf``), then the ``==`` rows, as the column-wise arrays of
    :meth:`LinearProgram.highs_columns`, the objective negated for ``max``
    models and linprog's effective options.
    """
    from scipy.optimize._highspy import _core as core

    a = lp.highs_columns()
    c = lp.objective_vector()
    if lp.sense == "max":
        c = -c
    highs = core._Highs()
    if highs.passOptions(_highs_options()) == core.HighsStatus.kError:
        raise RuntimeError(f"highs failed on {lp.name!r}: options rejected")
    loaded = highs.passModel(
        lp.n_variables,
        lp.n_constraints,
        a.value.size,
        int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMinimize),
        0.0,
        c,
        lp.lower,
        lp.upper,
        a.row_lower,
        a.row_upper,
        a.start,
        a.index,
        a.value,
        # every column continuous; an empty array is rejected
        np.zeros(lp.n_variables, np.int32),
    )
    if loaded == core.HighsStatus.kError:
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
    _check_highs_result(lp, x, a.row_upper - np.array(solution.row_value), a.n_ineq)
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
