"""Linear programming on bounded variables, stored as sparse triplets.

Every optimization in this package (market clearings, agent position
problems, settlement) is expressed as a :class:`LinearProgram` and handed to
:func:`solve`.  Models are built from array blocks:
:meth:`~LinearProgram.add_variables` appends bounded variables,
:meth:`~LinearProgram.add_objectives` objective terms and
:meth:`~LinearProgram.add_constraints` rows given as (row, column,
coefficient) triplets; these are the only way to build a model.
:func:`solve` takes variable bounds and an objective vector for one solve,
so one model is solved under several of each without being changed or
copied.

Every model is solved by HiGHS (Huangfu & Hall, *Math. Prog. Comp.* 2018)
through scipy's ``_highspy`` core binding, on HiGHS's default options
(presolve, then the dual simplex) with its output off, on one instance per
thread that is emptied before each model.  HiGHS takes the model's sense,
``min`` or ``max``, and the solve's objective vector as they are.  It
releases the GIL while it runs, so threads solve models concurrently, each
on its own instance.  A model is read-only once it has been solved: from
then on several threads may solve it at once, under different bounds and
costs.
:meth:`~LinearProgram.highs_columns` assembles the matrix once per model, in
numpy, straight from the triplets: the column-wise arrays HiGHS takes, each
row bounded by a range, with repeated terms summed and cancelled ones
dropped.  The rows keep the order ``scipy.optimize.linprog(method="highs")``
gives them (``<=`` rows, ``>=`` rows, ``==`` rows), because the vertex HiGHS
returns among tied optima depends on it.  The optimum is checked once, on the
triplets in the model's own row order.  :meth:`~LinearProgram.dense_rows` is
read only by the test oracles and the benchmark tracer.  scipy is imported
only when a model is solved, so importing this package loads none of it.

An optimal :class:`Solution` carries the :class:`Basis` its solve ended
on, from which a later solve of the same model, under any bounds and
costs, may start; a solve of any other model rejects it.  From a basis,
HiGHS skips presolve and its simplex starts there; the instance is still
emptied first, so nothing else passes from one solve to the next.
:func:`slack_basis` is a basis to start from without an earlier solve:
every row basic, every column at one of its bounds.

An ``optimal`` solution is primal feasible within ``TOL_FEAS`` (relative to
``max(1, |rhs|)``) and matches a vertex-enumeration oracle on small
instances, and :attr:`Solution.iterations` counts the HiGHS simplex
iterations of the solve.  Coefficients, objective terms and right-hand sides
must be finite.  Infinite bounds are the floats ``inf``/``-inf``, never
large finite sentinels, and every variable's domain holds a finite point
(``lower < inf``, ``upper > -inf``).
"""

from __future__ import annotations

import math
import threading
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
    Each store is a list of array chunks, joined into one on first read, and
    :meth:`highs_columns` keeps the arrays it assembles: reading a model
    writes to it until its first solve has read every store.  So a model
    must be solved once, on the thread that built it, before another thread
    sees it; after that, solves only read it.
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
        _check_bounds(lower, upper, self._n_variables)
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
            m = self._n_constraints
            kinds = [np.flatnonzero(relations == r) for r in (LESS_EQUAL, GREATER_EQUAL, EQUAL)]
            order = np.concatenate(kinds)
            position = np.argsort(order)
            # one key per (column, row) entry, column by column; bincount adds
            # the terms of an entry in the order they were given
            key, term = np.unique(columns * m + position[rows], return_inverse=True)
            # as floats: over no terms at all, bincount gives int64
            values = np.bincount(term, coefficients, key.size).astype(float)
            nonzero = values != 0.0
            key = key[nonzero]
            self._columns = HighsColumns(
                start=np.searchsorted(key, np.arange(self._n_variables + 1) * m).astype(np.int32),
                index=(key % m).astype(np.int32),
                value=values[nonzero],
                row_lower=np.where(relations == LESS_EQUAL, -INF, rhs)[order],
                row_upper=np.where(relations == GREATER_EQUAL, INF, rhs)[order],
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
    """The rows of a model as HiGHS's ``passModel`` takes them, in the row
    order of ``scipy.optimize.linprog``: the ``<=`` rows, the ``>=`` rows,
    then the ``==`` rows.  Each row is the range [``row_lower``,
    ``row_upper``]: (-inf, rhs) for ``<=``, (rhs, inf) for ``>=`` and (rhs,
    rhs) for ``==``.  The matrix is column-wise, rows ascending within a
    column, with the terms of each entry added in the order they were given
    and entries that cancel to 0 dropped."""

    start: np.ndarray       # int32: where each column's nonzeros start, and the end
    index: np.ndarray       # int32: the row of each nonzero
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray


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


def _check_bounds(lower: np.ndarray, upper: np.ndarray, first: int) -> None:
    """Raise unless every domain ``[lower[j], upper[j]]`` holds a finite
    point; the error names the variable as ``first + j``."""
    bad = np.flatnonzero(
        np.isnan(lower) | np.isnan(upper) | (lower > upper) | (lower == INF) | (upper == -INF)
    )
    if bad.size:
        j = bad[0]
        raise LinearProgramError(f"variable {first + j} has bounds [{lower[j]}, {upper[j]}]")


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise LinearProgramError(f"non-finite {what} {values[~np.isfinite(values)][0]}")


def _joined(chunks: list) -> tuple:
    """The single chunk of a store, concatenating its chunks first."""
    if len(chunks) > 1:
        chunks[:] = [tuple(np.concatenate(parts) for parts in zip(*chunks))]
    return chunks[0]


@dataclass(frozen=True, eq=False)
class Basis:
    """The simplex basis HiGHS ended an optimal solve of ``lp`` on, for a
    later solve of ``lp`` to start from.

    It is opaque: its statuses stay with HiGHS, in HiGHS's row order.
    Bases are compared by identity.
    """

    highs: object
    lp: LinearProgram


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: a status, the objective (the solve's objective
    vector at ``x``, not the value HiGHS reports), the variable
    values, the simplex iterations HiGHS ran and the basis it ended on.

    ``x`` is meaningful and ``basis`` set only when ``status == "optimal"``.
    """

    status: str
    objective: float
    x: np.ndarray
    iterations: int
    basis: Basis | None = None

    def values(self, variables) -> np.ndarray:
        return self.x[np.asarray(variables, dtype=np.intp)]


def solve(
    lp: LinearProgram, lower=None, upper=None, basis: Basis | None = None, costs=None
) -> Solution:
    """Solve ``lp`` to proven optimality with HiGHS.

    ``lower`` and ``upper`` (scalars or one value per variable, checked as
    :meth:`~LinearProgram.add_variables` checks them) replace the model's
    variable bounds for this solve only, and ``costs`` (one finite value per
    variable) its objective vector; the model is left unchanged, so its
    :meth:`~LinearProgram.highs_columns` serve every set of bounds and costs
    it is solved under.  ``basis``, one an earlier solve of ``lp`` ended on
    or :func:`slack_basis` made for it (a basis of another model is
    rejected), is where the simplex starts; without one, HiGHS presolves
    and starts from scratch.  Infeasibility and unboundedness are reported
    through :attr:`Solution.status`, never raised.  A model without
    variables is ``infeasible`` when one of its rows excludes 0 and
    ``optimal``, with an empty ``x``, otherwise.
    """
    lower = lp.lower if lower is None else _series(lower, lp.n_variables)
    upper = lp.upper if upper is None else _series(upper, lp.n_variables)
    _check_bounds(lower, upper, 0)
    if costs is None:
        c = lp.objective_vector()
    else:
        c = np.asarray(costs, dtype=float)
        if c.shape != (lp.n_variables,):
            raise LinearProgramError(f"{c.size} costs for {lp.n_variables} variables")
        _require_finite(c, "objective coefficient")
    if basis is not None and basis.lp is not lp:
        raise LinearProgramError(f"basis of {basis.lp.name!r} given for {lp.name!r}")
    status, x, iterations = _highs_solve(lp, c, lower, upper, basis)
    if status != OPTIMAL:
        return Solution(status, math.nan, np.full(lp.n_variables, math.nan), iterations)
    _check_feasible(lp, x, lower, upper)
    # this thread's instance still holds the model and the basis it ended on
    final = _highs_instance().getBasis()
    return Solution(
        OPTIMAL, float(c @ x), x, iterations,
        Basis(final, lp) if final.valid else None,
    )


def slack_basis(lp: LinearProgram, lower: np.ndarray, upper: np.ndarray) -> Basis:
    """The basis of ``lp`` under the variable bounds ``lower`` and ``upper``
    with every row basic and every column nonbasic: at its lower bound if
    that is finite, else at its upper bound if that is, else at 0."""
    from scipy.optimize._highspy import _core as core

    status = core.HighsBasisStatus
    slack = core.HighsBasis()
    slack.col_status = np.where(
        np.isfinite(lower), status.kLower,
        np.where(np.isfinite(upper), status.kUpper, status.kZero),
    ).tolist()
    slack.row_status = [status.kBasic] * lp.n_constraints
    slack.valid = True
    return Basis(slack, lp)


def _check_feasible(lp: LinearProgram, x: np.ndarray, lower, upper) -> None:
    """Raise unless ``x`` is finite, within ``lower`` and ``upper`` (absolute
    ``TOL_FEAS``) and satisfies every row of the model within ``TOL_FEAS *
    max(1, |rhs|)``; a row whose residual is not finite fails.  The error
    names the first violated row, with its residual ``A x - rhs``."""
    if (
        not np.isfinite(x).all()
        or np.any(lower - x > TOL_FEAS)
        or np.any(x - upper > TOL_FEAS)
    ):
        raise RuntimeError(f"solver returned out-of-bounds solution for {lp.name!r}")
    violated, resid = _violated_rows(lp, x)
    if violated.size:
        i = violated[0]
        raise RuntimeError(f"solver violated constraint {i} of {lp.name!r} by {resid[i]:.3e}")


def _violated_rows(lp: LinearProgram, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``lp`` that ``x`` violates by more than
    ``TOL_FEAS * max(1, |rhs|)`` or with a residual that is not finite, in
    the model's row order, and every row's residual ``A x - rhs``."""
    rows, columns, coefficients = _joined(lp._terms)
    relations, rhs = _joined(lp._rows)
    # a product that overflows is a violation below
    with np.errstate(over="ignore"):
        terms = coefficients * x[columns]
    resid = np.bincount(rows, terms, minlength=lp.n_constraints) - rhs
    slack = TOL_FEAS * np.maximum(1.0, np.abs(rhs))
    # written as "holds" so that a NaN residual fails every row
    holds = (relations == GREATER_EQUAL) | (resid <= slack)
    holds &= (relations == LESS_EQUAL) | (resid >= -slack)
    return np.flatnonzero(~(holds & np.isfinite(resid))), resid


# ---------------------------------------------------------------------------
# HiGHS
# ---------------------------------------------------------------------------

#: per thread, the HiGHS instance :func:`_highs_instance` made (``highs``)
_thread = threading.local()


def _highs_solve(lp: LinearProgram, c, lower, upper, basis=None) -> tuple[str, np.ndarray, int]:
    """Solve ``lp`` under the objective vector ``c`` and the bounds
    ``lower`` and ``upper`` with the HiGHS core on this thread's instance,
    emptied of the model it solved before, starting from ``basis`` if one is
    given.

    HiGHS gets the model's sense and ``c`` as they are, and the rows as the
    ranged column-wise arrays of :meth:`LinearProgram.highs_columns`, in the
    order ``scipy.optimize.linprog(method="highs")`` gives them (the ``<=``
    rows, then the ``>=`` rows, then the ``==`` rows), on which the vertex
    it returns among tied optima depends.
    """
    from scipy.optimize._highspy import _core as core

    a = lp.highs_columns()
    highs = _highs_instance()
    highs.clearModel()
    loaded = highs.passModel(
        lp.n_variables,
        lp.n_constraints,
        a.value.size,
        int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMaximize if lp.sense == "max" else core.ObjSense.kMinimize),
        0.0,
        c,
        lower,
        upper,
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
    if basis is not None and highs.setBasis(basis.highs) == core.HighsStatus.kError:
        raise LinearProgramError(f"highs rejected the basis given for {lp.name!r}")
    run_failed = highs.run() == core.HighsStatus.kError
    status = highs.getModelStatus()
    iterations = highs.getInfo().simplex_iteration_count
    if status == core.HighsModelStatus.kModelEmpty:
        # no variables: HiGHS runs nothing and reads no row, so each row
        # holds exactly when 0 satisfies it
        infeasible = _violated_rows(lp, np.zeros(0))[0].size
        return (INFEASIBLE, np.empty(0), 0) if infeasible else (OPTIMAL, np.zeros(0), 0)
    if status in (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kModelError):
        return INFEASIBLE, np.empty(0), iterations
    if status == core.HighsModelStatus.kUnbounded:
        return UNBOUNDED, np.empty(0), iterations
    if run_failed or status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"highs failed on {lp.name!r}: {highs.modelStatusToString(status)}")
    return OPTIMAL, np.array(highs.getSolution().col_value), iterations


def _highs_instance():
    """This thread's HiGHS instance, made on the thread's first solve with
    HiGHS's default options and its output off.  An instance solves one
    model at a time, so threads never share one."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        from scipy.optimize._highspy import _core as core

        highs = core._Highs()
        options = core.HighsOptions()
        options.output_flag = False
        if highs.passOptions(options) == core.HighsStatus.kError:
            raise RuntimeError("highs rejected its options")
        _thread.highs = highs
    return highs
