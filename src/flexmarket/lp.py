"""Linear programming on bounded variables, stored as sparse triplets.

Every optimization in this package (market clearings, agent position
problems, settlement) is expressed as a :class:`LinearProgram` and handed to
:func:`solve`.  Models are built from array blocks:
:meth:`~LinearProgram.add_variables` appends bounded variables,
:meth:`~LinearProgram.add_objectives` objective terms and
:meth:`~LinearProgram.add_constraints` rows given as (row, column,
coefficient) triplets; these are the only way to build a model.
:meth:`~LinearProgram.sparse_rows` assembles the CSR matrix once per solve,
summing repeated terms and dropping cancelled ones.
:meth:`~LinearProgram.dense_rows` is read only by the test oracles and the
benchmark tracer.

Every model is solved by the HiGHS dual simplex (Huangfu & Hall, *Math.
Prog. Comp.* 2018) through scipy's ``_highspy`` core binding: one ``HighsLp``
with the CSC matrix, solved on a fresh instance with the model and the
options ``scipy.optimize.linprog(method="highs")`` would pass, and the
optimum checked as ``linprog`` checks it.  scipy is imported only when a
model is assembled for a solve, so importing this package loads none of it.

Inside a ``with solve_memo():`` block, :func:`solve` hands each distinct
model to HiGHS once.  The key is a digest of what decides the HiGHS result:
the sense and the bytes of the CSR matrix, relations, right-hand sides,
bounds and objective vector.  Symmetric actors and repeated rounds build
identical models; HiGHS on a fresh instance is deterministic, so a hit
returns the stored status and a copy of the stored ``x``, with
``iterations == 0`` because no simplex ran.  The feasibility check and the
objective still run on every call, and a solve that raised is never stored.
:func:`flexmarket.simulator.run` owns the memo: it opens one around each
round and drops it when the round ends, so the memo holds one round's
models and nothing is reused across rounds or runs.  Outside a block every
call solves.

An ``optimal`` solution is primal feasible within ``TOL_FEAS`` (relative to
``max(1, |rhs|)``) and matches a vertex-enumeration oracle on small
instances, and :attr:`Solution.iterations` counts the HiGHS simplex
iterations of the solve.  Coefficients, objective terms and right-hand sides
must be finite.  Infinite bounds are the floats ``inf``/``-inf``, never
large finite sentinels, and every variable's domain holds a finite point
(``lower < inf``, ``upper > -inf``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import math
from dataclasses import dataclass

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
        self._matrix = None
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
        """(A, relations, b) with one dense row per constraint, for the test
        oracles and the benchmark tracer."""
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
    the simplex iterations HiGHS ran.

    ``x`` is meaningful only when ``status == "optimal"``.
    """

    status: str
    objective: float
    x: np.ndarray
    iterations: int

    def values(self, variables) -> np.ndarray:
        return self.x[np.asarray(variables, dtype=np.intp)]


#: the open solve memo (model digest -> HiGHS result), or None outside one
_memo: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "lp_solve_memo", default=None
)


@contextlib.contextmanager
def solve_memo():
    """Within this block, :func:`solve` runs HiGHS once per distinct model.

    The memo is dropped when the block exits, also through an exception, so
    nothing is reused outside it.
    """
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def solve(lp: LinearProgram) -> Solution:
    """Solve ``lp`` to proven optimality with HiGHS.

    Infeasibility and unboundedness are reported through
    :attr:`Solution.status`, never raised.  Inside :func:`solve_memo`, a
    model identical to one solved before reuses that result with
    ``iterations == 0``.
    """
    memo = _memo.get()
    if memo is None:
        status, x, iterations = _highs_solve(lp)
    else:
        key = _model_digest(lp)
        if key in memo:
            status, x, _ = memo[key]
            iterations = 0
        else:
            status, x, iterations = memo[key] = _highs_solve(lp)
        x = x.copy()
    if status != OPTIMAL:
        return Solution(status, math.nan, np.full(lp.n_variables, math.nan), iterations)
    _check_feasible(lp, x)
    objective = float(lp.objective_vector() @ x)
    return Solution(OPTIMAL, objective, x, iterations)


def _model_digest(lp: LinearProgram) -> bytes:
    """A digest of everything that decides the HiGHS result of ``lp``."""
    a, relations, rhs = lp.sparse_rows()
    digest = hashlib.blake2b(lp.sense.encode())
    for part in (
        a.indptr, a.indices, a.data, relations, rhs, lp.lower, lp.upper, lp.objective_vector()
    ):
        # the length and dtype keep parts from running into each other
        digest.update(f"{part.dtype.str}{part.size}:".encode())
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.digest()


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
# HiGHS
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
