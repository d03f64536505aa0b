import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from flexmarket.lp import (
    INF,
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    TOL_FEAS,
    LinearProgram,
    LinearProgramError,
    _check_feasible,
    _highs_solve,
    solve,
)

from oracles import enumerate_lp_optimum, random_box_lp


def test_bound_attained_maximum():
    lp = LinearProgram(sense="max")
    x = lp.add_variables(1, 0.0, 5.0)
    lp.add_objectives(x, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.values(x) == pytest.approx([5.0], abs=1e-9)


def test_tight_constraint_minimum():
    lp = LinearProgram(sense="min")
    x = lp.add_variables(2)
    lp.add_objectives(x, 1.0)
    lp.add_constraints([(0, x, 1.0)], GREATER_EQUAL, [3.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_reported_as_status():
    lp = LinearProgram()
    x = lp.add_variables(1)
    lp.add_constraints([([0, 1], x, 1.0)], [GREATER_EQUAL, LESS_EQUAL], [5.0, 3.0])
    assert solve(lp).status == "infeasible"


def test_unbounded_reported_as_status():
    lp = LinearProgram(sense="max")
    x = lp.add_variables(1)
    lp.add_objectives(x, 1.0)
    assert solve(lp).status == "unbounded"


def test_free_variable_and_negative_bounds():
    lp = LinearProgram(sense="min")
    x, y = lp.add_variables(2, [-INF, -4.0], [INF, -1.0])
    lp.add_objectives([x, y], [2.0, 1.0])
    lp.add_constraints([([0, 0, 1], [x, y, x], 1.0)], GREATER_EQUAL, [-3.0, -10.0])
    sol = solve(lp)
    # x settles at the constraint corner: x = -3 - y with y = -1... cheapest
    # is x as low as allowed: x + y = -3 binds with y at its upper bound.
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2 * (-2.0) + (-1.0), abs=1e-8)


def test_equality_row_with_upper_bounds():
    lp = LinearProgram(sense="max")
    x = lp.add_variables(2, 0.0, 2.0)
    lp.add_objectives(x, [3.0, 1.0])
    lp.add_constraints([(0, x, 1.0)], EQUAL, [3.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.values(x) == pytest.approx([2.0, 1.0], abs=1e-9)


def test_fixed_variable():
    lp = LinearProgram(sense="min")
    x, y = lp.add_variables(2, [1.5, 0.0], [1.5, 4.0])
    lp.add_objectives([y], [1.0])
    lp.add_constraints([(0, [x, y], 1.0)], GREATER_EQUAL, [3.0])
    sol = solve(lp)
    assert sol.values([x]) == pytest.approx([1.5])
    assert sol.objective == pytest.approx(1.5, abs=1e-9)


def test_degenerate_cycling_instance_terminates():
    # classic cycling trap for the most-negative-reduced-cost rule
    lp = LinearProgram(sense="min")
    x = lp.add_variables(4)
    lp.add_objectives(x, [-0.75, 150.0, -0.02, 6.0])
    lp.add_constraints(
        [
            ([[0], [1]], x, [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0]]),
            (2, x[2], 1.0),
        ],
        LESS_EQUAL,
        [0.0, 0.0, 1.0],
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


@pytest.mark.parametrize("lower, upper", [(INF, INF), (-INF, -INF), (INF, 1.0), (0.0, -INF)])
def test_empty_variable_domain_rejected(lower, upper):
    # a domain with no finite point is rejected when it is added, not left
    # for the solver to report
    lp = LinearProgram()
    with pytest.raises(LinearProgramError):
        lp.add_variables(1, lower, upper)
    with pytest.raises(LinearProgramError):
        lp.add_variables(2, [0.0, lower], [1.0, upper])
    x = lp.add_variables(1, -INF, INF)
    lp.add_objectives(x, 1.0)
    lp.add_constraints([(0, x, 1.0)], GREATER_EQUAL, [2.0])
    assert lp.n_variables == 1
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.values(x) == pytest.approx([2.0], abs=1e-9)


def test_validation_rejects_bad_models():
    lp = LinearProgram()
    with pytest.raises(LinearProgramError):
        lp.add_variables(1, 2.0, 1.0)
    x = lp.add_variables(1)
    with pytest.raises(LinearProgramError):
        lp.add_constraints([(0, x + 7, 1.0)], LESS_EQUAL, [1.0])
    with pytest.raises(LinearProgramError):
        lp.add_constraints([(0, x, 1.0)], "<", [1.0])
    with pytest.raises(LinearProgramError):
        LinearProgram(sense="maximize")


def test_matches_enumeration_oracle_on_random_instances():
    rng = np.random.default_rng(20260808)
    solved = 0
    for _ in range(120):
        lp = random_box_lp(rng, max_vars=4, max_rows=4)
        expected_status, expected = enumerate_lp_optimum(lp)
        sol = solve(lp)
        assert sol.status == expected_status, lp.name
        if expected_status == "optimal":
            solved += 1
            assert sol.objective == pytest.approx(
                expected, abs=1e-6 * max(1.0, abs(expected))
            )
    assert solved >= 40  # the generator must actually produce feasible LPs


def test_feasibility_residuals_within_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(60):
        lp = random_box_lp(rng, max_vars=6, max_rows=6)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        a, rel, b = lp.dense_rows()
        lhs = a @ sol.x
        for i, r in enumerate(rel):
            scale = max(1.0, abs(b[i]))
            if r == EQUAL:
                assert abs(lhs[i] - b[i]) <= 1e-7 * scale
            elif r == LESS_EQUAL:
                assert lhs[i] - b[i] <= 1e-7 * scale
            else:
                assert b[i] - lhs[i] <= 1e-7 * scale
        assert np.all(sol.x >= np.asarray(lp.lower) - 1e-7)
        assert np.all(sol.x <= np.asarray(lp.upper) + 1e-7)


def test_identical_inputs_give_identical_solutions():
    rng = np.random.default_rng(99)
    lp = random_box_lp(rng, max_vars=6, max_rows=6)
    first = solve(lp)
    second = solve(lp)
    assert first.status == second.status
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)



# ---------------------------------------------------------------------------
# the triplet store and the sparse path, against the row-by-row references
# ---------------------------------------------------------------------------


class RecordingProgram(LinearProgram):
    """Keeps each row as the row-by-row store used to: the nonzero (index,
    coefficient) pairs, the relation and the rhs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorded = []

    def add_constraints(self, terms, relations, rhs):
        parts = [np.broadcast_arrays(*part) for part in terms]
        rows, columns, coefficients = (
            np.concatenate([np.ravel(part[k]) for part in parts]) for k in range(3)
        )
        rhs_values = np.ravel(rhs)
        for i, relation in enumerate(np.broadcast_to(relations, rhs_values.shape)):
            kept = (rows == i) & (coefficients != 0.0)
            self.recorded.append(
                (
                    columns[kept].astype(np.intp),
                    coefficients[kept].astype(float),
                    str(relation),
                    float(rhs_values[i]),
                )
            )
        return super().add_constraints(terms, relations, rhs)


def reference_dense_rows(lp):
    """The per-constraint ``np.add.at`` loop that built dense rows before."""
    a = np.zeros((len(lp.recorded), lp.n_variables))
    for i, (indices, coefficients, _, _) in enumerate(lp.recorded):
        np.add.at(a[i], indices, coefficients)
    return a


def reference_check(lp, x):
    """The row-by-row feasibility check ``solve`` ran before."""
    lower, upper = np.asarray(lp.lower), np.asarray(lp.upper)
    finite_lo, finite_up = np.isfinite(lower), np.isfinite(upper)
    if np.any(lower[finite_lo] - x[finite_lo] > TOL_FEAS) or np.any(
        x[finite_up] - upper[finite_up] > TOL_FEAS
    ):
        raise RuntimeError("out of bounds")
    for indices, coefficients, relation, rhs in lp.recorded:
        resid = float(coefficients @ x[indices]) - rhs
        scale = max(1.0, abs(rhs))
        if (
            (relation == EQUAL and abs(resid) > TOL_FEAS * scale)
            or (relation == LESS_EQUAL and resid > TOL_FEAS * scale)
            or (relation == GREATER_EQUAL and resid < -TOL_FEAS * scale)
        ):
            raise RuntimeError("violated")


def raises(check, lp, x):
    try:
        check(lp, x)
    except RuntimeError:
        return True
    return False


@pytest.fixture
def recorded_random_lp(monkeypatch):
    monkeypatch.setattr(oracles, "LinearProgram", RecordingProgram)
    return random_box_lp


def test_sparse_rows_match_reference_loop(recorded_random_lp):
    rng = np.random.default_rng(31)
    for _ in range(80):
        lp = recorded_random_lp(rng, max_vars=7, max_rows=7)
        a, relations, rhs = oracles.sparse_rows(lp)
        expected = reference_dense_rows(lp)
        assert a.shape == expected.shape
        assert np.array_equal(a.toarray(), expected)
        assert np.all(a.data != 0.0)
        assert relations.tolist() == [r for _, _, r, _ in lp.recorded]
        assert np.array_equal(rhs, [b for _, _, _, b in lp.recorded])
        dense, dense_relations, dense_rhs = lp.dense_rows()
        assert np.array_equal(dense, expected)
        assert dense_relations == relations.tolist()
        assert np.array_equal(dense_rhs, rhs)


def test_repeated_terms_sum_and_cancelled_terms_leave_no_zero():
    lp = LinearProgram()
    x, y = lp.add_variables(2)
    lp.add_constraints([(0, [x, y, x], [1.5, 2.0, 0.25])], LESS_EQUAL, [1.0])
    lp.add_constraints([(0, [x, y, x], [1.0, 3.0, -1.0])], EQUAL, [0.0])
    lp.add_constraints([([0, 0], y, [0.5, -0.5])], GREATER_EQUAL, [2.0])
    a, relations, rhs = oracles.sparse_rows(lp)
    assert np.array_equal(a.toarray(), [[1.75, 2.0], [0.0, 3.0], [0.0, 0.0]])
    assert a.nnz == 3 and np.all(a.data != 0.0)
    assert relations.tolist() == [LESS_EQUAL, EQUAL, GREATER_EQUAL]
    assert np.array_equal(lp.dense_rows()[0], a.toarray())


def reference_highs_columns(lp):
    """The arrays ``_highs_solve`` handed HiGHS when scipy.sparse built them:
    the CSR matrix, its rows in linprog's order, the ``>=`` rows negated, then
    converted to CSC.  Returns (start, index, value, row_lower, row_upper)."""
    a, relations, b = oracles.sparse_rows(lp)
    ub_rows = np.flatnonzero(relations == LESS_EQUAL)
    ge_rows = np.flatnonzero(relations == GREATER_EQUAL)
    eq_rows = np.flatnonzero(relations == EQUAL)
    n_ineq = ub_rows.size + ge_rows.size
    a = a[np.concatenate([ub_rows, ge_rows, eq_rows])]
    a.data[a.indptr[ub_rows.size]:a.indptr[n_ineq]] *= -1.0
    a = a.tocsc()
    row_upper = np.concatenate([b[ub_rows], -b[ge_rows], b[eq_rows]])
    row_lower = np.concatenate([np.full(n_ineq, -INF), b[eq_rows]])
    return a.indptr, a.indices, a.data, row_lower, row_upper


def assert_columns_match_reference(lp):
    columns = lp.highs_columns()
    actual = (columns.start, columns.index, columns.value, columns.row_lower, columns.row_upper)
    names = ("start", "index", "value", "row_lower", "row_upper")
    for name, got, expected in zip(names, actual, reference_highs_columns(lp)):
        # HiGHS takes int32 indices; scipy picks its index width itself
        assert got.dtype == (np.int32 if expected.dtype.kind == "i" else np.float64), name
        # bitwise, so that -0.0 and 0.0 differ as they would for HiGHS
        assert got.tobytes() == expected.astype(got.dtype).tobytes(), (lp.name, name)


def test_highs_columns_match_scipy_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(200):
        assert_columns_match_reference(random_box_lp(rng, max_vars=8, max_rows=8))


def repeated_terms_lp(rng, repeats):
    """A random model in which each (row, column) pair takes 1 to ``repeats``
    terms of mixed magnitude, so that the order of summation shows in the
    last bit, or two terms that cancel, all added in a shuffled order.

    Rows hold at most 16 terms: on longer rows scipy sums repeated terms in
    whatever order its unstable C++ sort leaves them."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    lp = LinearProgram(name=f"repeats-{repeats}")
    x = lp.add_variables(n, -1.0, 1.0)
    rows, columns, values = [], [], []
    for row in range(m):
        for column in rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False):
            if rng.random() < 0.25:
                terms = rng.standard_normal(1) * [1.0, -1.0]
            else:
                count = int(rng.integers(1, repeats + 1))
                terms = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 9, count)
            rows += [row] * terms.size
            columns += [column] * terms.size
            values += list(terms)
    shuffled = rng.permutation(len(values))
    lp.add_constraints(
        [(np.array(rows)[shuffled], x[columns][shuffled], np.array(values)[shuffled])],
        rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL], size=m),
        rng.uniform(-1.0, 1.0, size=m),
    )
    return lp


@pytest.mark.parametrize("repeats", [2, 3])
def test_highs_columns_match_scipy_on_repeated_and_cancelled_terms(repeats):
    rng = np.random.default_rng(repeats)
    cancelled = 0
    for _ in range(300):
        lp = repeated_terms_lp(rng, repeats)
        assert_columns_match_reference(lp)
        rows, columns, _ = lp._terms[0]
        cancelled += np.unique(rows * lp.n_variables + columns).size > lp.highs_columns().value.size
    assert cancelled > 0


def test_highs_columns_of_models_without_rows_or_terms():
    lp = LinearProgram(sense="max")
    x = lp.add_variables(3, 0.0, 1.0)
    lp.add_objectives(x, 1.0)
    assert_columns_match_reference(lp)
    assert lp.highs_columns().start.tolist() == [0, 0, 0, 0]
    # an empty row and one whose terms cancel: rows without a nonzero
    lp.add_constraints([], LESS_EQUAL, [0.0])
    lp.add_constraints([([0, 0], x[1], [2.0, -2.0])], GREATER_EQUAL, [-1.0])
    assert_columns_match_reference(lp)
    assert lp.highs_columns().index.size == 0
    assert solve(lp).values(x) == pytest.approx([1.0, 1.0, 1.0])
    lp.add_constraints([], GREATER_EQUAL, [1.0])
    assert solve(lp).status == "infeasible"


def test_highs_columns_match_scipy_on_agent_models():
    from test_agents import capture_agent_models

    models = capture_agent_models()
    assert len(models) == 7
    for lp in models.values():
        assert_columns_match_reference(lp)


def test_block_calls_build_rows_and_objective():
    lp = LinearProgram(sense="max")
    x = lp.add_variables(3, 0.0, [2.0, 3.0, 4.0])
    lp.add_objectives(x, [1.0, 2.0, 0.5])
    rows = lp.add_constraints(
        [([0, 0, 1, 1, 2, 2], x[[0, 1, 1, 2, 0, 2]], [1.0, 1.0, 1.0, -1.0, 1.0, 1.0])],
        [LESS_EQUAL, GREATER_EQUAL, EQUAL],
        [4.0, -1.0, 5.0],
    )
    assert rows.tolist() == [0, 1, 2]
    assert np.array_equal(
        oracles.sparse_rows(lp)[0].toarray(), [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]]
    )
    assert np.array_equal(lp.objective_vector(), [1.0, 2.0, 0.5])
    # x0 + x2 = 5 and x2 <= 4 force x0 >= 1; the other rows then fix
    # x1 = 4 - x0, so the objective is 10.5 - 1.5 x0
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(9.0, abs=1e-9)
    assert sol.values(x) == pytest.approx([1.0, 3.0, 4.0], abs=1e-9)


def test_block_validation():
    lp = LinearProgram()
    x = lp.add_variables(2)
    with pytest.raises(LinearProgramError):
        lp.add_variables(2, [0.0, 3.0], [1.0, 2.0])
    with pytest.raises(LinearProgramError):
        lp.add_variables(1, math.nan)
    with pytest.raises(LinearProgramError):
        lp.add_constraints([([0, 2], x, 1.0)], LESS_EQUAL, [1.0, 1.0])
    with pytest.raises(LinearProgramError):
        lp.add_constraints([(0, [0, 5], 1.0)], LESS_EQUAL, [1.0])
    with pytest.raises(LinearProgramError):
        lp.add_constraints([(0, x, 1.0)], ["<=="], [1.0])
    with pytest.raises(LinearProgramError):
        lp.add_objectives([2], [1.0])
    assert (lp.n_variables, lp.n_constraints) == (2, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_model_data_rejected(bad):
    # NaN * x <= 1 used to be accepted and "solved" to x = 0
    lp = LinearProgram(sense="max")
    x = lp.add_variables(1, 0.0, 1.0)
    lp.add_objectives(x, 1.0)
    with pytest.raises(LinearProgramError):
        lp.add_constraints([(0, x, bad)], LESS_EQUAL, [1.0])
    with pytest.raises(LinearProgramError):
        lp.add_constraints([(0, x, 1.0)], LESS_EQUAL, [bad])
    with pytest.raises(LinearProgramError):
        lp.add_constraints([([0, 1], x, [1.0, bad])], LESS_EQUAL, [1.0, 2.0])
    with pytest.raises(LinearProgramError):
        lp.add_objectives(x, bad)
    # a rejected call leaves the model as it was
    assert lp.n_constraints == 0
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.values(x) == pytest.approx([1.0], abs=1e-9)


@pytest.mark.parametrize("relation", [EQUAL, LESS_EQUAL, GREATER_EQUAL])
@pytest.mark.parametrize("rhs", [0.0, 0.5, 3.0, -250.0, 1e6])
def test_vectorised_check_raises_where_the_loop_raises(relation, rhs):
    for factor in (-1.5, -1.01, -0.99, -0.5, 0.0, 0.5, 0.99, 1.01, 1.5):
        lp = RecordingProgram()
        x, y = lp.add_variables(2, [-INF, 0.0], [INF, 1.0])
        lp.add_constraints([(0, [x, y], [2.0, 1.0])], relation, [rhs])
        lp.add_constraints([(0, y, 1.0)], LESS_EQUAL, [1.0])
        # 2x + y lands ``factor`` tolerances away from the rhs
        offset = factor * TOL_FEAS * max(1.0, abs(rhs))
        point = np.array([(rhs + offset - 0.25) / 2.0, 0.25])
        expected = raises(reference_check, lp, point)
        assert raises(_check_feasible, lp, point) == expected, factor
        outside = {EQUAL: abs(factor) > 1, LESS_EQUAL: factor > 1, GREATER_EQUAL: factor < -1}
        assert expected == outside[relation], factor


def test_vectorised_check_matches_loop_near_random_optima(recorded_random_lp):
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(60):
        lp = recorded_random_lp(rng, max_vars=6, max_rows=6)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        for scale in (0.0, 1e-9, 1e-6, 1e-3):
            point = sol.x + scale * rng.standard_normal(sol.x.size)
            assert raises(_check_feasible, lp, point) == raises(reference_check, lp, point)
            checked += 1
    assert checked >= 80


def test_check_treats_non_finite_values_as_violations():
    lp = LinearProgram()
    x = lp.add_variables(1, -INF, INF)
    lp.add_constraints([(0, x, 1e308)], GREATER_EQUAL, [0.0])
    # 1e308 * 10 overflows to inf, which compares as ">= 0" all the same
    with pytest.raises(RuntimeError):
        _check_feasible(lp, np.array([10.0]))
    with pytest.raises(RuntimeError):
        _check_feasible(lp, np.array([math.nan]))
    _check_feasible(lp, np.array([1.0]))


def test_check_names_the_first_violated_model_row_in_its_own_sign():
    lp = LinearProgram(name="probe")
    x, y, z = lp.add_variables(3, -INF, INF)
    lp.add_constraints(
        [([0, 1, 2], [x, y, z], 1.0)], [LESS_EQUAL, GREATER_EQUAL, EQUAL], [1.0, 1.0, 1.0]
    )
    # rows 1 and 2 both short by 0.5; HiGHS holds the ">=" row negated, after
    # the "<=" rows, but the error speaks of the model's row and residual
    with pytest.raises(RuntimeError, match=r"constraint 1 of 'probe' by -5\.000e-01$"):
        _check_feasible(lp, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(RuntimeError, match=r"constraint 0 of 'probe' by 5\.000e-01$"):
        _check_feasible(lp, np.array([1.5, 1.0, 1.0]))
    _check_feasible(lp, np.array([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# the HiGHS core path, against scipy's linprog on the same model
# ---------------------------------------------------------------------------

AGENT_MODELS = Path(__file__).with_name("agent_models.npz")


def linprog_reference(lp):
    """``scipy.optimize.linprog(method="highs")`` on ``lp``, as ``solve``
    called it before it handed the model to the HiGHS core itself."""
    from scipy.optimize import linprog

    c = lp.objective_vector()
    if lp.sense == "max":
        c = -c
    a, relations, b = oracles.sparse_rows(lp)
    ub_rows = np.flatnonzero(relations == LESS_EQUAL)
    ge_rows = np.flatnonzero(relations == GREATER_EQUAL)
    eq_rows = np.flatnonzero(relations == EQUAL)
    a_ub = b_ub = a_eq = b_eq = None
    if ub_rows.size or ge_rows.size:
        a_ub = a[np.concatenate([ub_rows, ge_rows])]
        a_ub.data[a_ub.indptr[ub_rows.size]:] *= -1.0
        b_ub = np.concatenate([b[ub_rows], -b[ge_rows]])
    if eq_rows.size:
        a_eq, b_eq = a[eq_rows], b[eq_rows]
    bounds = np.column_stack([lp.lower, lp.upper])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, res.x, res.nit


def assert_same_as_linprog(lp):
    status, x, iterations = _highs_solve(lp)
    expected_status, expected_x, expected_iterations = linprog_reference(lp)
    assert status == expected_status, lp.name
    assert iterations == expected_iterations, lp.name
    if status == "optimal":
        # bit for bit: the same model gives HiGHS the same vertex
        assert x.tobytes() == np.asarray(expected_x, dtype=float).tobytes(), lp.name
    return status


def agent_model(key):
    """The LP of agent stage ``key``, rebuilt from ``agent_models.npz``."""
    saved = np.load(AGENT_MODELS)
    part = {name.split(".", 1)[1]: saved[name] for name in saved.files if name.startswith(key + ".")}
    lp = LinearProgram(sense=str(part["sense"]), name=key)
    x = lp.add_variables(part["lower"].size, part["lower"], part["upper"])
    lp.add_objectives(x, part["objective"])
    rows = np.repeat(np.arange(part["rhs"].size), np.diff(part["indptr"]))
    lp.add_constraints([(rows, part["indices"], part["data"])], part["relations"], part["rhs"])
    return lp


def test_highs_core_matches_linprog_on_random_instances():
    rng = np.random.default_rng(20260808)
    statuses = [assert_same_as_linprog(random_box_lp(rng, max_vars=8, max_rows=8)) for _ in range(150)]
    assert statuses.count("optimal") >= 40
    assert statuses.count("infeasible") >= 10


def test_highs_core_matches_linprog_on_agent_models():
    keys = sorted({name.split(".")[0] for name in np.load(AGENT_MODELS).files})
    assert len(keys) == 7
    for key in keys:
        assert assert_same_as_linprog(agent_model(key)) == "optimal"
    assert solve(agent_model("producer_free")).iterations > 0


def test_highs_core_status_mapping():
    infeasible = LinearProgram()
    x = infeasible.add_variables(1, 0.0, 1.0)
    infeasible.add_constraints([(0, x, 1.0)], GREATER_EQUAL, [2.0])
    assert assert_same_as_linprog(infeasible) == "infeasible"

    unbounded = LinearProgram(sense="max")
    x, y = unbounded.add_variables(2)
    unbounded.add_objectives([x, y], [1.0, 1.0])
    unbounded.add_constraints([(0, [x, y], [1.0, -1.0])], LESS_EQUAL, [1.0])
    assert assert_same_as_linprog(unbounded) == "unbounded"
