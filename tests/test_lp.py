import math
import sys
import threading
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
    _highs_instance,
    _highs_solve,
    slack_basis,
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
    """The arrays ``_highs_solve`` hands HiGHS, built by scipy.sparse: the
    CSR matrix with its rows in linprog's order, converted to CSC, and each
    row's range.  Returns (start, index, value, row_lower, row_upper)."""
    a, relations, b = oracles.sparse_rows(lp)
    kinds = (LESS_EQUAL, GREATER_EQUAL, EQUAL)
    order = np.concatenate([np.flatnonzero(relations == r) for r in kinds])
    a = a[order].tocsc()
    relations, b = relations[order], b[order]
    row_lower = np.where(relations == LESS_EQUAL, -INF, b)
    row_upper = np.where(relations == GREATER_EQUAL, INF, b)
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
    for stage in models.values():
        assert_columns_match_reference(stage.lp)


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
        assert raises(own_bounds_check, lp, point) == expected, factor
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
            assert raises(own_bounds_check, lp, point) == raises(reference_check, lp, point)
            checked += 1
    assert checked >= 80


def own_bounds_check(lp, x):
    """``_check_feasible`` against the model's own bounds."""
    _check_feasible(lp, x, lp.lower, lp.upper)


def test_check_treats_non_finite_values_as_violations():
    lp = LinearProgram()
    x = lp.add_variables(1, -INF, INF)
    lp.add_constraints([(0, x, 1e308)], GREATER_EQUAL, [0.0])
    # 1e308 * 10 overflows to inf, which compares as ">= 0" all the same
    with pytest.raises(RuntimeError):
        own_bounds_check(lp, np.array([10.0]))
    with pytest.raises(RuntimeError):
        own_bounds_check(lp, np.array([math.nan]))
    own_bounds_check(lp, np.array([1.0]))


def test_check_names_the_first_violated_model_row_in_its_own_sign():
    lp = LinearProgram(name="probe")
    x, y, z = lp.add_variables(3, -INF, INF)
    lp.add_constraints(
        [([0, 1, 2], [x, y, z], 1.0)], [LESS_EQUAL, GREATER_EQUAL, EQUAL], [1.0, 1.0, 1.0]
    )
    # rows 1 and 2 both short by 0.5; HiGHS holds the ">=" row negated, after
    # the "<=" rows, but the error speaks of the model's row and residual
    with pytest.raises(RuntimeError, match=r"constraint 1 of 'probe' by -5\.000e-01$"):
        own_bounds_check(lp, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(RuntimeError, match=r"constraint 0 of 'probe' by 5\.000e-01$"):
        own_bounds_check(lp, np.array([1.5, 1.0, 1.0]))
    own_bounds_check(lp, np.array([1.0, 1.0, 1.0]))


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


def highs(lp):
    """``_highs_solve`` under the model's own bounds."""
    return _highs_solve(lp, lp.objective_vector(), lp.lower, lp.upper)


def assert_same_as_linprog(lp):
    status, x, iterations = highs(lp)
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

    # HiGHS calls a model without columns empty and reads none of its rows;
    # linprog takes no such model, so each row is judged at 0 here
    for rows, status in [
        ([], "optimal"),
        ([(LESS_EQUAL, -1.0)], "infeasible"),
        ([(GREATER_EQUAL, 1.0)], "infeasible"),
        ([(LESS_EQUAL, 1.0), (EQUAL, 1e-3)], "infeasible"),
        ([(LESS_EQUAL, 1.0), (EQUAL, 0.0)], "optimal"),
        # within TOL_FEAS of holding
        ([(LESS_EQUAL, -TOL_FEAS / 2)], "optimal"),
    ]:
        empty = LinearProgram(name="empty")
        for relation, rhs in rows:
            empty.add_constraints([], relation, [rhs])
        sol = solve(empty)
        assert (sol.status, sol.x.size, sol.iterations) == (status, 0, 0), rows
        assert sol.objective == 0.0 if status == "optimal" else math.isnan(sol.objective)


def unloadable():
    """A model HiGHS refuses to load: a coefficient above its largest
    accepted matrix value."""
    lp = LinearProgram(name="unloadable")
    x = lp.add_variables(1)
    lp.add_objectives(x, 1.0)
    lp.add_constraints([(0, x, 1e300)], LESS_EQUAL, [1.0])
    return lp


def solve_mix():
    """An infeasible, an unbounded and an unloadable model, then the seven
    agent models, then all ten again in reverse."""
    infeasible = LinearProgram(name="infeasible")
    x = infeasible.add_variables(1, 0.0, 1.0)
    infeasible.add_constraints([(0, x, 1.0)], GREATER_EQUAL, [2.0])
    unbounded = LinearProgram(sense="max", name="unbounded")
    x = unbounded.add_variables(1)
    unbounded.add_objectives(x, 1.0)
    keys = sorted({name.split(".")[0] for name in np.load(AGENT_MODELS).files})
    models = [infeasible, unbounded, unloadable(), *map(agent_model, keys)]
    return models + models[::-1]


def outcome(result):
    status, x, iterations = result
    return status, iterations, x.tobytes()


def in_threads(*jobs, timeout=120.0):
    """Run each job on a thread of its own, so on a HiGHS instance of its
    own, all started together, and return their results."""
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def work(k):
        start.wait()
        results[k] = jobs[k]()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_reused_highs_instance_keeps_nothing_between_solves():
    models = solve_mix()
    instance = _highs_instance()
    reused = [outcome(highs(model)) for model in models]
    assert _highs_instance() is instance
    fresh = [in_threads(lambda: outcome(highs(model)))[0] for model in models]
    assert reused == fresh
    assert [status for status, _, _ in reused[:10]] == (
        ["infeasible", "unbounded", "infeasible"] + ["optimal"] * 7
    )


def test_threads_solve_on_instances_of_their_own():
    models = solve_mix()
    sequential = [outcome(highs(model)) for model in models]
    half = len(models) // 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = in_threads(
            lambda: ([outcome(highs(m)) for m in models[:half] * 3], _highs_instance()),
            lambda: ([outcome(highs(m)) for m in models[half:] * 3], _highs_instance()),
        )
    finally:
        sys.setswitchinterval(interval)
    (first, first_instance), (second, second_instance) = results
    assert first == sequential[:half] * 3
    assert second == sequential[half:] * 3
    assert len({id(first_instance), id(second_instance), id(_highs_instance())}) == 3


#: the stage whose model each agent stage solves under its own bounds
STAGE_ONE = {
    "producer_free": "producer_free",
    "producer_sold": "producer_free",
    "producer_reserved": "producer_free",
    "retailer_bands": "retailer_bands",
    "retailer_sold": "retailer_bands",
    "retailer_pairs": "retailer_pairs",
    "retailer_no_bands": "retailer_no_bands",
}


def test_replaced_bounds_solve_as_the_model_built_with_them():
    from test_agents import capture_agent_models

    captured = capture_agent_models()
    assert sorted(captured) == sorted(STAGE_ONE)
    for key, first in STAGE_ONE.items():
        base = captured[first].lp
        assert captured[key].lp is base, key
        base_lower, base_upper = base.lower.copy(), base.upper.copy()
        columns = base.highs_columns()
        built = agent_model(key)
        costs = captured[key].costs
        replaced_highs = _highs_solve(base, costs, built.lower, built.upper)
        assert outcome(replaced_highs) == outcome(highs(built)), key
        replaced, rebuilt = solve(base, built.lower, built.upper, costs=costs), solve(built)
        assert replaced.x.tobytes() == rebuilt.x.tobytes(), key
        assert replaced.objective == rebuilt.objective, key
        assert base.highs_columns() is columns, key
        assert base.lower.tobytes() == base_lower.tobytes(), key
        assert base.upper.tobytes() == base_upper.tobytes(), key


def test_objective_is_the_models_own_objective_at_x():
    """``Solution.objective`` is the solve's objective vector at ``x``, bit
    for bit: the costs the producer stages give (theirs are ``max``
    models), and the model's own on the retailer stages and on a
    reserve-clearing and a settlement LP."""
    from test_agents import capture_agent_models
    from test_imbalance import capture_market_models

    models = list(capture_agent_models().values())
    assert {stage.lp.sense for stage in models} == {"min", "max"}
    markets = capture_market_models()
    for name in ("reserve-clearing", "settlement"):
        lp = next(lp for key, lp in markets.items() if key.endswith(name))
        models.append((lp, None, None, None))
    for lp, lower, upper, costs in models:
        sol = solve(lp, lower, upper, costs=costs)
        assert sol.status == "optimal", lp.name
        c = lp.objective_vector() if costs is None else costs
        assert sol.objective.hex() == float(c @ sol.x).hex(), lp.name


@pytest.mark.parametrize(
    "lower, upper", [(math.nan, 1.0), (0.0, math.nan), (2.0, 1.0), (INF, INF), (-INF, -INF)]
)
def test_replaced_bounds_are_checked_as_added_ones(lower, upper):
    lp = LinearProgram()
    x = lp.add_variables(5, 0.0, 1.0)
    lp.add_objectives(x, 1.0)
    lower_bounds, upper_bounds = np.zeros(5), np.ones(5)
    lower_bounds[3], upper_bounds[3] = lower, upper
    with pytest.raises(LinearProgramError, match=r"^variable 3 has bounds"):
        solve(lp, lower_bounds, upper_bounds)
    with pytest.raises(LinearProgramError, match=r"^variable 8 has bounds"):
        lp.add_variables(5, lower_bounds, upper_bounds)


def test_replaced_bounds_hold_for_one_solve():
    lp = LinearProgram(sense="max")
    x = lp.add_variables(2, 0.0, 1.0)
    lp.add_objectives(x, 1.0)
    lp.add_constraints([(0, x, 1.0)], LESS_EQUAL, [1.5])
    # a scalar bound, one per variable, or only one side replaced
    assert solve(lp, upper=[1.0, 0.25]).objective == pytest.approx(1.25)
    assert solve(lp, 0.5, 0.5).values(x) == pytest.approx([0.5, 0.5])
    assert solve(lp, lower=[0.0, 1.0]).values(x) == pytest.approx([0.5, 1.0])
    assert solve(lp, [2.0, 0.0], 3.0).status == "infeasible"
    assert solve(lp).objective == pytest.approx(1.5)
    assert (lp.lower.tolist(), lp.upper.tolist()) == ([0.0, 0.0], [1.0, 1.0])


def test_replaced_costs_hold_for_one_solve():
    lp = LinearProgram(sense="max")
    x = lp.add_variables(2, 0.0, 1.0)
    lp.add_objectives(x, [1.0, 2.0])
    lp.add_constraints([(0, x, 1.0)], LESS_EQUAL, [1.0])
    first = solve(lp, costs=[3.0, 1.0])
    assert first.values(x) == pytest.approx([1.0, 0.0])
    assert first.objective == pytest.approx(3.0)
    assert solve(lp).values(x) == pytest.approx([0.0, 1.0])
    # from the basis a solve under other costs ended on
    assert solve(lp, basis=first.basis).objective == pytest.approx(2.0)
    assert lp.objective_vector().tolist() == [1.0, 2.0]
    for costs in ([1.0, math.nan], [1.0, -INF]):
        with pytest.raises(LinearProgramError, match="^non-finite objective coefficient"):
            solve(lp, costs=costs)
    for costs in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(LinearProgramError, match="costs for 2 variables"):
            solve(lp, costs=costs)


def with_pin_slot(lp, column, floor):
    """``lp`` with a pin slot on variable ``column``: a slack ``z`` fixed
    at 0 and a free tally ``q`` in the row ``q = x + z`` (a ``floor``) or
    ``q = x - z`` (a cap), the slot as a producer model has it while
    inactive.  Returns the model and the handles of ``z`` and ``q``."""
    other = sibling(lp)
    z = other.add_variables(1, 0.0, 0.0)
    q = other.add_variables(1, -INF, INF)
    other.add_constraints(
        [(0, q, 1.0), (0, column, -1.0), (0, z, -1.0 if floor else 1.0)], EQUAL, [0.0]
    )
    return other, z, q


def test_an_inactive_pin_slot_keeps_its_slack_at_0_and_moves_no_optimum():
    rng = np.random.default_rng(20261021)
    checked = 0
    while checked < 60:
        lp = random_box_lp(rng, max_vars=6, max_rows=6)
        plain = solve(lp)
        if plain.status != "optimal":
            continue
        column = int(rng.integers(lp.n_variables))
        slotted, z, q = with_pin_slot(lp, column, floor=bool(rng.integers(2)))
        # a penalty of 0, one that would reward the slack and one that
        # punishes it: none moves a slack fixed at 0
        for penalty in (0.0, 50.0, -50.0):
            costs = np.concatenate([lp.objective_vector(), [penalty, 0.0]])
            sol = solve(slotted, costs=costs)
            assert sol.status == "optimal"
            assert sol.values(z)[0] == 0.0
            assert sol.values(q)[0] == pytest.approx(sol.x[column], abs=TOL_FEAS)
            assert abs(sol.objective - plain.objective) <= TOL_FEAS * max(1.0, abs(plain.objective))
        checked += 1


# ---------------------------------------------------------------------------
# starting from a basis
# ---------------------------------------------------------------------------


def sibling(lp, extra=0):
    """A model with ``lp``'s variables, rows and objective, then ``extra``
    new variables in [0, 1], each in a new ``<=`` row of its own with the
    first variable."""
    a, relations, rhs = lp.dense_rows()
    other = LinearProgram(sense=lp.sense, name=lp.name)
    x = other.add_variables(lp.n_variables, lp.lower, lp.upper)
    other.add_objectives(x, lp.objective_vector())
    rows, columns = np.nonzero(a)
    other.add_constraints([(rows, columns, a[rows, columns])], relations, rhs)
    if extra:
        z = other.add_variables(extra, 0.0, 1.0)
        new = np.arange(extra)
        other.add_constraints([(new, z, 1.0), (new, x[0], 1.0)], LESS_EQUAL, np.full(extra, 10.0))
    return other


def assert_same_optimum(warm, cold):
    assert warm.status == cold.status == "optimal"
    assert abs(warm.objective - cold.objective) <= TOL_FEAS * max(1.0, abs(cold.objective))


def test_a_solve_from_a_basis_matches_the_cold_optimum():
    rng = np.random.default_rng(20261020)
    started = 0
    while started < 60:
        lp = random_box_lp(rng, max_vars=8, max_rows=8)
        first = solve(lp)
        if first.status != "optimal":
            continue
        again = solve(lp, basis=first.basis)
        assert_same_optimum(again, first)
        assert again.iterations == 0
        # another objective, and other bounds, from the same basis
        costs = rng.uniform(-10.0, 10.0, lp.n_variables)
        cold = solve(lp, costs=costs)
        if cold.status == "optimal":
            assert_same_optimum(solve(lp, basis=first.basis, costs=costs), cold)
        upper = lp.upper - 0.25
        cold = solve(lp, upper=upper)
        if cold.status == "optimal":
            assert_same_optimum(solve(lp, upper=upper, basis=first.basis), cold)
        started += 1


def test_a_solve_from_the_slack_basis_matches_the_cold_optimum():
    rng = np.random.default_rng(20261022)
    started = 0
    while started < 60:
        lp = random_box_lp(rng, max_vars=8, max_rows=8)
        # a column free on either side or both, as a producer's pin tally is
        lower, upper = lp.lower.copy(), lp.upper.copy()
        column = int(rng.integers(lp.n_variables))
        kind = started % 3
        lower[column] = -INF if kind != 1 else lower[column]
        upper[column] = INF if kind != 2 else upper[column]
        cold = solve(lp, lower, upper)
        if cold.status != "optimal":
            continue
        assert_same_optimum(solve(lp, lower, upper, basis=slack_basis(lp, lower, upper)), cold)
        started += 1


def two_rows(relations):
    """max x + 2y over [0, 1]^2 with the rows x + y (relation 0) 1.5 and
    x - y (relation 1) -1."""
    lp = LinearProgram(sense="max")
    x = lp.add_variables(2, 0.0, 1.0)
    lp.add_objectives(x, [1.0, 2.0])
    lp.add_constraints([([0, 0], x, 1.0), ([1, 1], x, [1.0, -1.0])], relations, [1.5, -1.0])
    return lp


def test_a_basis_of_another_model_is_rejected():
    lp = two_rows([LESS_EQUAL, GREATER_EQUAL])
    basis = solve(lp).basis
    # other columns and rows, the rows in another order, and the same layout
    for other in (
        sibling(lp, extra=1),
        two_rows([GREATER_EQUAL, LESS_EQUAL]),
        two_rows([LESS_EQUAL, GREATER_EQUAL]),
    ):
        with pytest.raises(LinearProgramError, match="^basis of '' given for ''$"):
            solve(other, basis=basis)
    assert solve(lp, basis=basis).iterations == 0


def test_a_non_optimal_solution_has_no_basis():
    infeasible = LinearProgram()
    x = infeasible.add_variables(1, 0.0, 1.0)
    infeasible.add_constraints([(0, x, 1.0)], GREATER_EQUAL, [2.0])
    unbounded = LinearProgram(sense="max")
    x = unbounded.add_variables(1)
    unbounded.add_objectives(x, 1.0)
    for lp, status in ((infeasible, "infeasible"), (unbounded, "unbounded"), (unloadable(), "infeasible")):
        sol = solve(lp)
        assert (sol.status, sol.basis) == (status, None)


def test_the_census_oracle_tells_a_tie_from_a_unique_optimum():
    for weights, tied in (([1.0, 1.0], True), ([2.0, 1.0], False)):
        lp = LinearProgram(sense="max")
        x = lp.add_variables(2, 0.0, 1.0)
        lp.add_objectives(x, weights)
        lp.add_constraints([(0, x, 1.0)], LESS_EQUAL, [1.0])
        assert oracles.dual_degenerate(lp, lp.lower, lp.upper) is tied
