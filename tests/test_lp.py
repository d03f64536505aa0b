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
    HIGHS_CHECK_TOL,
    TOL_FEAS,
    LinearProgram,
    LinearProgramError,
    _check_feasible,
    _check_highs_result,
    _highs_solve,
    solve,
    solve_memo,
)
import flexmarket.lp as lp_module

from oracles import enumerate_lp_optimum, random_box_lp


@pytest.fixture(params=["highs"])
def solver(request):
    """The function under test, :func:`solve`; the test ids name HiGHS, the
    solver behind it."""
    return solve


def test_bound_attained_maximum(solver):
    lp = LinearProgram(sense="max")
    x = lp.add_variable(0.0, 5.0)
    lp.add_objective(x, 1.0)
    sol = solver(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.value(x) == pytest.approx(5.0, abs=1e-9)


def test_tight_constraint_minimum(solver):
    lp = LinearProgram(sense="min")
    x = lp.add_variable()
    y = lp.add_variable()
    lp.add_objective(x, 1.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, GREATER_EQUAL, 3.0)
    sol = solver(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_reported_as_status(solver):
    lp = LinearProgram()
    x = lp.add_variable()
    lp.add_constraint({x: 1.0}, GREATER_EQUAL, 5.0)
    lp.add_constraint({x: 1.0}, LESS_EQUAL, 3.0)
    assert solver(lp).status == "infeasible"


def test_unbounded_reported_as_status(solver):
    lp = LinearProgram(sense="max")
    x = lp.add_variable()
    lp.add_objective(x, 1.0)
    assert solver(lp).status == "unbounded"


def test_free_variable_and_negative_bounds(solver):
    lp = LinearProgram(sense="min")
    x = lp.add_variable(-INF, INF)
    y = lp.add_variable(-4.0, -1.0)
    lp.add_objective(x, 2.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, GREATER_EQUAL, -3.0)
    lp.add_constraint({x: 1.0}, GREATER_EQUAL, -10.0)
    sol = solver(lp)
    # x settles at the constraint corner: x = -3 - y with y = -1... cheapest
    # is x as low as allowed: x + y = -3 binds with y at its upper bound.
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2 * (-2.0) + (-1.0), abs=1e-8)


def test_equality_row_with_upper_bounds(solver):
    lp = LinearProgram(sense="max")
    x = lp.add_variable(0.0, 2.0)
    y = lp.add_variable(0.0, 2.0)
    lp.add_objective(x, 3.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, EQUAL, 3.0)
    sol = solver(lp)
    assert sol.status == "optimal"
    assert sol.value(x) == pytest.approx(2.0, abs=1e-9)
    assert sol.value(y) == pytest.approx(1.0, abs=1e-9)


def test_fixed_variable():
    lp = LinearProgram(sense="min")
    x = lp.add_variable(1.5, 1.5)
    y = lp.add_variable(0.0, 4.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, GREATER_EQUAL, 3.0)
    sol = solve(lp)
    assert sol.value(x) == pytest.approx(1.5)
    assert sol.objective == pytest.approx(1.5, abs=1e-9)


def test_degenerate_cycling_instance_terminates():
    # classic cycling trap for the most-negative-reduced-cost rule
    lp = LinearProgram(sense="min")
    x = [lp.add_variable() for _ in range(4)]
    for var, cost in zip(x, [-0.75, 150.0, -0.02, 6.0]):
        lp.add_objective(var, cost)
    lp.add_constraint(list(zip(x, [0.25, -60.0, -0.04, 9.0])), LESS_EQUAL, 0.0)
    lp.add_constraint(list(zip(x, [0.5, -90.0, -0.02, 3.0])), LESS_EQUAL, 0.0)
    lp.add_constraint({x[2]: 1.0}, LESS_EQUAL, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


@pytest.mark.parametrize("lower, upper", [(INF, INF), (-INF, -INF), (INF, 1.0), (0.0, -INF)])
def test_empty_variable_domain_rejected(solver, lower, upper):
    # a domain with no finite point is rejected when it is added, not left
    # for the solver to report
    lp = LinearProgram()
    with pytest.raises(LinearProgramError):
        lp.add_variable(lower, upper)
    with pytest.raises(LinearProgramError):
        lp.add_variables(2, [0.0, lower], [1.0, upper])
    x = lp.add_variable(-INF, INF)
    lp.add_objective(x, 1.0)
    lp.add_constraint({x: 1.0}, GREATER_EQUAL, 2.0)
    assert lp.n_variables == 1
    sol = solver(lp)
    assert sol.status == "optimal"
    assert sol.value(x) == pytest.approx(2.0, abs=1e-9)


def test_validation_rejects_bad_models():
    lp = LinearProgram()
    with pytest.raises(LinearProgramError):
        lp.add_variable(2.0, 1.0)
    x = lp.add_variable()
    with pytest.raises(LinearProgramError):
        lp.add_constraint({x + 7: 1.0}, LESS_EQUAL, 1.0)
    with pytest.raises(LinearProgramError):
        lp.add_constraint({x: 1.0}, "<", 1.0)
    with pytest.raises(LinearProgramError):
        LinearProgram(sense="maximize")


def test_matches_enumeration_oracle_on_random_instances(solver):
    rng = np.random.default_rng(20260808)
    solved = 0
    for _ in range(120):
        lp = random_box_lp(rng, max_vars=4, max_rows=4)
        expected_status, expected = enumerate_lp_optimum(lp)
        sol = solver(lp)
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
# the solve memo
# ---------------------------------------------------------------------------


@pytest.fixture
def highs_calls(monkeypatch):
    """Counts the models that reach HiGHS."""
    calls = []

    def counting(lp):
        calls.append(lp)
        return _highs_solve(lp)

    monkeypatch.setattr(lp_module, "_highs_solve", counting)
    return calls


def memo_model(
    coefficient=2.0,
    lower=0.0,
    upper=4.0,
    rhs=3.0,
    cost=1.0,
    relation=GREATER_EQUAL,
    sense="min",
    term_rows=(0, 0),
    term_columns=(0, 1),
):
    """Three variables (the last two alike), two rows: ``coefficient * x0 +
    x1 relation rhs`` and an empty row ``0 relation 0``.  ``term_rows`` and
    ``term_columns`` move a term to the other row or to ``x2``."""
    lp = LinearProgram(sense=sense)
    x = lp.add_variables(3, lower, [upper, 5.0, 5.0])
    lp.add_objectives(x, [cost, 2.0, 2.0])
    lp.add_constraints(
        [(term_rows, x[list(term_columns)], [coefficient, 1.0])], relation, [rhs, 0.0]
    )
    return lp


def test_memo_solves_identical_models_once(highs_calls):
    with solve_memo():
        first = solve(memo_model())
        second = solve(memo_model())
        assert len(highs_calls) == 1
        assert second.iterations == 0
        assert second.status == first.status == "optimal"
        assert second.objective == first.objective
        assert np.array_equal(first.x, second.x)
        expected = second.x.copy()
        first.x[:] = -1.0
        assert np.array_equal(second.x, expected)
        second.x[:] = -2.0
        assert np.array_equal(solve(memo_model()).x, expected)
    assert len(highs_calls) == 1


def _next_up(value):
    return float(np.nextafter(value, INF))


@pytest.mark.parametrize(
    "change",
    [
        dict(coefficient=_next_up(2.0)),
        dict(term_rows=(0, 1)),
        dict(term_columns=(0, 2)),
        dict(lower=_next_up(0.0)),
        dict(upper=_next_up(4.0)),
        dict(rhs=_next_up(3.0)),
        dict(cost=_next_up(1.0)),
        dict(relation=EQUAL),
        dict(sense="max"),
    ],
    ids=[
        "coefficient", "row", "column", "lower", "upper", "rhs", "objective", "relation", "sense"
    ],
)
def test_memo_misses_any_changed_model(highs_calls, change):
    with solve_memo():
        solve(memo_model())
        solve(memo_model(**change))
    assert len(highs_calls) == 2


def test_memo_reuses_nothing_outside_its_scope(highs_calls):
    solve(memo_model())
    solve(memo_model())
    assert len(highs_calls) == 2
    with pytest.raises(KeyError):
        with solve_memo():
            solve(memo_model())
            raise KeyError("round failed")
    assert len(highs_calls) == 3
    solve(memo_model())
    with solve_memo():
        solve(memo_model())
    assert len(highs_calls) == 5


def test_memo_never_stores_a_solve_that_raised(monkeypatch):
    calls = []

    def failing_once(lp):
        calls.append(lp)
        if len(calls) == 1:
            raise RuntimeError("highs failed")
        return _highs_solve(lp)

    monkeypatch.setattr(lp_module, "_highs_solve", failing_once)
    with solve_memo():
        with pytest.raises(RuntimeError):
            solve(memo_model())
        assert solve(memo_model()).status == "optimal"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the triplet store and the sparse path, against the row-by-row references
# ---------------------------------------------------------------------------


class RecordingProgram(LinearProgram):
    """Keeps each scalar constraint as the row-by-row store used to: the
    nonzero (index, coefficient) pairs, the relation and the rhs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorded = []

    def add_constraint(self, terms, relation, rhs):
        pairs = list(terms.items() if isinstance(terms, dict) else terms)
        kept = [(var, float(c)) for var, c in pairs if c != 0.0]
        self.recorded.append(
            (
                np.asarray([var for var, _ in kept], dtype=np.intp),
                np.asarray([c for _, c in kept]),
                relation,
                float(rhs),
            )
        )
        return super().add_constraint(terms, relation, rhs)


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
        a, relations, rhs = lp.sparse_rows()
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
    lp.add_constraint([(x, 1.5), (y, 2.0), (x, 0.25)], LESS_EQUAL, 1.0)
    lp.add_constraint([(x, 1.0), (y, 3.0), (x, -1.0)], EQUAL, 0.0)
    lp.add_constraints([([0, 0], y, [0.5, -0.5])], GREATER_EQUAL, [2.0])
    a, relations, rhs = lp.sparse_rows()
    assert np.array_equal(a.toarray(), [[1.75, 2.0], [0.0, 3.0], [0.0, 0.0]])
    assert a.nnz == 3 and np.all(a.data != 0.0)
    assert relations.tolist() == [LESS_EQUAL, EQUAL, GREATER_EQUAL]
    assert np.array_equal(lp.dense_rows()[0], a.toarray())


def test_block_calls_build_the_scalar_model(solver):
    scalar = LinearProgram(sense="max")
    xs = [scalar.add_variable(0.0, up) for up in (2.0, 3.0, 4.0)]
    for var, coef in zip(xs, (1.0, 2.0, 0.5)):
        scalar.add_objective(var, coef)
    scalar.add_constraint({xs[0]: 1.0, xs[1]: 1.0}, LESS_EQUAL, 4.0)
    scalar.add_constraint({xs[1]: 1.0, xs[2]: -1.0}, GREATER_EQUAL, -1.0)
    scalar.add_constraint({xs[0]: 1.0, xs[2]: 1.0}, EQUAL, 5.0)

    block = LinearProgram(sense="max")
    x = block.add_variables(3, 0.0, [2.0, 3.0, 4.0])
    block.add_objectives(x, [1.0, 2.0, 0.5])
    rows = block.add_constraints(
        [([0, 0, 1, 1, 2, 2], x[[0, 1, 1, 2, 0, 2]], [1.0, 1.0, 1.0, -1.0, 1.0, 1.0])],
        [LESS_EQUAL, GREATER_EQUAL, EQUAL],
        [4.0, -1.0, 5.0],
    )
    assert rows.tolist() == [0, 1, 2]
    assert np.array_equal(block.sparse_rows()[0].toarray(), scalar.sparse_rows()[0].toarray())
    assert np.array_equal(block.objective_vector(), scalar.objective_vector())
    first, second = solver(scalar), solver(block)
    assert first.status == second.status == "optimal"
    assert np.array_equal(first.x, second.x)


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
def test_non_finite_model_data_rejected(solver, bad):
    # NaN * x <= 1 used to be accepted and "solved" to x = 0
    lp = LinearProgram(sense="max")
    x = lp.add_variable(0.0, 1.0)
    lp.add_objective(x, 1.0)
    with pytest.raises(LinearProgramError):
        lp.add_constraint({x: bad}, LESS_EQUAL, 1.0)
    with pytest.raises(LinearProgramError):
        lp.add_constraint({x: 1.0}, LESS_EQUAL, bad)
    with pytest.raises(LinearProgramError):
        lp.add_constraints([([0, 1], x, [1.0, bad])], LESS_EQUAL, [1.0, 2.0])
    with pytest.raises(LinearProgramError):
        lp.add_objective(x, bad)
    # a rejected call leaves the model as it was
    assert lp.n_constraints == 0
    sol = solver(lp)
    assert sol.status == "optimal"
    assert sol.value(x) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("relation", [EQUAL, LESS_EQUAL, GREATER_EQUAL])
@pytest.mark.parametrize("rhs", [0.0, 0.5, 3.0, -250.0, 1e6])
def test_vectorised_check_raises_where_the_loop_raises(relation, rhs):
    for factor in (-1.5, -1.01, -0.99, -0.5, 0.0, 0.5, 0.99, 1.01, 1.5):
        lp = RecordingProgram()
        x = lp.add_variable(-INF, INF)
        y = lp.add_variable(0.0, 1.0)
        lp.add_constraint({x: 2.0, y: 1.0}, relation, rhs)
        lp.add_constraint({y: 1.0}, LESS_EQUAL, 1.0)
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
    x = lp.add_variable(-INF, INF)
    lp.add_constraint({x: 1e308}, GREATER_EQUAL, 0.0)
    # 1e308 * 10 overflows to inf, which compares as ">= 0" all the same
    with pytest.raises(RuntimeError):
        _check_feasible(lp, np.array([10.0]))
    with pytest.raises(RuntimeError):
        _check_feasible(lp, np.array([math.nan]))
    _check_feasible(lp, np.array([1.0]))


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
    a, relations, b = lp.sparse_rows()
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
    x = infeasible.add_variable(0.0, 1.0)
    infeasible.add_constraint({x: 1.0}, GREATER_EQUAL, 2.0)
    assert assert_same_as_linprog(infeasible) == "infeasible"

    unbounded = LinearProgram(sense="max")
    x, y = unbounded.add_variables(2)
    unbounded.add_objectives([x, y], [1.0, 1.0])
    unbounded.add_constraint({x: 1.0, y: -1.0}, LESS_EQUAL, 1.0)
    assert assert_same_as_linprog(unbounded) == "unbounded"


@pytest.mark.parametrize("factor, raised", [(0.99, False), (1.01, True)])
def test_highs_result_check_tolerance(factor, raised):
    lp = LinearProgram()
    x, y, z = lp.add_variables(3, [0.0, -INF, 0.0], [1.0, INF, INF])
    lp.add_constraint({x: 1.0, y: 1.0}, LESS_EQUAL, 4.0)
    lp.add_constraint({z: 1.0}, GREATER_EQUAL, 1.0)
    lp.add_constraint({y: 1.0, z: 1.0}, EQUAL, 2.0)
    # x at its upper bound, the ">=" row negated after the "<=" row, then the
    # "==" row: slack = row_upper - A x, inequality rows first
    point = np.array([1.0, 1.0, 1.0])
    slack = np.array([2.0, 0.0, 0.0])
    _check_highs_result(lp, point, slack, 2)
    step = factor * HIGHS_CHECK_TOL
    moved = [
        (point + [step, 0.0, 0.0], slack),  # x above its upper bound
        (point - [0.0, 0.0, step + 1.0], slack),  # z below its lower bound
        (point, slack - [0.0, step, 0.0]),  # the ">=" row violated
        (point, slack + [0.0, 0.0, step]),  # the "==" row off, either way
        (point, slack - [0.0, 0.0, step]),
    ]
    for moved_point, moved_slack in moved:
        if raised:
            with pytest.raises(RuntimeError, match="highs failed"):
                _check_highs_result(lp, moved_point, moved_slack, 2)
        else:
            _check_highs_result(lp, moved_point, moved_slack, 2)
    with pytest.raises(RuntimeError):
        _check_highs_result(lp, point, np.array([2.0, math.nan, 0.0]), 2)
    with pytest.raises(RuntimeError):
        _check_highs_result(lp, np.array([1.0, math.nan, 1.0]), slack, 2)
