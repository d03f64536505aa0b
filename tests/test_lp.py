import math

import numpy as np
import pytest

from flexmarket.lp import (
    INF,
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LinearProgramError,
    solve,
)

from oracles import enumerate_lp_optimum, random_box_lp

BACKENDS = ["simplex", "highs"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def test_bound_attained_maximum(backend):
    lp = LinearProgram(sense="max")
    x = lp.add_variable("x", 0.0, 5.0)
    lp.add_objective(x, 1.0)
    sol = solve(lp, backend=backend)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.value(x) == pytest.approx(5.0, abs=1e-9)


def test_tight_constraint_minimum(backend):
    lp = LinearProgram(sense="min")
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_objective(x, 1.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, GREATER_EQUAL, 3.0)
    sol = solve(lp, backend=backend)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_reported_as_status(backend):
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.add_constraint({x: 1.0}, GREATER_EQUAL, 5.0)
    lp.add_constraint({x: 1.0}, LESS_EQUAL, 3.0)
    assert solve(lp, backend=backend).status == "infeasible"


def test_unbounded_reported_as_status(backend):
    lp = LinearProgram(sense="max")
    x = lp.add_variable("x")
    lp.add_objective(x, 1.0)
    assert solve(lp, backend=backend).status == "unbounded"


def test_free_variable_and_negative_bounds(backend):
    lp = LinearProgram(sense="min")
    x = lp.add_variable("x", -INF, INF)
    y = lp.add_variable("y", -4.0, -1.0)
    lp.add_objective(x, 2.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, GREATER_EQUAL, -3.0)
    lp.add_constraint({x: 1.0}, GREATER_EQUAL, -10.0)
    sol = solve(lp, backend=backend)
    # x settles at the constraint corner: x = -3 - y with y = -1... cheapest
    # is x as low as allowed: x + y = -3 binds with y at its upper bound.
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2 * (-2.0) + (-1.0), abs=1e-8)


def test_equality_row_with_upper_bounds(backend):
    lp = LinearProgram(sense="max")
    x = lp.add_variable("x", 0.0, 2.0)
    y = lp.add_variable("y", 0.0, 2.0)
    lp.add_objective(x, 3.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, EQUAL, 3.0)
    sol = solve(lp, backend=backend)
    assert sol.status == "optimal"
    assert sol.value(x) == pytest.approx(2.0, abs=1e-9)
    assert sol.value(y) == pytest.approx(1.0, abs=1e-9)


def test_fixed_variable():
    lp = LinearProgram(sense="min")
    x = lp.add_variable("x", 1.5, 1.5)
    y = lp.add_variable("y", 0.0, 4.0)
    lp.add_objective(y, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, GREATER_EQUAL, 3.0)
    sol = solve(lp)
    assert sol.value(x) == pytest.approx(1.5)
    assert sol.objective == pytest.approx(1.5, abs=1e-9)


def test_degenerate_cycling_instance_terminates():
    # classic cycling trap for the most-negative-reduced-cost rule; the
    # degenerate-pivot counter must hand over to Bland's rule and finish
    lp = LinearProgram(sense="min")
    x = [lp.add_variable(f"x{j}") for j in range(4)]
    for var, cost in zip(x, [-0.75, 150.0, -0.02, 6.0]):
        lp.add_objective(var, cost)
    lp.add_constraint(list(zip(x, [0.25, -60.0, -0.04, 9.0])), LESS_EQUAL, 0.0)
    lp.add_constraint(list(zip(x, [0.5, -90.0, -0.02, 3.0])), LESS_EQUAL, 0.0)
    lp.add_constraint({x[2]: 1.0}, LESS_EQUAL, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_validation_rejects_bad_models():
    lp = LinearProgram()
    with pytest.raises(LinearProgramError):
        lp.add_variable("x", 2.0, 1.0)
    x = lp.add_variable("x")
    with pytest.raises(LinearProgramError):
        lp.add_constraint({x + 7: 1.0}, LESS_EQUAL, 1.0)
    with pytest.raises(LinearProgramError):
        lp.add_constraint({x: 1.0}, "<", 1.0)
    with pytest.raises(LinearProgramError):
        LinearProgram(sense="maximize")


def test_matches_enumeration_oracle_on_random_instances(backend):
    rng = np.random.default_rng(20260808)
    solved = 0
    for _ in range(120):
        lp = random_box_lp(rng, max_vars=4, max_rows=4)
        expected_status, expected = enumerate_lp_optimum(lp)
        sol = solve(lp, backend=backend)
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

