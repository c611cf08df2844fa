"""Mixed-integer model container and the HiGHS solve.

HiGHS is cross-checked against exhaustive enumeration on knapsack-sized
models; its deadline statuses are checked on a real and on a faked run.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from patrolopt import milp
from patrolopt.milp import (
    FEASIBLE_TIMEOUT,
    INFEASIBLE,
    OPTIMAL,
    TIMEOUT_NO_SOLUTION,
    MilpModel,
    ModelError,
    check_assignment,
    solve,
)


def knapsack_model(values, weights, capacity):
    m = MilpModel()
    idx = [m.add_binary(f"x{i}") for i in range(len(values))]
    for i, v in enumerate(values):
        m.set_objective_coefficient(idx[i], v)
    m.add_constraint([(idx[i], w) for i, w in enumerate(weights)], "<=", capacity, "cap")
    return m, idx


def knapsack_best(values, weights, capacity):
    best = 0.0
    for mask in itertools.product((0, 1), repeat=len(values)):
        if sum(w * b for w, b in zip(weights, mask)) <= capacity + 1e-12:
            best = max(best, sum(v * b for v, b in zip(values, mask)))
    return best


def seeded_knapsack(seed, n=8):
    rng = np.random.default_rng(seed)
    values = [float(rng.uniform(1, 10)) for _ in range(n)]
    weights = [float(rng.uniform(1, 5)) for _ in range(n)]
    return values, weights, rng


def test_knapsack_optima_match_enumeration():
    for seed in range(8):
        values, weights, rng = seeded_knapsack(seed)
        cap = float(rng.uniform(5, 15))
        model, _ = knapsack_model(values, weights, cap)
        sol = solve(model)
        assert sol.status == OPTIMAL
        assert abs(sol.objective_value - knapsack_best(values, weights, cap)) < 1e-7
        assert check_assignment(model, sol.assignment) == []


def test_equality_and_continuous_mix():
    # pick exactly two items; continuous y rides along up to the picked total
    m = MilpModel()
    x = [m.add_binary(f"x{i}") for i in range(3)]
    y = m.add_continuous("y", 0.0, 10.0)
    for i, v in enumerate((1.0, 2.0, 3.0)):
        m.set_objective_coefficient(x[i], v)
    m.set_objective_coefficient(y, 0.5)
    m.add_constraint([(xi, 1.0) for xi in x], "=", 2.0, "pick2")
    m.add_constraint([(y, 1.0), (x[0], -4.0), (x[1], -4.0), (x[2], -4.0)], "<=", 0.0, "ylink")
    sol = solve(m)
    assert sol.status == OPTIMAL
    # best: items 2 and 3 (value 5) plus y = 8 at half weight
    assert abs(sol.objective_value - 9.0) < 1e-7


def test_infeasible_model_is_reported():
    m = MilpModel()
    a = m.add_binary("a")
    b = m.add_binary("b")
    m.add_constraint([(a, 1.0), (b, 1.0)], "=", 3.0, "impossible")
    sol = solve(m)
    assert sol.status == INFEASIBLE
    assert sol.assignment is None


def test_zero_time_limit_stops_before_any_incumbent():
    values, weights, _ = seeded_knapsack(0)
    m, _ = knapsack_model(values, weights, 8.0)
    sol = solve(m, time_limit=0.0)
    assert sol.status == TIMEOUT_NO_SOLUTION
    assert sol.assignment is None
    assert sol.objective_value is None


def test_deadline_with_an_incumbent_is_feasible_timeout(monkeypatch):
    m, idx = knapsack_model([3.0, 5.0, 4.0], [2.0, 4.0, 3.0], 6.0)
    x = np.zeros(m.num_variables)
    x[idx[0]] = 1.0

    def timed_out(c, **kwargs):
        return SimpleNamespace(status=1, x=x, mip_gap=0.5, mip_node_count=7)

    monkeypatch.setattr(milp, "_scipy_milp", timed_out)
    sol = solve(m, time_limit=1.0)
    assert sol.status == FEASIBLE_TIMEOUT
    assert sol.objective_value == 3.0
    assert sol.gap == 0.5
    assert sol.node_count == 7
    assert sol.assignment is x


@pytest.mark.parametrize("time_limit", (-1.0, float("nan")))
def test_invalid_time_limit_is_rejected(time_limit):
    m, _ = knapsack_model([3.0, 5.0], [2.0, 4.0], 6.0)
    with pytest.raises(ValueError, match="time_limit"):
        solve(m, time_limit=time_limit)
    # The same answer when a certificate would have skipped the search.
    m.certificate = (np.ones(2), 8.0)
    assert solve(m).assignment is m.certificate[0]
    with pytest.raises(ValueError, match="time_limit"):
        solve(m, time_limit=time_limit)


def test_check_assignment_flags_violations():
    m, idx = knapsack_model([1.0, 1.0], [3.0, 3.0], 4.0)
    bad = np.array([1.0, 1.0])
    msgs = check_assignment(m, bad)
    assert any("cap" in msg for msg in msgs)
    frac = np.array([0.5, 0.0])
    msgs = check_assignment(m, frac)
    assert any("integral" in msg or "binary" in msg for msg in msgs)

    # variables in index order, each bound message before its integrality
    # one, then the rows in order; activities add their terms in row order
    m = MilpModel()
    a = m.add_binary("a")
    c = m.add_continuous("c", 0.0, 2.0)
    m.add_constraint([(a, 0.1), (c, 0.2)], "=", 1.0, "pick")
    m.add_constraint([(c, 1.0)], "<=", 1.0)
    m.add_constraint([], "=", 1.0, "empty")
    m.add_constraint([(a, 1.0)], "<=", 2.0, "slack")
    assert check_assignment(m, np.array([1.5, 3.0])) == [
        "variable a = 1.5 outside [0.0, 1.0]",
        "binary variable a = 1.5 not integral",
        "variable c = 3.0 outside [0.0, 2.0]",
        "pick: 0.7500000000000001 != 1.0",
        "row1: 3.0 > 1.0",
        "empty: 0 != 1.0",
    ]
    assert check_assignment(m, np.zeros(3)) == ["assignment has shape (3,), expected (2,)"]


def first_defect(model):
    with pytest.raises(ModelError) as info:
        model.validate()
    return str(info.value)


def test_validate_rejects_malformed_models():
    m = MilpModel()
    m.add_binary("dup")
    m.add_binary("dup")
    assert first_defect(m) == "duplicate variable name 'dup'"

    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i + 5, 1.0)], "<=", 1.0, "badref")
    assert first_defect(m) == "constraint 0 references unknown variable 5"

    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i, float("nan"))], "<=", 1.0, "nan")
    assert first_defect(m) == "constraint 0 has non-finite coefficient"

    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i, 1.0)], "<>", 1.0, "badrel")
    assert first_defect(m) == "constraint 0 has unknown relation '<>'"

    m = MilpModel()
    m.add_continuous("y", 2.0, 1.0)
    assert first_defect(m) == "variable 'y' has lb > ub"

    m = MilpModel()
    m.variables.append(milp.Variable("b", milp.BINARY, 0.0, 2.0))
    assert first_defect(m) == "binary variable 'b' must have bounds [0, 1]"

    m = MilpModel()
    m.variables.append(milp.Variable("k", "integer", 0.0, 1.0))
    assert first_defect(m) == "variable 'k' has unknown kind 'integer'"

    m = MilpModel()
    m.add_continuous("w", 0.0, float("inf"))
    assert first_defect(m) == "variable 'w' has non-finite bounds"

    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i, 1.0)], "<=", float("inf"), "open")
    assert first_defect(m) == "constraint 0 has non-finite rhs"

    m = MilpModel()
    m.add_binary("x")
    m.set_objective_coefficient(7, 1.0)
    assert first_defect(m) == "objective references unknown variable 7"

    # several defects: the first in model order (variables, rows, objective)
    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i, 1.0)], "<>", 1.0, "badrel")
    m.add_continuous("y", 2.0, 1.0)
    m.set_objective_coefficient(9, 1.0)
    assert first_defect(m) == "variable 'y' has lb > ub"

    # solve() validates before calling HiGHS
    m = MilpModel()
    m.add_continuous("y", 2.0, 1.0)
    with pytest.raises(ModelError):
        solve(m)


def test_gap_is_zero_at_proven_optimality():
    m, _ = knapsack_model([2.0, 3.0], [1.0, 1.0], 2.0)
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.gap <= 1e-9

