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
    m = MilpModel(name="knapsack")
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


def test_validate_rejects_malformed_models():
    m = MilpModel()
    m.add_binary("dup")
    m.add_binary("dup")
    with pytest.raises(ModelError, match="duplicate"):
        m.validate()

    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i + 5, 1.0)], "<=", 1.0, "badref")
    with pytest.raises(ModelError, match="unknown variable"):
        m.validate()

    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i, float("nan"))], "<=", 1.0, "nan")
    with pytest.raises(ModelError, match="finite"):
        m.validate()

    m = MilpModel()
    i = m.add_binary("x")
    m.add_constraint([(i, 1.0)], "<>", 1.0, "badrel")
    with pytest.raises(ModelError, match="relation"):
        m.validate()

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


def loop_validate(model):
    """validate as a walk over every variable, row and term: the first defect's message."""
    n = model.num_variables
    seen = set()
    for v in model.variables:
        if v.name in seen:
            return f"duplicate variable name {v.name!r}"
        seen.add(v.name)
        if not (np.isfinite(v.lb) and np.isfinite(v.ub)):
            return f"variable {v.name!r} has non-finite bounds"
        if v.lb > v.ub:
            return f"variable {v.name!r} has lb > ub"
        if v.kind == milp.BINARY and (v.lb, v.ub) != (0.0, 1.0):
            return f"binary variable {v.name!r} must have bounds [0, 1]"
        if v.kind not in (milp.BINARY, milp.CONTINUOUS):
            return f"variable {v.name!r} has unknown kind {v.kind!r}"
    for k, con in enumerate(model.constraints):
        if con.relation not in milp.RELATIONS:
            return f"constraint {k} has unknown relation {con.relation!r}"
        if not np.isfinite(con.rhs):
            return f"constraint {k} has non-finite rhs"
        for idx, coef in con.terms:
            if not 0 <= idx < n:
                return f"constraint {k} references unknown variable {idx}"
            if not np.isfinite(coef):
                return f"constraint {k} has non-finite coefficient"
    for idx in model._objective:
        if not 0 <= idx < n:
            return f"objective references unknown variable {idx}"
    return None


def loop_check_assignment(model, x):
    """check_assignment as a walk over every variable and row, term by term."""
    tol = milp.FEASIBILITY_TOL
    issues = []
    lo, hi = model.bounds_arrays()
    for i, v in enumerate(model.variables):
        if x[i] < lo[i] - tol or x[i] > hi[i] + tol:
            issues.append(f"variable {v.name} = {x[i]} outside [{lo[i]}, {hi[i]}]")
        if v.kind == milp.BINARY and abs(x[i] - round(x[i])) > milp.INTEGRALITY_TOL:
            issues.append(f"binary variable {v.name} = {x[i]} not integral")
    for k, con in enumerate(model.constraints):
        act = sum(coef * x[idx] for idx, coef in con.terms)
        label = con.name or f"row{k}"
        if con.relation == "<=" and act > con.rhs + tol:
            issues.append(f"{label}: {act} > {con.rhs}")
        elif con.relation == "=" and abs(act - con.rhs) > tol:
            issues.append(f"{label}: {act} != {con.rhs}")
    return issues


def random_model(rng, defects):
    """A small model; with defects, bad names, bounds, kinds, rows and objective entries."""
    m = MilpModel()
    n = int(rng.integers(1, 7))
    for i in range(n):
        name = f"v{rng.integers(0, 9) if defects else i}"
        if rng.random() < 0.7:
            m.add_binary(name)
        else:
            m.add_continuous(name, -1.0, 2.0)
        if defects and rng.random() < 0.15:
            m.variables[-1] = milp.Variable(name, str(rng.choice(["binary", "continuous", "odd"])),
                                            float(rng.choice([0.0, 0.5, np.inf])),
                                            float(rng.choice([1.0, -1.0, np.nan])))
    relations = ["<=", "="] + (["<>", ">="] if defects else [])
    for k in range(int(rng.integers(0, 6))):
        terms = [(int(rng.integers(-1, n + 1)) if defects else int(rng.integers(0, n)),
                  float(rng.choice([1.0, -2.0, 0.1, 0.7] + ([np.nan] if defects else []))))
                 for _ in range(int(rng.integers(0, 4)))]
        rhs = float(rng.choice([0.0, 1.0, 0.3] + ([np.inf] if defects else [])))
        m.add_constraint(terms, str(rng.choice(relations)), rhs, str(rng.choice(["", f"c{k}"])))
    for _ in range(int(rng.integers(0, 3))):
        m.set_objective_coefficient(int(rng.integers(-1, n + 1)) if defects else 0, 1.0)
    return m


def test_array_checks_match_the_loops_they_replace():
    # the same message, or the same messages in the same order, including
    # the activity digits: rows add their terms in order either way
    rng = np.random.default_rng(0)
    for _ in range(3000):
        m = random_model(rng, defects=True)
        try:
            m.validate()
            got = None
        except ModelError as exc:
            got = str(exc)
        assert got == loop_validate(m)
    for _ in range(1000):
        m = random_model(rng, defects=False)
        x = rng.choice([0.0, 1.0, 0.5, 0.3, 3.0, -2.0, 1e-7], size=m.num_variables)
        assert check_assignment(m, x) == loop_check_assignment(m, x)
