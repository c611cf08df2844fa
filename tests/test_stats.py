"""t-test numerics against scipy, plus the results-table helpers."""

import numpy as np
import pytest
import scipy.stats

from patrolopt.stats import (
    TTestResult,
    all_solved_ids,
    comparison_table,
    failure_counts,
    t_test_independent,
    totals,
)


def test_small_frozen_case():
    # hand case: consecutive integers shifted by one, pooled variance 2.5
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.0, 3.0, 4.0, 5.0, 6.0]
    res = t_test_independent(a, b)
    assert res.t == pytest.approx(-1.0, abs=1e-12)
    assert res.df == 8.0
    assert res.p == pytest.approx(0.3465935070873343, abs=1e-6)


def test_sign_flips_with_sample_order():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.0, 3.0, 4.0, 5.0, 6.0]
    fwd = t_test_independent(a, b)
    rev = t_test_independent(b, a)
    assert rev.t == pytest.approx(-fwd.t, abs=1e-15)
    assert rev.p == pytest.approx(fwd.p, abs=1e-15)
    assert rev.df == fwd.df


def test_matches_scipy_pooled_and_welch():
    rng = np.random.default_rng(42)
    for trial in range(20):
        na = int(rng.integers(2, 40))
        nb = int(rng.integers(2, 40))
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=na)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=nb)
        for welch in (False, True):
            res = t_test_independent(a, b, welch=welch)
            ref = scipy.stats.ttest_ind(a, b, equal_var=not welch)
            assert res.t == pytest.approx(ref.statistic, abs=1e-12)
            assert res.p == pytest.approx(ref.pvalue, abs=1e-12)
            assert res.df == pytest.approx(ref.df, abs=1e-9)


def test_degenerate_spread_conventions():
    same = t_test_independent([3.0, 3.0, 3.0], [3.0, 3.0])
    assert same.t == 0.0
    assert same.p == 1.0
    apart = t_test_independent([3.0, 3.0], [4.0, 4.0, 4.0])
    assert apart.t == -np.inf
    assert apart.p == 0.0
    apart = t_test_independent([5.0, 5.0], [4.0, 4.0], welch=True)
    assert apart.t == np.inf
    assert apart.p == 0.0


def test_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        t_test_independent([1.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="at least 2"):
        t_test_independent([1.0, 2.0], [])
    with pytest.raises(ValueError, match="finite"):
        t_test_independent([1.0, np.nan], [2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        t_test_independent([1.0, 2.0], [np.inf, 3.0])


def synthetic_rows():
    # two horizons, three planners, one instance where "top" failed
    rows = []
    for h, seeds in ((2, (1, 2, 3)), (4, (1, 2, 3))):
        for seed in seeds:
            iid = f"H{h}_seed{seed}"
            base = 10.0 * h + seed
            rows.append(
                {"instance_id": iid, "H": h, "planner": "tocp",
                 "total_cost": base, "failed": False}
            )
            rows.append(
                {"instance_id": iid, "H": h, "planner": "greedy",
                 "total_cost": base + 1.0, "failed": False}
            )
            rows.append(
                {"instance_id": iid, "H": h, "planner": "top",
                 "total_cost": base + 2.0,
                 "failed": h == 2 and seed == 3}
            )
    return rows


def test_all_solved_excludes_any_failure():
    rows = synthetic_rows()
    solved = all_solved_ids(rows)
    assert "H2_seed3" not in solved
    assert solved == {"H2_seed1", "H2_seed2",
                      "H4_seed1", "H4_seed2", "H4_seed3"}


def test_failure_counts_cover_all_planners():
    counts = failure_counts(synthetic_rows())
    assert counts == {"tocp": 0, "greedy": 0, "top": 1}


def test_totals_filtering():
    rows = synthetic_rows()
    assert totals(rows, "tocp", horizon=2) == [21.0, 22.0, 23.0]
    solved = all_solved_ids(rows)
    assert totals(rows, "top", horizon=2, restrict_ids=solved) == [23.0, 24.0]
    assert totals(rows, "greedy") == [22.0, 23.0, 24.0, 42.0, 43.0, 44.0]


def test_comparison_table_means_and_test():
    rows = synthetic_rows()
    table = comparison_table(rows, "top", "tocp")
    assert [entry["H"] for entry in table] == [2, 4]
    h2 = table[0]
    assert h2["n"] == 2
    assert h2["mean_top"] == pytest.approx(23.5)
    assert h2["mean_tocp"] == pytest.approx(21.5)
    ref = scipy.stats.ttest_ind([23.0, 24.0], [21.0, 22.0])
    assert h2["t"] == pytest.approx(ref.statistic, abs=1e-12)
    assert h2["p"] == pytest.approx(ref.pvalue, abs=1e-12)
    h4 = table[1]
    assert h4["n"] == 3
    assert h4["mean_top"] == pytest.approx(44.0)


def test_comparison_table_single_instance_has_no_test():
    rows = [
        {"instance_id": "H2_seed1", "H": 2, "planner": "tocp",
         "total_cost": 1.0, "failed": False},
        {"instance_id": "H2_seed1", "H": 2, "planner": "top",
         "total_cost": 2.0, "failed": False},
    ]
    table = comparison_table(rows, "top", "tocp")
    assert table[0]["n"] == 1
    assert np.isnan(table[0]["t"])
    assert np.isnan(table[0]["p"])


def test_comparison_table_names_a_planner_without_rows():
    with pytest.raises(ValueError, match="'banana'"):
        comparison_table(synthetic_rows(), "top", "banana")
