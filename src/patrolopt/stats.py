"""Two-sample comparisons of episode costs, Table-style summaries included.

The default test is Student's pooled-variance two-sample t (the conventional
reading of "independent-samples t-test"); Welch's unequal-variance form is
available behind a flag.  p-values come from the Student-t distribution
function, evaluated through the regularized incomplete beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np
from scipy.special import stdtr


@dataclass
class TTestResult:
    t: float
    p: float
    df: float


def t_test_independent(
    samples_a: Sequence[float], samples_b: Sequence[float], welch: bool = False
) -> TTestResult:
    """Two-sided t-test of mean(a) - mean(b).

    Degenerate spread is resolved by convention: zero variance with equal
    means gives t = 0, p = 1; zero variance with unequal means gives an
    infinite t and p = 0.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least 2 values")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    na, nb = a.size, b.size
    mean_diff = float(a.mean() - b.mean())
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if welch:
        se2 = va / na + vb / nb
        if se2 == 0.0:
            return _degenerate(mean_diff, float(na + nb - 2))
        df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    else:
        df = float(na + nb - 2)
        pooled = ((na - 1) * va + (nb - 1) * vb) / df
        se2 = pooled * (1.0 / na + 1.0 / nb)
        if se2 == 0.0:
            return _degenerate(mean_diff, df)
    t = mean_diff / np.sqrt(se2)
    p = 2.0 * float(stdtr(df, -abs(t)))
    return TTestResult(t=float(t), p=p, df=float(df))


def _degenerate(mean_diff: float, df: float) -> TTestResult:
    if mean_diff == 0.0:
        return TTestResult(t=0.0, p=1.0, df=df)
    return TTestResult(t=float(np.sign(mean_diff)) * np.inf, p=0.0, df=df)


# ---------------------------------------------------------------------------
# Results-table aggregation
# ---------------------------------------------------------------------------


def all_solved_ids(rows: List[Dict]) -> Set[str]:
    """Instance ids where every planner present in the table succeeded.

    Averages are taken over this subset only, so a planner is never graded on
    instances another planner could not finish.
    """
    planners = sorted({r["planner"] for r in rows})
    by_id: Dict[str, Dict[str, bool]] = {}
    for r in rows:
        by_id.setdefault(r["instance_id"], {})[r["planner"]] = r["failed"]
    out = set()
    for iid, seen in by_id.items():
        if all(p in seen and not seen[p] for p in planners):
            out.add(iid)
    return out


def failure_counts(rows: List[Dict]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for r in rows:
        out.setdefault(r["planner"], 0)
        if r["failed"]:
            out[r["planner"]] += 1
    return out


def totals(
    rows: List[Dict],
    planner: str,
    horizon: Optional[int] = None,
    restrict_ids: Optional[Set[str]] = None,
) -> List[float]:
    """total_cost values for one planner, in table order."""
    out = []
    for r in rows:
        if r["planner"] != planner:
            continue
        if horizon is not None and r["H"] != horizon:
            continue
        if restrict_ids is not None and r["instance_id"] not in restrict_ids:
            continue
        out.append(r["total_cost"])
    return out


def comparison_table(
    rows: List[Dict], planner_a: str, planner_b: str, welch: bool = False
) -> List[Dict]:
    """Per-horizon means and the a-minus-b t-test over the all-solved subset.

    A planner with no rows in the table raises ValueError.
    """
    present = {r["planner"] for r in rows}
    for planner in (planner_a, planner_b):
        if planner not in present:
            raise ValueError(f"no rows for planner {planner!r} in the results")
    solved = all_solved_ids(rows)
    horizons = sorted({r["H"] for r in rows})
    out: List[Dict] = []
    for h in horizons:
        a = totals(rows, planner_a, h, solved)
        b = totals(rows, planner_b, h, solved)
        entry: Dict = {
            "H": h,
            "n": len(a),
            f"mean_{planner_a}": float(np.mean(a)) if a else float("nan"),
            f"mean_{planner_b}": float(np.mean(b)) if b else float("nan"),
        }
        if len(a) >= 2 and len(b) >= 2:
            res = t_test_independent(a, b, welch=welch)
            entry["t"] = res.t
            entry["p"] = res.p
        else:
            entry["t"] = float("nan")
            entry["p"] = float("nan")
        out.append(entry)
    return out
