"""Small mixed-integer linear programming layer.

Models are built explicitly (variables, linear constraints, one objective) and
solved either by HiGHS through scipy.optimize.milp (the default) or by a
self-contained best-first branch-and-bound that only relies on an LP solver.
The second backend exists as an independent cross-check of the first: both
must land on the same optimal objective, and tests hold them to that.

Conventions shared by both backends:
  * feasibility tolerance 1e-6, integrality tolerance 1e-6,
    relative optimality gap 1e-9;
  * statuses: "optimal", "infeasible", "feasible-timeout" (deadline hit with
    an incumbent in hand), "timeout-no-solution";
  * an unbounded relaxation is a modelling bug and raises ModelError.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as _scipy_milp

FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6
RELATIVE_GAP_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
FEASIBLE_TIMEOUT = "feasible-timeout"
TIMEOUT_NO_SOLUTION = "timeout-no-solution"

BINARY = "binary"
CONTINUOUS = "continuous"

RELATIONS = ("<=", "=", ">=")


class ModelError(ValueError):
    """Malformed model or a solve outcome that indicates a modelling bug."""


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: float
    ub: float


@dataclass(frozen=True)
class Constraint:
    terms: Tuple[Tuple[int, float], ...]
    relation: str
    rhs: float
    name: str


class MilpModel:
    """A mixed binary/continuous linear program with a single linear objective."""

    def __init__(self, sense: str = "max", name: str = ""):
        if sense not in ("max", "min"):
            raise ModelError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self._objective: Dict[int, float] = {}
        # An assignment offered with a proven bound on the optimum; solve
        # returns it without search when it is feasible and reaches the bound.
        self.certificate: Optional[Tuple[np.ndarray, float]] = None

    # ----- construction -------------------------------------------------

    def add_binary(self, name: str) -> int:
        self.variables.append(Variable(name, BINARY, 0.0, 1.0))
        return len(self.variables) - 1

    def add_continuous(self, name: str, lb: float, ub: float) -> int:
        self.variables.append(Variable(name, CONTINUOUS, float(lb), float(ub)))
        return len(self.variables) - 1

    def add_constraint(
        self,
        terms: Sequence[Tuple[int, float]],
        relation: str,
        rhs: float,
        name: str = "",
    ) -> int:
        self.constraints.append(Constraint(tuple(terms), relation, float(rhs), name))
        return len(self.constraints) - 1

    def set_objective_coefficient(self, idx: int, coef: float) -> None:
        if coef == 0.0:
            self._objective.pop(idx, None)
        else:
            self._objective[idx] = float(coef)

    # ----- views --------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.num_variables)
        for idx, coef in self._objective.items():
            c[idx] = coef
        return c

    def binary_indices(self) -> np.ndarray:
        return np.array(
            [i for i, v in enumerate(self.variables) if v.kind == BINARY], dtype=np.int64
        )

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        lo = np.array([v.lb for v in self.variables])
        hi = np.array([v.ub for v in self.variables])
        return lo, hi

    def validate(self) -> None:
        """Raise ModelError on the first structural defect found."""
        n = self.num_variables
        seen_names = set()
        for v in self.variables:
            if v.name in seen_names:
                raise ModelError(f"duplicate variable name {v.name!r}")
            seen_names.add(v.name)
            if not (np.isfinite(v.lb) and np.isfinite(v.ub)):
                raise ModelError(f"variable {v.name!r} has non-finite bounds")
            if v.lb > v.ub:
                raise ModelError(f"variable {v.name!r} has lb > ub")
            if v.kind == BINARY and (v.lb, v.ub) != (0.0, 1.0):
                raise ModelError(f"binary variable {v.name!r} must have bounds [0, 1]")
            if v.kind not in (BINARY, CONTINUOUS):
                raise ModelError(f"variable {v.name!r} has unknown kind {v.kind!r}")
        for k, con in enumerate(self.constraints):
            if con.relation not in RELATIONS:
                raise ModelError(f"constraint {k} has unknown relation {con.relation!r}")
            if not np.isfinite(con.rhs):
                raise ModelError(f"constraint {k} has non-finite rhs")
            for idx, coef in con.terms:
                if not 0 <= idx < n:
                    raise ModelError(f"constraint {k} references unknown variable {idx}")
                if not np.isfinite(coef):
                    raise ModelError(f"constraint {k} has non-finite coefficient")
        for idx in self._objective:
            if not 0 <= idx < n:
                raise ModelError(f"objective references unknown variable {idx}")

    # ----- matrix form --------------------------------------------------

    def constraint_matrix(self) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """All rows as A with per-row [lower, upper] activity bounds."""
        rows, cols, data = [], [], []
        lb = np.empty(len(self.constraints))
        ub = np.empty(len(self.constraints))
        for k, con in enumerate(self.constraints):
            for idx, coef in con.terms:
                rows.append(k)
                cols.append(idx)
                data.append(coef)
            if con.relation == "<=":
                lb[k], ub[k] = -np.inf, con.rhs
            elif con.relation == ">=":
                lb[k], ub[k] = con.rhs, np.inf
            else:
                lb[k], ub[k] = con.rhs, con.rhs
        a = sp.csr_matrix(
            (data, (rows, cols)), shape=(len(self.constraints), self.num_variables)
        )
        return a, lb, ub


@dataclass
class MilpSolution:
    status: str
    assignment: Optional[np.ndarray]
    objective_value: Optional[float]
    gap: float
    solve_seconds: float
    node_count: int = 0

    @property
    def has_assignment(self) -> bool:
        return self.assignment is not None


def check_assignment(model: MilpModel, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> List[str]:
    """Violation messages for bounds, integrality and every constraint row."""
    issues: List[str] = []
    if x.shape != (model.num_variables,):
        return [f"assignment has shape {x.shape}, expected ({model.num_variables},)"]
    lo, hi = model.bounds_arrays()
    for i, v in enumerate(model.variables):
        if x[i] < lo[i] - tol or x[i] > hi[i] + tol:
            issues.append(f"variable {v.name} = {x[i]} outside [{lo[i]}, {hi[i]}]")
        if v.kind == BINARY and abs(x[i] - round(x[i])) > INTEGRALITY_TOL:
            issues.append(f"binary variable {v.name} = {x[i]} not integral")
    for k, con in enumerate(model.constraints):
        act = sum(coef * x[idx] for idx, coef in con.terms)
        label = con.name or f"row{k}"
        if con.relation == "<=" and act > con.rhs + tol:
            issues.append(f"{label}: {act} > {con.rhs}")
        elif con.relation == ">=" and act < con.rhs - tol:
            issues.append(f"{label}: {act} < {con.rhs}")
        elif con.relation == "=" and abs(act - con.rhs) > tol:
            issues.append(f"{label}: {act} != {con.rhs}")
    return issues


def solve(
    model: MilpModel,
    time_limit: Optional[float] = None,
    backend: str = "highs",
    warm_start: Optional[np.ndarray] = None,
) -> MilpSolution:
    """Solve to proven optimality or until the deadline.

    A model certificate that checks out is the answer, on either backend:
    status optimal, gap 0, no nodes.  warm_start is a full assignment used as
    the initial incumbent by the reference backend; the HiGHS backend has no
    warm-start hook and ignores it.
    """
    model.validate()
    if model.certificate is not None:
        certified = _certified_solution(model)
        if certified is not None:
            return certified
    if backend == "highs":
        return _solve_highs(model, time_limit)
    if backend == "reference":
        return _solve_reference(model, time_limit, warm_start)
    raise ValueError(f"unknown backend {backend!r}")


def _certified_solution(model: MilpModel) -> Optional[MilpSolution]:
    """The certificate as an optimal solution, or None if it is infeasible or short."""
    t0 = time.perf_counter()
    x, bound = model.certificate
    if check_assignment(model, x):
        return None
    value = float(model.objective_vector() @ x)
    shortfall = bound - value if model.sense == "max" else value - bound
    if shortfall > RELATIVE_GAP_TOL * max(1.0, abs(bound)):
        return None
    return MilpSolution(OPTIMAL, x, value, 0.0, time.perf_counter() - t0, 0)


# ---------------------------------------------------------------------------
# HiGHS through scipy
# ---------------------------------------------------------------------------


def _scipy_solve(
    model: MilpModel,
    lo: np.ndarray,
    hi: np.ndarray,
    integrality: np.ndarray,
    options: Optional[dict] = None,
):
    """scipy.optimize.milp on the model under the given bounds; (objective, result)."""
    c = model.objective_vector()
    sign = -1.0 if model.sense == "max" else 1.0
    constraints = None
    if model.constraints:
        a, row_lb, row_ub = model.constraint_matrix()
        constraints = LinearConstraint(a, row_lb, row_ub)
    res = _scipy_milp(
        sign * c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lo, hi),
        options=options,
    )
    return c, res


def _solve_highs(model: MilpModel, time_limit: Optional[float]) -> MilpSolution:
    t0 = time.perf_counter()
    lo, hi = model.bounds_arrays()
    integrality = np.zeros(model.num_variables)
    bins = model.binary_indices()
    if bins.size:
        integrality[bins] = 1
    # The default HiGHS relative MIP gap (1e-4) is far too loose to compare
    # objectives against an exhaustive oracle, so pin it down.
    options = {"mip_rel_gap": RELATIVE_GAP_TOL}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    c, res = _scipy_solve(model, lo, hi, integrality, options)
    elapsed = time.perf_counter() - t0
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    if res.status == 0:
        x = np.asarray(res.x)
        gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
        return MilpSolution(OPTIMAL, x, float(c @ x), gap, elapsed, nodes)
    if res.status == 1:  # iteration or time limit
        if res.x is not None:
            x = np.asarray(res.x)
            gap = float(getattr(res, "mip_gap", np.inf))
            return MilpSolution(FEASIBLE_TIMEOUT, x, float(c @ x), gap, elapsed, nodes)
        return MilpSolution(TIMEOUT_NO_SOLUTION, None, None, np.inf, elapsed, nodes)
    if res.status == 2:
        return MilpSolution(INFEASIBLE, None, None, np.inf, elapsed, nodes)
    if res.status == 3:
        raise ModelError("relaxation is unbounded; the model is missing constraints")
    raise ModelError(f"solver failed: {res.message}")


# ---------------------------------------------------------------------------
# Reference branch-and-bound
# ---------------------------------------------------------------------------


def _solve_reference(
    model: MilpModel,
    time_limit: Optional[float],
    warm_start: Optional[np.ndarray],
) -> MilpSolution:
    """Best-first branch-and-bound on the binary variables.

    Node priority is the parent's LP bound; branching picks the most
    fractional binary (ties to the lowest index).  The deadline is only
    checked between nodes, so a single LP never gets interrupted.
    """
    t0 = time.perf_counter()
    deadline = t0 + time_limit if time_limit is not None else None
    c = model.objective_vector()
    # Work internally with a maximization objective.
    obj = c if model.sense == "max" else -c
    a, row_lb, row_ub = (
        model.constraint_matrix() if model.constraints else (None, None, None)
    )
    # Split rows for linprog: inequalities as A_ub, equalities as A_eq.
    a_ub_parts, b_ub_parts = [], []
    a_eq, b_eq = None, None
    if a is not None:
        ub_rows = np.isfinite(row_ub) & ~np.isfinite(row_lb)
        lb_rows = np.isfinite(row_lb) & ~np.isfinite(row_ub)
        eq_rows = np.isfinite(row_lb) & np.isfinite(row_ub)
        if ub_rows.any():
            a_ub_parts.append(a[ub_rows])
            b_ub_parts.append(row_ub[ub_rows])
        if lb_rows.any():
            a_ub_parts.append(-a[lb_rows])
            b_ub_parts.append(-row_lb[lb_rows])
        if eq_rows.any():
            a_eq = a[eq_rows]
            b_eq = row_lb[eq_rows]
    a_ub = sp.vstack(a_ub_parts).tocsr() if a_ub_parts else None
    b_ub = np.concatenate(b_ub_parts) if b_ub_parts else None
    base_lo, base_hi = model.bounds_arrays()
    bins = model.binary_indices()

    def lp_max(lo: np.ndarray, hi: np.ndarray):
        """(bound, x) of the LP relaxation under these bounds, or None if infeasible."""
        res = linprog(
            -obj,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=np.column_stack([lo, hi]),
            method="highs",
        )
        if res.status == 2:
            return None
        if res.status == 3:
            raise ModelError("relaxation is unbounded; the model is missing constraints")
        if res.status != 0:
            raise ModelError(f"LP relaxation failed: {res.message}")
        return float(obj @ res.x), np.asarray(res.x)

    incumbent: Optional[np.ndarray] = None
    inc_obj = -np.inf
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=float)
        if not check_assignment(model, ws):
            incumbent = ws
            inc_obj = float(obj @ ws)

    def prune_margin(value: float) -> float:
        return RELATIVE_GAP_TOL * max(1.0, abs(value))

    nodes = 0
    seq = 0
    timed_out = False
    # Heap entries: (-parent_bound, seq, lo, hi); the root has no parent, so
    # its optimistic bound is +inf and it always gets solved.
    heap = [(float("-inf"), seq, base_lo, base_hi)]
    remaining_bound = np.inf
    while heap:
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            remaining_bound = -heap[0][0]
            break
        neg_bound, _, lo, hi = heapq.heappop(heap)
        parent_bound = -neg_bound
        if incumbent is not None and parent_bound <= inc_obj + prune_margin(inc_obj):
            # Best-first order: every remaining node is at least as weak.
            remaining_bound = parent_bound
            heap = []
            break
        sol = lp_max(lo, hi)
        nodes += 1
        if sol is None:
            continue
        bound, x = sol
        if incumbent is not None and bound <= inc_obj + prune_margin(inc_obj):
            continue
        if bins.size:
            frac = np.abs(x[bins] - np.round(x[bins]))
            worst = int(np.argmax(np.minimum(frac, 1.0 - frac)))
            max_frac = float(frac[worst]) if frac.size else 0.0
        else:
            max_frac = 0.0
        if max_frac <= INTEGRALITY_TOL:
            if bound > inc_obj:
                incumbent = x
                inc_obj = bound
            continue
        branch_var = int(bins[worst])
        for fixed_val in (0.0, 1.0):
            lo2 = lo.copy()
            hi2 = hi.copy()
            lo2[branch_var] = fixed_val
            hi2[branch_var] = fixed_val
            seq += 1
            heapq.heappush(heap, (-bound, seq, lo2, hi2))
    elapsed = time.perf_counter() - t0
    obj_out = None if incumbent is None else float(c @ incumbent)
    if timed_out:
        if incumbent is None:
            return MilpSolution(TIMEOUT_NO_SOLUTION, None, None, np.inf, elapsed, nodes)
        gap = max(0.0, (remaining_bound - inc_obj) / max(1.0, abs(inc_obj)))
        return MilpSolution(FEASIBLE_TIMEOUT, incumbent, obj_out, gap, elapsed, nodes)
    if incumbent is None:
        return MilpSolution(INFEASIBLE, None, None, np.inf, elapsed, nodes)
    return MilpSolution(OPTIMAL, incumbent, obj_out, 0.0, elapsed, nodes)


def complete_with_lp(model: MilpModel, fixed: Dict[int, float]) -> Optional[np.ndarray]:
    """Fix some variables and fill in the rest by LP, or None if that is infeasible.

    Used to turn a combinatorial plan (values for the binaries) into a full
    assignment including the continuous variables.  The LP keeps the model
    objective, so free continuous variables take their best values.  The
    model is not validated here: solve validates it before it reads any
    assignment built this way.
    """
    lo, hi = model.bounds_arrays()
    for idx, val in fixed.items():
        lo[idx] = val
        hi[idx] = val
    _, res = _scipy_solve(model, lo, hi, np.zeros(model.num_variables))
    if res.status != 0:
        return None
    return np.asarray(res.x)


def write_lp(model: MilpModel) -> str:
    """Render the model in LP file format (CPLEX dialect) for eyeballing/diffing."""

    def num(v: float) -> str:
        return f"{v:.12g}"

    def term_str(idx: int, coef: float) -> str:
        sign_ch = "-" if coef < 0 else "+"
        return f"{sign_ch} {num(abs(coef))} {model.variables[idx].name}"

    lines = [("Maximize" if model.sense == "max" else "Minimize")]
    obj_terms = " ".join(
        term_str(idx, coef) for idx, coef in sorted(model._objective.items())
    )
    lines.append(f" obj: {obj_terms}" if obj_terms else " obj: 0 x_dummy")
    lines.append("Subject To")
    rel_map = {"<=": "<=", ">=": ">=", "=": "="}
    for k, con in enumerate(model.constraints):
        label = con.name or f"c{k}"
        body = " ".join(term_str(idx, coef) for idx, coef in con.terms)
        lines.append(f" {label}: {body} {rel_map[con.relation]} {num(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == CONTINUOUS:
            lines.append(f" {num(v.lb)} <= {v.name} <= {num(v.ub)}")
    bins = [v.name for v in model.variables if v.kind == BINARY]
    if bins:
        lines.append("Binary")
        for name in bins:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
