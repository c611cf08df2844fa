"""Small mixed-integer linear programming layer.

Models are built explicitly: variables, linear rows that are either "<=" or
"=", and one objective, which is maximised.
solve answers a model that carries a proof that it has no feasible point, or
a certificate that proves its own optimum, without search; a model with
neither, or whose certificate fails its check, reaches HiGHS, through the
one scipy.optimize.milp call in _solve_highs.

Conventions:
  * feasibility tolerance 1e-6, integrality tolerance 1e-6,
    relative optimality gap 1e-9;
  * statuses: "optimal", "infeasible", "feasible-timeout" (deadline hit with
    an incumbent in hand), "timeout-no-solution";
  * an unbounded relaxation is a modelling bug and raises ModelError.

MilpModel.validate and check_assignment are plain walks over the variables,
rows and terms.  The episode loop answers its rounds without a model (see
tocp.plan_round), so these checks run only in solve, the one place a
certificate's rows are checked.  There a walk costs a few milliseconds
against a search that takes far longer, and one plain statement of each
check is worth more than the time an array form saves.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint
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

RELATIONS = ("<=", "=")


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
    """A mixed binary/continuous linear program that maximises one linear objective."""

    def __init__(self):
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self._objective: Dict[int, float] = {}
        # An assignment offered with a proven bound on the optimum; solve
        # returns it without search when it is feasible and reaches the bound.
        self.certificate: Optional[Tuple[np.ndarray, float]] = None
        # Why no assignment can satisfy the rows, found where the model was
        # built; solve then reports infeasible without search.
        self.infeasibility_proof: Optional[str] = None

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

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        lo = np.array([v.lb for v in self.variables])
        hi = np.array([v.ub for v in self.variables])
        return lo, hi

    def validate(self) -> None:
        """Raise ModelError on the first structural defect, in model order.

        Variables come first, then the rows term by term, then the objective.
        """
        n = self.num_variables
        seen = set()
        for v in self.variables:
            if v.name in seen:
                raise ModelError(f"duplicate variable name {v.name!r}")
            seen.add(v.name)
            if not (math.isfinite(v.lb) and math.isfinite(v.ub)):
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
            if not math.isfinite(con.rhs):
                raise ModelError(f"constraint {k} has non-finite rhs")
            for idx, coef in con.terms:
                if not 0 <= idx < n:
                    raise ModelError(f"constraint {k} references unknown variable {idx}")
                if not math.isfinite(coef):
                    raise ModelError(f"constraint {k} has non-finite coefficient")
        for idx in self._objective:
            if not 0 <= idx < n:
                raise ModelError(f"objective references unknown variable {idx}")

    # ----- matrix form --------------------------------------------------

    def constraint_matrix(self) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """All rows as A with per-row [lower, upper] activity bounds."""
        counts = np.fromiter((len(con.terms) for con in self.constraints), dtype=np.int64,
                             count=len(self.constraints))
        flat = np.fromiter(
            itertools.chain.from_iterable(
                itertools.chain.from_iterable(con.terms for con in self.constraints)),
            dtype=float, count=2 * int(counts.sum()),
        ).reshape(-1, 2)
        rows = np.repeat(np.arange(len(self.constraints)), counts)
        lb = np.empty(len(self.constraints))
        ub = np.empty(len(self.constraints))
        for k, con in enumerate(self.constraints):
            lb[k] = -np.inf if con.relation == "<=" else con.rhs
            ub[k] = con.rhs
        a = sp.csr_matrix(
            (flat[:, 1], (rows, flat[:, 0].astype(np.int64))),
            shape=(len(self.constraints), self.num_variables),
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


def check_assignment(model: MilpModel, x: np.ndarray) -> List[str]:
    """Violation messages for bounds, integrality and every constraint row, to FEASIBILITY_TOL.

    Variables come first, in index order, each with its bound message before
    its integrality one; then the rows in order, each activity summed term
    by term.
    """
    if x.shape != (model.num_variables,):
        return [f"assignment has shape {x.shape}, expected ({model.num_variables},)"]
    tol = FEASIBILITY_TOL
    issues: List[str] = []
    for i, v in enumerate(model.variables):
        if x[i] < v.lb - tol or x[i] > v.ub + tol:
            issues.append(f"variable {v.name} = {x[i]} outside [{v.lb}, {v.ub}]")
        if v.kind == BINARY and abs(x[i] - np.round(x[i])) > INTEGRALITY_TOL:
            issues.append(f"binary variable {v.name} = {x[i]} not integral")
    for k, con in enumerate(model.constraints):
        act = sum(coef * x[idx] for idx, coef in con.terms)
        label = con.name or f"row{k}"
        if con.relation == "<=" and act > con.rhs + tol:
            issues.append(f"{label}: {act} > {con.rhs}")
        elif con.relation == "=" and abs(act - con.rhs) > tol:
            issues.append(f"{label}: {act} != {con.rhs}")
    return issues


def check_time_limit(time_limit: Optional[float]) -> None:
    """Raise ValueError unless time_limit is None or a finite number of seconds >= 0."""
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit >= 0):
        raise ValueError(f"time_limit must be None or finite and >= 0, got {time_limit!r}")


def solve(model: MilpModel, time_limit: Optional[float] = None) -> MilpSolution:
    """Solve to proven optimality or until the deadline (seconds, None for none).

    A model that carries an infeasibility proof is infeasible without search:
    gap inf, no nodes.  A model certificate that checks out is the answer
    without search: status optimal, gap 0, no nodes.  A time limit that is
    negative or not finite raises ValueError, whether or not a proof or the
    certificate would have answered.
    """
    check_time_limit(time_limit)
    model.validate()
    if model.infeasibility_proof is not None:
        return MilpSolution(INFEASIBLE, None, None, np.inf, 0.0, 0)
    if model.certificate is not None:
        certified = _certified_solution(model)
        if certified is not None:
            return certified
    return _solve_highs(model, time_limit)


def _certified_solution(model: MilpModel) -> Optional[MilpSolution]:
    """The certificate as an optimal solution, or None if it is infeasible or short."""
    t0 = time.perf_counter()
    x, bound = model.certificate
    if check_assignment(model, x):
        return None
    value = float(model.objective_vector() @ x)
    if not reaches_bound(value, bound):
        return None
    return MilpSolution(OPTIMAL, x, value, 0.0, time.perf_counter() - t0, 0)


def reaches_bound(value: float, bound: float) -> bool:
    """Whether a plan worth value proves optimal against a bound on the optimum."""
    return bound - value <= RELATIVE_GAP_TOL * max(1.0, abs(bound))


# ---------------------------------------------------------------------------
# HiGHS through scipy
# ---------------------------------------------------------------------------


def _solve_highs(model: MilpModel, time_limit: Optional[float]) -> MilpSolution:
    t0 = time.perf_counter()
    lo, hi = model.bounds_arrays()
    integrality = np.array([v.kind == BINARY for v in model.variables], dtype=float)
    # The default HiGHS relative MIP gap (1e-4) is far too loose to compare
    # objectives against an exhaustive oracle, so pin it down.
    options = {"mip_rel_gap": RELATIVE_GAP_TOL}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    c = model.objective_vector()
    constraints = None
    if model.constraints:
        a, row_lb, row_ub = model.constraint_matrix()
        constraints = LinearConstraint(a, row_lb, row_ub)
    res = _scipy_milp(
        -c,  # scipy minimises
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lo, hi),
        options=options,
    )
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
