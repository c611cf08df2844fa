"""Episode results as a flat CSV: one row per (instance, planner) episode.

Per-iteration lists live inside single cells joined by '|'.  Floats are
written with repr, which round-trips bit-exactly, so reading a table back
gives the same numbers that were computed.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Dict, Iterable, List, Tuple

from . import milp
from .simulator import STATUS_HEURISTIC, EpisodeResult

COLUMNS = [
    "instance_id",
    "H",
    "planner",
    "total_cost",
    "iter_costs",
    "iter_seconds",
    "iter_statuses",
    "failed",
]

_LIST_SEP = "|"
# what run_episode records for a round: a milp status, or greedy's
_STATUSES = (milp.OPTIMAL, milp.FEASIBLE_TIMEOUT, milp.TIMEOUT_NO_SOLUTION, milp.INFEASIBLE,
             STATUS_HEURISTIC)


def result_to_row(result: EpisodeResult) -> Dict[str, str]:
    return {
        "instance_id": result.instance_id,
        "H": str(result.horizon),
        "planner": result.planner,
        "total_cost": repr(result.total_cost),
        "iter_costs": _LIST_SEP.join(repr(v) for v in result.residual_costs),
        "iter_seconds": _LIST_SEP.join(repr(v) for v in result.compute_seconds),
        "iter_statuses": _LIST_SEP.join(result.statuses),
        "failed": "1" if result.failed else "0",
    }


def write_results(path: str, rows: Iterable[Dict[str, str]]) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_results(path: str) -> List[Dict]:
    """Rows with typed fields: H int, total_cost float, the lists split and parsed.

    A row with fewer or more cells than the header, a second row for the
    same (instance_id, planner) pair, or a malformed cell (see _typed_row)
    raises ValueError naming the file and the line.
    """
    out: List[Dict] = []
    seen: Dict[Tuple[str, str], int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: results table missing columns {missing}")
        for raw in reader:
            if None in raw.values():
                raise ValueError(f"{path}: line {reader.line_num} has fewer than "
                                 f"{len(reader.fieldnames)} cells")
            if None in raw:  # DictReader files the extra cells under the key None
                raise ValueError(f"{path}: line {reader.line_num} has more than "
                                 f"{len(reader.fieldnames)} cells")
            pair = (raw["instance_id"], raw["planner"])
            if pair in seen:
                raise ValueError(f"{path}: line {reader.line_num} repeats {pair[0]},{pair[1]} "
                                 f"from line {seen[pair]}")
            seen[pair] = reader.line_num
            try:
                out.append(_typed_row(raw))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num} {exc}") from None
    return out


def _typed_row(raw: Dict[str, str]) -> Dict:
    """raw's cells typed; ValueError unless H is an integer, failed is 0 or 1,
    the numbers parse and are finite, the costs are >= 0 (costs grow from
    zero), every status is one run_episode records, and each per-iteration
    list has H entries, as run_episode records one per round."""
    try:
        horizon = int(raw["H"])
    except ValueError:
        raise ValueError(f"has H {raw['H']!r}, not an integer") from None
    if raw["failed"] not in ("0", "1"):
        raise ValueError(f"has failed {raw['failed']!r}, not 0 or 1")
    total_cost = float(raw["total_cost"])
    if not math.isfinite(total_cost):
        raise ValueError(f"has total_cost {raw['total_cost']!r}, not a finite number")
    if total_cost < 0.0:
        raise ValueError(f"has total_cost {raw['total_cost']!r}, below 0")
    row = {
        "instance_id": raw["instance_id"],
        "H": horizon,
        "planner": raw["planner"],
        "total_cost": total_cost,
        "iter_costs": _parse_floats("iter_costs", raw["iter_costs"]),
        "iter_seconds": _parse_floats("iter_seconds", raw["iter_seconds"]),
        "iter_statuses": raw["iter_statuses"].split(_LIST_SEP) if raw["iter_statuses"] else [],
        "failed": raw["failed"] == "1",
    }
    if min(row["iter_costs"], default=0.0) < 0.0:
        raise ValueError(f"has iter_costs {raw['iter_costs']!r}, not all >= 0")
    for status in row["iter_statuses"]:
        if status not in _STATUSES:
            raise ValueError(f"has iter_statuses entry {status!r}, not one of "
                             f"{', '.join(_STATUSES)}")
    for column in ("iter_costs", "iter_seconds", "iter_statuses"):
        if len(row[column]) != horizon:
            raise ValueError(f"has {column} of length {len(row[column])}, not H = {horizon}")
    return row


def _parse_floats(column: str, cell: str) -> List[float]:
    """cell's '|'-joined numbers; ValueError naming the column unless all are finite."""
    values = [float(v) for v in cell.split(_LIST_SEP)] if cell else []
    if not all(map(math.isfinite, values)):
        raise ValueError(f"has {column} {cell!r}, not finite numbers")
    return values
