"""Problem instance files: a JSON snapshot of one benchmark scenario.

An instance pins down everything an episode needs: the graph (positions plus
undirected edges stored once and mirrored on load), the fleet size and travel
budget, required vertices, the true growth rates, and the full pre-drawn
growth table so that every planner sees the very same randomness.

A file is laid out exactly as json.dump(payload, fh, indent=1) plus a
newline lays it out; tests pin the bytes of a suite.  The writer does not
call json.dump: instance_texts formats every number once, in one call to
the C JSON encoder, and lays the cells out itself, so one rendering of an
instance at its longest horizon yields the file text of every shorter
horizon.  The reader turns every malformed value into an
InstanceFormatError that names the file: counts must be JSON integers (not
bools or fractions); positions, lengths, l_max, rates and noise_stddev
finite JSON numbers (not bools), and rates, mu_default included, >= 0.  The
growth table, the bulk of a file, must hold JSON numbers (not bools) inside
the clip range, which also rejects NaN and the infinities.  Its type check
is one pass in C, and only a table with an integer in it is converted.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, NoReturn, Sequence, Tuple

import numpy as np

from .cost_process import CLIP_RANGE
from .graph import Graph, symmetrize

FORMAT_VERSION = 1
_NUMBER_TYPES = frozenset((int, float))  # the types json.load gives a number


class InstanceFormatError(ValueError):
    """Instance file missing fields, out-of-range references, or bad shapes."""


@dataclass
class Instance:
    seed: int
    horizon: int
    num_vertices: int
    num_agents: int
    l_max: float
    positions: List[Tuple[float, float]]  # row v-1 holds vertex v
    edges: List[Tuple[int, int, float]]  # (i, j, length) with i < j, once
    must_visit: List[int]
    mu_star: List[float]
    mu_default: float
    noise_stddev: float
    kappa: List[List[float]]  # N rows by H columns
    seed_escalations: int = 0


def instance_id(instance: Instance) -> str:
    return f"H{instance.horizon}_seed{instance.seed}"


def instance_graph(instance: Instance) -> Graph:
    return Graph(instance.num_vertices, symmetrize(instance.edges))


def kappa_table(instance: Instance) -> np.ndarray:
    """The pre-drawn growth table as an (N+1, H+1) array; row 0 and column 0 zero."""
    table = np.zeros((instance.num_vertices + 1, instance.horizon + 1))
    table[1:, 1:] = np.asarray(instance.kappa, dtype=float)
    return table


# One C-encoder call formats a flat list of numbers exactly as json.dump
# does (float.__repr__, NaN and Infinity as json writes them); the
# separator makes the cells easy to split.  json.dump with indent never
# reaches the C encoder, so it formats and writes one token at a time.
_encode_cells = json.JSONEncoder(separators=(",\n", ": ")).encode


def _array(items: List[str], depth: int) -> str:
    """A list of rendered items laid out as indent=1 lays out a list at depth."""
    if not items:
        return "[]"
    pad = "\n" + " " * depth
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * (depth - 1) + "]"


def instance_texts(instance: Instance, horizons: Sequence[int]) -> List[str]:
    """The file text of the instance cut to each horizon: H = h, kappa rows cut to h columns.

    Each text is byte for byte what json.dump(payload, fh, indent=1) plus a
    newline writes.  Every number is formatted once, in one encoder call,
    and every horizon's text is cut from the same cells.
    """
    scalars = [FORMAT_VERSION, instance.seed, instance.num_vertices, instance.num_agents,
               instance.l_max, float(instance.mu_default), float(instance.noise_stddev),
               int(instance.seed_escalations), *horizons]
    rows = [(float(x), float(y)) for x, y in instance.positions]
    rows += [(int(i), int(j), float(l)) for i, j, l in instance.edges]
    rows.append([int(v) for v in instance.must_visit])
    rows.append([float(v) for v in instance.mu_star])
    rows += [[float(v) for v in row] for row in instance.kappa]
    cells = _encode_cells(scalars + [v for row in rows for v in row])[1:-1].split(",\n")

    version, seed, n, m, l_max, mu_default, noise, escalations = cells[:8]
    at = len(scalars)
    row_cells = []
    for row in rows:
        row_cells.append(cells[at:at + len(row)])
        at += len(row)
    p = len(instance.positions)
    e = p + len(instance.edges)
    head = f'{{\n "version": {version},\n "seed": {seed},\n "H": '
    middle = (f',\n "N": {n},\n "M": {m},\n "l_max": {l_max}'
              f',\n "positions": {_array([_array(row, 3) for row in row_cells[:p]], 2)}'
              f',\n "edges": {_array([_array(row, 3) for row in row_cells[p:e]], 2)}'
              f',\n "must_visit": {_array(row_cells[e], 2)}'
              f',\n "mu_star": {_array(row_cells[e + 1], 2)}'
              f',\n "mu_default": {mu_default},\n "noise_stddev": {noise},\n "kappa": ')
    tail = f',\n "seed_escalations": {escalations}\n}}\n'
    kappa = row_cells[e + 2:]
    return [
        head + h + middle + _array([_array(row[:horizon], 3) for row in kappa], 2) + tail
        for horizon, h in zip(horizons, cells[8:len(scalars)])
    ]


def write_instance(instance: Instance, path: str) -> None:
    text = instance_texts(instance, (instance.horizon,))[0]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def read_instance(path: str) -> Instance:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_payload(payload, origin=path)


def instance_from_payload(payload: Dict, origin: str = "<payload>") -> Instance:
    def fail(msg: str) -> NoReturn:
        raise InstanceFormatError(f"{origin}: {msg}")

    def converted(what: str, convert: Callable, value):
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            fail(f"{what} holds a value that is not a number ({exc})")

    def numbers(what: str, values: list) -> None:
        # float() would also read true as 1.0 and parse a string
        if not _NUMBER_TYPES.issuperset(map(type, values)):
            fail(f"{what} holds a value that is not a number")

    def count(what: str, value) -> int:
        # a bool, a fraction or a string is not one, though int() takes it
        if type(value) is not int:
            fail(f"{what} is {value!r}, not an integer")
        return value

    if not isinstance(payload, dict):
        fail("top level is not a JSON object")
    required_keys = [
        "version", "seed", "H", "N", "M", "l_max", "positions", "edges",
        "must_visit", "mu_star", "mu_default", "noise_stddev", "kappa",
    ]
    for key in required_keys:
        if key not in payload:
            fail(f"missing field {key!r}")
    for key in ("positions", "edges", "must_visit", "mu_star", "kappa"):
        if not isinstance(payload[key], list):
            fail(f"{key} is not a list")
    if count("version", payload["version"]) != FORMAT_VERSION:
        fail(f"unsupported version {payload['version']!r}")
    n = count("N", payload["N"])
    h = count("H", payload["H"])
    m = count("M", payload["M"])
    if n < 1:
        fail("N must be >= 1")
    if h < 1:
        fail("H must be >= 1")
    if m < 1:
        fail("M must be >= 1")
    numbers("l_max", [payload["l_max"]])
    l_max = converted("l_max", float, payload["l_max"])
    if not (math.isfinite(l_max) and l_max > 0):
        fail("l_max must be positive and finite")
    positions = payload["positions"]
    if len(positions) != n:
        fail(f"positions has {len(positions)} rows, want N={n}")
    for row in positions:
        if not isinstance(row, list) or len(row) != 2:
            fail(f"position row {row} is not [x, y]")
    xy = [v for row in positions for v in row]
    numbers("positions", xy)
    positions = converted("positions", lambda rows: [(float(x), float(y)) for x, y in rows],
                          positions)
    if not all(map(math.isfinite, xy)):
        fail("positions must be finite")
    for row in payload["edges"]:
        if not isinstance(row, list) or len(row) != 3:
            fail(f"edge row {row} is not [i, j, length]")
        if type(row[0]) is not int or type(row[1]) is not int:
            fail(f"edge row {row} names a vertex that is not an integer")
        if type(row[2]) not in _NUMBER_TYPES:
            fail(f"edge row {row} has a length that is not a number")
    edges: List[Tuple[int, int, float]] = converted(
        "edges", lambda rows: [(i, j, float(l)) for i, j, l in rows], payload["edges"])
    seen_pairs = set()
    for i, j, l in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            fail(f"edge ({i},{j}) references an unknown vertex")
        if i >= j:
            fail(f"edge ({i},{j}) must be stored with i < j")
        if (i, j) in seen_pairs:
            fail(f"edge ({i},{j}) listed twice")
        if not (math.isfinite(l) and l > 0):
            fail(f"edge ({i},{j}) has nonpositive length")
        seen_pairs.add((i, j))
    must_visit = [count("must_visit vertex", v) for v in payload["must_visit"]]
    if len(set(must_visit)) != len(must_visit):
        fail("must_visit has duplicates")
    for v in must_visit:
        if not 2 <= v <= n:
            fail(f"must_visit vertex {v} out of range (depot excluded)")
    numbers("mu_star", payload["mu_star"])
    mu_star = converted("mu_star", lambda vs: [float(v) for v in vs], payload["mu_star"])
    if len(mu_star) != n:
        fail(f"mu_star has {len(mu_star)} entries, want N={n}")
    for v in mu_star:
        if not (math.isfinite(v) and v >= 0):
            fail("mu_star entries must be finite and nonnegative")
    numbers("mu_default", [payload["mu_default"]])
    mu_default = converted("mu_default", float, payload["mu_default"])
    if not (math.isfinite(mu_default) and mu_default >= 0):
        fail("mu_default must be finite and nonnegative")
    numbers("noise_stddev", [payload["noise_stddev"]])
    noise = converted("noise_stddev", float, payload["noise_stddev"])
    if noise < 0 or not math.isfinite(noise):
        fail("noise_stddev must be nonnegative")
    kappa = payload["kappa"]
    if len(kappa) != n:
        fail(f"kappa has {len(kappa)} rows, want N={n}")
    for r, row in enumerate(kappa):
        if not isinstance(row, list):
            fail(f"kappa row {r} is not a list")
        if len(row) != h:
            fail(f"kappa row {r} has {len(row)} columns, want H={h}")
    types = set(map(type, chain.from_iterable(kappa)))
    if not _NUMBER_TYPES.issuperset(types):
        fail("kappa holds a value that is not a number")
    if int in types:  # json reads every number the writer wrote as a float
        kappa = converted("kappa", lambda rows: [[float(v) for v in row] for row in rows], kappa)
    lo, hi = CLIP_RANGE
    for row in kappa:
        for v in row:
            if not (lo <= v <= hi):
                fail(f"kappa value {v} outside clip range [{lo}, {hi}]")
    return Instance(
        seed=count("seed", payload["seed"]),
        horizon=h,
        num_vertices=n,
        num_agents=m,
        l_max=l_max,
        positions=positions,
        edges=edges,
        must_visit=must_visit,
        mu_star=mu_star,
        mu_default=mu_default,
        noise_stddev=noise,
        kappa=kappa,
        seed_escalations=count("seed_escalations", payload.get("seed_escalations", 0)),
    )
