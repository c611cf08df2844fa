"""Per-vertex cost accrual: clipped-Gaussian growth, visit resets, residuals.

Every iteration each vertex's cost grows by a nonnegative increment drawn from
a Gaussian around the vertex's true rate and clipped into a fixed interval.
Visiting a vertex collects (and zeroes) whatever has accrued there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

import numpy as np

from .graph import DEPOT

# Every growth increment is clipped into this interval.
CLIP_RANGE = (0.0, 1.0)


@dataclass
class GrowthParams:
    """True growth-rate model for one instance.

    mu_star is an (N+1,) array with slot 0 unused; noise_stddev is shared by
    all vertices.  Increments are clipped into CLIP_RANGE.
    """

    mu_star: np.ndarray
    noise_stddev: float


def sample_growth(params: GrowthParams, stream_seed: int, t: int) -> np.ndarray:
    """One increment per vertex for iteration t, deterministic in (stream_seed, t).

    Returns an (N+1,) array with slot 0 set to 0.  With noise_stddev == 0 the
    draw is exactly mu_star (clipped).
    """
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    rng = np.random.Generator(np.random.PCG64((stream_seed, t)))
    mu = np.asarray(params.mu_star, dtype=float)
    # loc + scale * z over the same draws, as rng.normal(loc=mu, scale=noise) computes it
    draws = mu + params.noise_stddev * rng.standard_normal(len(mu))
    np.clip(draws, *CLIP_RANGE, out=draws)
    draws[0] = 0.0
    return draws


class CostState:
    """Accrued cost per vertex as iterations advance and visits collect.

    The growth table (kappa) is materialized up front: column t holds the
    increments applied when advancing into iteration t.  The state tracks the
    current iteration t, the last visit time T[i] of each vertex, and the cost
    accrued[i] since that visit; accrued[i] always equals the column sum of
    kappa[i, T[i]+1 .. t].
    """

    def __init__(self, kappa: np.ndarray):
        kappa = np.asarray(kappa, dtype=float)
        if kappa.ndim != 2:
            raise ValueError("kappa must be 2-d: (N+1, H+1)")
        self.kappa = kappa
        self.num_vertices = kappa.shape[0] - 1
        self.horizon = kappa.shape[1] - 1
        self.t = 0
        self.T = np.zeros(self.num_vertices + 1, dtype=np.int64)
        self.accrued = np.zeros(self.num_vertices + 1, dtype=float)

    def advance(self) -> None:
        """Move to the next iteration and apply that column of growth."""
        if self.t >= self.horizon:
            raise ValueError(f"cannot advance past horizon {self.horizon}")
        self.t += 1
        self.accrued[1:] += self.kappa[1:, self.t]
        self.accrued[0] = 0.0

    def apply_visits(self, visited: Set[int], t: int) -> float:
        """Collect accrued cost at every visited vertex; returns the total collected.

        The depot must be in the visited set (agents start and end there), and
        t must be the current iteration.  Re-applying the same visit set is
        harmless: everything is already zero.
        """
        if t != self.t:
            raise ValueError(f"apply_visits at t={t} but state is at t={self.t}")
        if DEPOT not in visited:
            raise ValueError("visited set must contain the depot")
        collected = 0.0
        for v in sorted(visited):
            if not 1 <= v <= self.num_vertices:
                raise ValueError(f"visited vertex {v} out of range")
            collected += self.accrued[v]
            self.accrued[v] = 0.0
            self.T[v] = t
        return collected

    def residual_cost(self) -> float:
        """Total cost left on the graph right now (the per-iteration objective term)."""
        return float(self.accrued[1:].sum())


def materialize_kappa(params: GrowthParams, stream_seed: int, horizon: int) -> np.ndarray:
    """Draw the full (N+1, H+1) growth table; column 0 is zeros."""
    n = len(params.mu_star) - 1
    kappa = np.zeros((n + 1, horizon + 1))
    for t in range(1, horizon + 1):
        kappa[:, t] = sample_growth(params, stream_seed, t)
    return kappa
