"""Maximum-likelihood growth-rate estimation from collected visit lumps.

Each visit to a vertex collects the cost accrued since its previous visit.
Summing those lumps gives the total growth observed over the vertex's visited
prefix, so the rate estimate is that sum divided by the time covered.
"""

from __future__ import annotations

import numpy as np


class EstimatorState:
    """Per-vertex sufficient statistics (C, T) and the rate estimates built from them.

    C[i] is the total cost collected at vertex i so far, which equals the sum
    of all growth increments up to the last visit time T[i].  The estimate is
    C[i] / T[i] once the vertex has been visited, and mu_default before that.
    """

    def __init__(self, num_vertices: int, mu_default: float):
        self.num_vertices = int(num_vertices)
        self.mu_default = float(mu_default)
        self.T = np.zeros(self.num_vertices + 1, dtype=np.int64)
        self.C = np.zeros(self.num_vertices + 1, dtype=float)

    def observe(self, vertex: int, collected_cost: float, t: int) -> None:
        """Record one visit lump at iteration t.

        Observations must move forward in time per vertex; a stale t is a
        caller bug, not data.
        """
        if not 1 <= vertex <= self.num_vertices:
            raise ValueError(f"vertex {vertex} out of range")
        if t <= self.T[vertex]:
            raise ValueError(
                f"observation at t={t} not after last visit T={int(self.T[vertex])} "
                f"for vertex {vertex}"
            )
        if collected_cost < 0:
            raise ValueError("collected cost cannot be negative")
        self.C[vertex] += collected_cost
        self.T[vertex] = t

    def mu_hat(self) -> np.ndarray:
        """Current rate estimate per vertex; unvisited vertices use the prior default."""
        out = np.full(self.num_vertices + 1, self.mu_default)
        seen = self.T > 0
        out[seen] = self.C[seen] / self.T[seen]
        out[0] = 0.0
        return out

    def predicted_cost(self, t: int) -> np.ndarray:
        """Expected accrued cost at iteration t: rate times iterations since last visit.

        Zero for a vertex just visited at t; grows linearly until the next visit.
        """
        if t < 0:
            raise ValueError("t cannot be negative")
        out = self.mu_hat() * (t - self.T)
        out[0] = 0.0
        return out
