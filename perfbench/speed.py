"""This machine's speed during a run, from a fixed reference kernel timed between units of work.

On machines whose cores are shared with other tenants, speed drifts by up
to a third over seconds to minutes, and often flips between a fast and a
slow mode.  Work slows down together with a fixed kernel of Python and
numpy timed right before and after it, so each unit of work is bracketed by
two kernel samples, and its time is also reported scaled to the kernel's
nominal time.

Not all work slows down by the same factor.  HiGHS's compiled solver slows
down less than the planners' interpreted loops, which read numpy scalars one
at a time.  So there are two kernels, and each workload names the one that
resembles its timed work.  On a 2-core x86_64 machine with shared cores:

- over 222 alternating units, a 0.47 s batch of greedy episodes correlated
  0.74 with "arith" and 0.88 with "scalar"; dividing by them cut its spread
  (IQR/median) from 0.200 to 0.192 and to 0.115;
- five runs each of the tight-exact workload gave a first-round spread of
  0.039 when scaled by "arith" and 0.128 when scaled by "scalar", whose slow
  mode is 1.7 times its fast mode against about 1.3 for the solves.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

# A sample is the median of this many back-to-back kernel runs; single runs
# vary by about a third.
KERNEL_REPEATS = 3
# A fixed float table for the scalar-indexing loop.
_TABLE = np.arange(400.0).reshape(20, 20) % 17.0


def _arithmetic(loop: int, sqrt_calls: int) -> None:
    acc = 0
    for i in range(loop):
        acc += i * i % 7
    a = np.arange(4096.0)
    for _ in range(sqrt_calls):
        a = np.sqrt(a + 1.0)


def arith_kernel() -> float:
    """Seconds for interpreted integer arithmetic and small numpy vector calls."""
    t0 = time.perf_counter()
    _arithmetic(240_000, 400)
    return time.perf_counter() - t0


def scalar_kernel() -> float:
    """Seconds for less of arith_kernel's work, then a loop that reads numpy scalars
    one at a time and sorts by them, as the planners' Python code does."""
    t0 = time.perf_counter()
    _arithmetic(144_000, 240)
    best = -np.inf
    for r in range(600):
        row = r % 20
        for v in range(20):
            x = _TABLE[row, v]
            if np.isfinite(x) and x > 0.0 and x / (v + 1.0) > best:
                best = x / (v + 1.0)
        sorted(range(20), key=lambda v: (_TABLE[row, v], v))
    return time.perf_counter() - t0


# name -> (kernel, the nominal time that scaled timings refer to: about the
# kernel's time in the fast mode of the machine the benchmark was tuned on).
KERNELS: Dict[str, Tuple[Callable[[], float], float]] = {
    "arith": (arith_kernel, 0.02),
    "scalar": (scalar_kernel, 0.026),
}


@dataclass
class Bracket:
    seconds: float = 0.0  # wall time of the unit itself
    scale: float = 1.0  # nominal kernel time / mean kernel time around the unit


class Speed:
    """Kernel samples of one run; consecutive brackets share their boundary sample."""

    def __init__(self, kernel: str) -> None:
        self.kernel, self.nominal = KERNELS[kernel]
        self.samples: List[float] = []

    @contextmanager
    def bracket(self) -> Iterator[Bracket]:
        before = self.samples[-1] if self.samples else self._sample()
        rec = Bracket()
        t0 = time.perf_counter()
        yield rec
        rec.seconds = time.perf_counter() - t0
        rec.scale = self.nominal / ((before + self._sample()) / 2)

    def _sample(self) -> float:
        self.samples.append(statistics.median(self.kernel() for _ in range(KERNEL_REPEATS)))
        return self.samples[-1]
