"""A fixed calibration kernel that measures how fast the host is *now*.

The reference box is a few cores of a shared host.  For tens of seconds
to minutes at a time a neighbour slows everything by 10-40 % (CPU time
rises with the wall, so it is contention for the core and its caches,
not stolen time), which is more than any bound the benchmark could set
on a raw rate.  So every timed pass is bracketed by slices of this
kernel, and host-clock end-to-end metrics are reported *at reference
host speed*: the raw value scaled by how much slower or faster than
:data:`REFERENCE` the kernel ran around that pass.  On the quiet
reference box the scale is 1 and the numbers are the raw ones; the raw
rate and the scale are reported beside them.

The kernel has four components, each fixed work on one of the resources
the workloads live on:

* ``py`` — interpreter object work: heap pushes and pops of tuples, dict
  stores, method calls (the event loop, the scheduler, the dispatch core);
* ``numpy`` — many small NumPy calls on ``20 x 64`` operands, where the
  per-call dispatch dominates (the tensor layer);
* ``stream`` — copies, sums and serialisation of 512 KiB arrays
  (gradient fusion, ring allreduce payloads, checksums);
* ``heap`` — dependent loads in random order over 32 MB of boxed floats,
  which miss the core's own caches (any large object graph).

Host speed is the geometric mean of the four components' speeds, the
same for every workload: over ten-second windows of one unchanged
program it took the spread of every workload's rate from 16-28 % to
1-9 % under injected CPU contention, and from up to 18 % (range 46 %)
to 1-4 % (range 9 %) under the host's own noise; no single component
did as well on all seven.  (A fifth component, two threads handing a
token through a condition, did not follow the SPMD workloads and was
dropped.)  Nothing here imports ``repro``: an optimisation of the
program cannot move the yardstick.  Changing a component or
:data:`REFERENCE` redefines every host-clock metric; re-measure the
baseline in the same change.
"""

from __future__ import annotations

import heapq
import math
import time
from statistics import median

import numpy as np

#: Seconds each component takes on the quiet reference box (fast
#: quartile of 1 368 slices taken between passes of all seven workloads,
#: pinned to one CPU; Xeon 2.1 GHz, Python 3.11, NumPy 2.4).
REFERENCE = {"py": 0.0086, "numpy": 0.0078, "stream": 0.0075,
             "heap": 0.0100}
COMPONENTS = tuple(REFERENCE)


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


class Calibrator:
    """Holds the kernel's operands and runs slices of it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210517)
        self.x = rng.normal(size=(20, 64))
        self.w = rng.normal(size=(64, 64))
        self.small_out = np.empty((20, 64))
        self.big = rng.normal(size=65536)
        self.big_out = np.empty(65536)
        # Boxed floats are not tracked by the garbage collector, so the
        # program's collections do not walk them.
        self.boxes = [float(i) for i in range(1_000_000)]
        self.order = rng.integers(0, len(self.boxes), size=60000).tolist()

    # -- components -----------------------------------------------------

    def py(self) -> None:
        heap: list = []
        table: dict = {}
        push, pop, bump = heapq.heappush, heapq.heappop, _Cell().bump
        for i in range(12000):
            push(heap, ((i * 7919) % 1009, i))
            table[i & 255] = bump(i & 7)
            if i & 1:
                pop(heap)

    def numpy(self) -> None:
        x, w, out = self.x, self.w, self.small_out
        for _ in range(830):
            np.matmul(x, w, out=out)
            np.maximum(out, 0.0, out=out)
            (out * 0.5 + x).sum(axis=0)

    def stream(self) -> None:
        big, out = self.big, self.big_out
        for _ in range(118):
            np.copyto(out, big)
            np.add(out, big, out=out)
            out.view(np.uint64).sum(dtype=np.uint64)
            out.tobytes()

    def heap(self) -> None:
        boxes = self.boxes
        total = 0.0
        for i in self.order:
            total += boxes[i]

    # -- slices ---------------------------------------------------------

    def slice(self) -> dict[str, float]:
        """One run of every component; seconds each took."""
        clock = time.perf_counter
        took = {}
        for name in COMPONENTS:
            t0 = clock()
            getattr(self, name)()
            took[name] = clock() - t0
        return took

    def sample(self, slices: int) -> dict[str, float]:
        """Component-wise median over ``slices`` slices."""
        rows = [self.slice() for _ in range(slices)]
        return {name: median(row[name] for row in rows)
                for name in COMPONENTS}


def host_speed(samples: list[dict[str, float]]) -> float:
    """Host speed relative to the reference box (1.0 = reference, 0.8 =
    a fifth slower): the geometric mean over the components of reference
    time over mean time in ``samples`` (the samples around one pass)."""
    log_speed = 0.0
    for name in COMPONENTS:
        took = sum(s[name] for s in samples) / len(samples)
        log_speed += math.log(REFERENCE[name] / took) / len(COMPONENTS)
    return math.exp(log_speed)
