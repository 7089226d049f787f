"""Shared latency statistics.

Every service-quality surface in the repo — the Fig. 3 A real-time stream
(:mod:`repro.core.streaming`) and the online serving subsystem
(:mod:`repro.serving`) — is judged on the same numbers: latency
percentiles, means, histograms.  This module is the single implementation
both use, so "p99" always means exactly the same computation.

All functions are deterministic and operate on plain sequences/arrays;
nothing here touches the simulation clock.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """The ``q``-th percentile (linear interpolation, numpy semantics).

    Raises ``ValueError`` on an empty sample — a percentile of nothing is a
    bug at the call site, not a 0.0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    if not (0.0 <= q <= 100.0):
        raise ValueError("percentile rank must be in [0, 100]")
    return float(np.percentile(arr, q))


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of a non-empty ascending sample, bit for bit:
    NumPy's ``linear`` index ``(n-1)*(q/100)`` and two-sided lerp in plain
    floats, the same IEEE operations without the copy and partition."""
    v = (len(ordered) - 1) * (q / 100.0)
    lo = int(v)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    g, d = v - lo, b - a
    return a + d * g if g < 0.5 else b - d * (1.0 - g)


def slide_sorted(window: deque, ordered: list, value: float,
                 size: int) -> None:
    """Append ``value`` to the FIFO ``window``, dropping its oldest entry
    once it holds ``size``; ``ordered`` stays its ascending copy."""
    if len(window) == size:
        del ordered[bisect_left(ordered, window.popleft())]
    window.append(value)
    insort(ordered, value)


@dataclass(frozen=True)
class LatencySummary:
    """The headline latency numbers of one run, in seconds."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float


def summarize_latencies(values: Sequence[float] | np.ndarray) -> LatencySummary:
    """Collapse a latency sample into its :class:`LatencySummary`."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty latency sample")
    return LatencySummary(
        count=int(arr.size),
        mean_s=float(arr.mean()),
        p50_s=float(np.percentile(arr, 50)),
        p95_s=float(np.percentile(arr, 95)),
        p99_s=float(np.percentile(arr, 99)),
        max_s=float(arr.max()),
    )
