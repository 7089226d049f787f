"""Small-sample statistics for the end-to-end benchmark.

The rules every number in the benchmark follows live here:

* a timing is reported as a median and as the highest percentile that
  still has at least ten samples beyond it — :func:`percentile` refuses
  (returns ``None``) anything the sample cannot support, and callers
  state ``n`` next to the value;
* a throughput is reported as the median of per-pass rates, each
  scaled to reference host speed (``calibrate.py``); where two raw walls
  of one run are compared, the fast quartile is (:func:`fast_wall`),
  which interference on a shared host moves least;
* run-to-run spread is the distance between the first and third
  quartile as a share of the median — :func:`spread`, the same
  arithmetic the acceptance driver applies to ten seeded runs.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def fast_wall(walls: Sequence[float]) -> float:
    """The lower quartile of pass wall times: the wall of the fastest
    quarter of a run's passes.

    Interference on a shared machine only ever slows a pass down, and it
    comes in episodes of seconds.  The median moves as soon as half the
    passes are hit; the fast quartile holds until three quarters are.
    """
    return float(statistics.quantiles(walls, n=4)[0])


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (nearest rank), or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must be in (0, 100)")
    n = len(values)
    rank = math.ceil(n * q / 100.0)
    if n - rank < MIN_BEYOND:
        return None
    return float(sorted(values)[rank - 1])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf
