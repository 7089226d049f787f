"""Analytic α-β(-γ) cost models for MPI collectives.

These are the standard Hockney/LogP-family models used throughout the HPC
literature (and inside MPI libraries' algorithm selectors):

* point-to-point: ``α + nβ``
* ring allreduce (Horovod's algorithm): ``2(p-1)α + 2 n β (p-1)/p + n γ (p-1)/p``
* recursive doubling: ``log2(p)(α + nβ + nγ)``
* Rabenseifner (reduce-scatter + allgather): ``2 log2(p) α + 2 n β (p-1)/p + n γ (p-1)/p``
* binomial-tree broadcast: ``ceil(log2(p)) (α + nβ)``

``α`` = per-message latency (s), ``β`` = inverse bandwidth (s/byte),
``γ`` = per-byte local reduction cost (s/byte), one figure for every
fabric (:data:`GAMMA`).  These models drive the
simulated clock that regenerates the paper's Fig. 3 scaling curves at
96–128 GPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.simnet.link import Link, LinkKind

#: Local reduction cost, s/byte (~200 GB/s memory bandwidth).
GAMMA = 5.0e-12


def _check(p: int, nbytes: float) -> None:
    if p < 1:
        raise ValueError("need at least one participant")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")


def ptp_time(alpha: float, beta: float, nbytes: float) -> float:
    """Point-to-point message cost α + nβ."""
    _check(1, nbytes)
    return alpha + nbytes * beta


def allreduce_ring_time(p: int, nbytes: float, alpha: float,
                        beta: float) -> float:
    """Bandwidth-optimal ring allreduce (reduce-scatter + allgather rings)."""
    _check(p, nbytes)
    frac = (p - 1) / p
    return 2 * (p - 1) * alpha + 2 * nbytes * beta * frac + nbytes * GAMMA * frac


def allreduce_recursive_doubling_time(p: int, nbytes: float, alpha: float,
                                      beta: float) -> float:
    """Latency-optimal recursive doubling (assumes power-of-two ranks)."""
    _check(p, nbytes)
    steps = math.ceil(math.log2(p))
    return steps * (alpha + nbytes * beta + nbytes * GAMMA)


def allreduce_rabenseifner_time(p: int, nbytes: float, alpha: float,
                                beta: float) -> float:
    """Rabenseifner's algorithm: recursive-halving reduce-scatter + allgather."""
    _check(p, nbytes)
    steps = math.ceil(math.log2(p))
    frac = (p - 1) / p
    return 2 * steps * alpha + 2 * nbytes * beta * frac + nbytes * GAMMA * frac


#: Each allreduce closed form by algorithm name.
ALLREDUCE_TIMES = {
    "ring": allreduce_ring_time,
    "recursive-doubling": allreduce_recursive_doubling_time,
    "rabenseifner": allreduce_rabenseifner_time,
}


def best_allreduce_time(p: int, nbytes: float, alpha: float,
                        beta: float) -> tuple[float, str]:
    """Pick the cheapest allreduce algorithm — what real MPIs/Horovod do.

    Returns (time, algorithm-name).
    """
    candidates = {name: fn(p, nbytes, alpha, beta)
                  for name, fn in ALLREDUCE_TIMES.items()}
    name = min(candidates, key=candidates.get)
    return candidates[name], name


@dataclass(frozen=True)
class CommCostModel:
    """α-β parameters for a fabric, derivable from a :class:`Link`."""

    alpha: float             # per-message latency, seconds
    beta: float              # seconds per byte

    @classmethod
    def from_link(cls, link: Link) -> "CommCostModel":
        return cls(alpha=link.latency_s, beta=1.0 / link.bandwidth_Bps)

    @classmethod
    @lru_cache(maxsize=128)   # frozen value type, one per link kind
    def of_kind(cls, kind: LinkKind) -> "CommCostModel":
        return cls.from_link(Link.of_kind(kind))

    def ptp(self, nbytes: float) -> float:
        return ptp_time(self.alpha, self.beta, nbytes)
