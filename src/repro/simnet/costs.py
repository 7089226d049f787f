"""Analytic α-β(-γ) cost models for MPI collectives.

These are the standard Hockney/LogP-family models used throughout the HPC
literature (and inside MPI libraries' algorithm selectors):

* point-to-point: ``α + nβ``
* ring allreduce (Horovod's algorithm): ``2(p-1)α + 2 n β (p-1)/p + n γ (p-1)/p``
* recursive doubling: ``log2(p)(α + nβ + nγ)``
* Rabenseifner (reduce-scatter + allgather): ``2 log2(p) α + 2 n β (p-1)/p + n γ (p-1)/p``
* binomial-tree broadcast: ``ceil(log2(p)) (α + nβ)``

``α`` = per-message latency (s), ``β`` = inverse bandwidth (s/byte),
``γ`` = per-byte local reduction cost (s/byte).  These models drive the
simulated clock that regenerates the paper's Fig. 3 scaling curves at
96–128 GPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.simnet.link import Link, LinkKind


def _check(p: int, nbytes: float) -> None:
    if p < 1:
        raise ValueError("need at least one participant")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")


def ptp_time(alpha: float, beta: float, nbytes: float) -> float:
    """Point-to-point message cost α + nβ."""
    _check(1, nbytes)
    return alpha + nbytes * beta


def allreduce_ring_time(
    p: int, nbytes: float, alpha: float, beta: float, gamma: float = 0.0
) -> float:
    """Bandwidth-optimal ring allreduce (reduce-scatter + allgather rings)."""
    _check(p, nbytes)
    if p == 1:
        return 0.0
    frac = (p - 1) / p
    return 2 * (p - 1) * alpha + 2 * nbytes * beta * frac + nbytes * gamma * frac


def allreduce_recursive_doubling_time(
    p: int, nbytes: float, alpha: float, beta: float, gamma: float = 0.0
) -> float:
    """Latency-optimal recursive doubling (assumes power-of-two ranks)."""
    _check(p, nbytes)
    if p == 1:
        return 0.0
    steps = math.ceil(math.log2(p))
    return steps * (alpha + nbytes * beta + nbytes * gamma)


def allreduce_rabenseifner_time(
    p: int, nbytes: float, alpha: float, beta: float, gamma: float = 0.0
) -> float:
    """Rabenseifner's algorithm: recursive-halving reduce-scatter + allgather."""
    _check(p, nbytes)
    if p == 1:
        return 0.0
    steps = math.ceil(math.log2(p))
    frac = (p - 1) / p
    return 2 * steps * alpha + 2 * nbytes * beta * frac + nbytes * gamma * frac


def broadcast_binomial_time(p: int, nbytes: float, alpha: float, beta: float) -> float:
    """Binomial-tree broadcast."""
    _check(p, nbytes)
    if p == 1:
        return 0.0
    return math.ceil(math.log2(p)) * (alpha + nbytes * beta)


def allgather_ring_time(p: int, nbytes_per_rank: float, alpha: float, beta: float) -> float:
    """Ring allgather: p-1 steps, each moving one rank's block."""
    _check(p, nbytes_per_rank)
    if p == 1:
        return 0.0
    return (p - 1) * (alpha + nbytes_per_rank * beta)


def reduce_scatter_time(
    p: int, nbytes: float, alpha: float, beta: float, gamma: float = 0.0
) -> float:
    """Ring reduce-scatter over a buffer of ``nbytes`` total."""
    _check(p, nbytes)
    if p == 1:
        return 0.0
    frac = (p - 1) / p
    return (p - 1) * alpha + nbytes * beta * frac + nbytes * gamma * frac


def best_allreduce_time(
    p: int, nbytes: float, alpha: float, beta: float, gamma: float = 0.0
) -> tuple[float, str]:
    """Pick the cheapest allreduce algorithm — what real MPIs/Horovod do.

    Returns (time, algorithm-name).
    """
    candidates = {
        "ring": allreduce_ring_time(p, nbytes, alpha, beta, gamma),
        "recursive-doubling": allreduce_recursive_doubling_time(p, nbytes, alpha, beta, gamma),
        "rabenseifner": allreduce_rabenseifner_time(p, nbytes, alpha, beta, gamma),
    }
    name = min(candidates, key=candidates.get)
    return candidates[name], name


@dataclass(frozen=True)
class CommCostModel:
    """α-β-γ parameters for a fabric, derivable from a :class:`Link`."""

    alpha: float             # per-message latency, seconds
    beta: float              # seconds per byte
    gamma: float = 5.0e-12   # local reduction, s/byte (~200 GB/s memory系)

    @classmethod
    def from_link(cls, link: Link, gamma: float = 5.0e-12) -> "CommCostModel":
        return cls(alpha=link.latency_s, beta=1.0 / link.bandwidth_Bps, gamma=gamma)

    @classmethod
    @lru_cache(maxsize=128)   # frozen value type; gamma is an open float
    def of_kind(cls, kind: LinkKind, gamma: float = 5.0e-12) -> "CommCostModel":
        return cls.from_link(Link.of_kind(kind), gamma=gamma)

    def ptp(self, nbytes: float) -> float:
        return ptp_time(self.alpha, self.beta, nbytes)

    def scaled(self, alpha_factor: float = 1.0, beta_factor: float = 1.0) -> "CommCostModel":
        """Derive a model with scaled constants (used by the GCE offload)."""
        return CommCostModel(
            alpha=self.alpha * alpha_factor,
            beta=self.beta * beta_factor,
            gamma=self.gamma,
        )


@dataclass(frozen=True)
class CollectiveCosts:
    """Collective-time oracle bound to one cost model."""

    model: CommCostModel

    def allreduce(self, p: int, nbytes: float, algorithm: str = "auto") -> float:
        m = self.model
        if algorithm == "auto":
            t, _ = best_allreduce_time(p, nbytes, m.alpha, m.beta, m.gamma)
            return t
        if algorithm == "ring":
            return allreduce_ring_time(p, nbytes, m.alpha, m.beta, m.gamma)
        if algorithm == "recursive-doubling":
            return allreduce_recursive_doubling_time(p, nbytes, m.alpha, m.beta, m.gamma)
        if algorithm == "rabenseifner":
            return allreduce_rabenseifner_time(p, nbytes, m.alpha, m.beta, m.gamma)
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")

    def broadcast(self, p: int, nbytes: float) -> float:
        return broadcast_binomial_time(p, nbytes, self.model.alpha, self.model.beta)

    def allgather(self, p: int, nbytes_per_rank: float) -> float:
        return allgather_ring_time(p, nbytes_per_rank, self.model.alpha, self.model.beta)

    def reduce_scatter(self, p: int, nbytes: float) -> float:
        return reduce_scatter_time(p, nbytes, self.model.alpha, self.model.beta, self.model.gamma)

    def ptp(self, nbytes: float) -> float:
        return self.model.ptp(nbytes)
