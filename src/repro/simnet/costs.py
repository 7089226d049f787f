"""Analytic α-β cost models for MPI collectives.

These are the standard Hockney/LogP-family models used throughout the HPC
literature (and inside MPI libraries' algorithm selectors):

* point-to-point: ``α + nβ``
* ring allreduce (Horovod's algorithm): ``2(p-1)α + 2 n β (p-1)/p``
* recursive doubling: ``log2(p)(α + nβ)`` at a power of two; otherwise a
  fold-in and a fold-out step more, less the α-only rounds of the chain
* Rabenseifner (reduce-scatter + allgather): ``2 log2(p) α + 2 n β (p-1)/p``,
  at a power of two only

``α`` = per-message latency (s), ``β`` = inverse bandwidth (s/byte).  Each
form is the critical path of the algorithm :mod:`repro.mpi.collectives`
executes, and like every simulated clock it charges wire time only: no
local reduction term.  ``tests/test_simnet_costs.py`` holds each form to
the executed collective.  These models drive the simulated clock that
regenerates the paper's Fig. 3 scaling curves at 96–128 GPUs.
"""

from __future__ import annotations

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


def allreduce_ring_time(p: int, nbytes: float, alpha: float,
                        beta: float) -> float:
    """Bandwidth-optimal ring allreduce (reduce-scatter + allgather rings)."""
    _check(p, nbytes)
    return 2 * (p - 1) * alpha + 2 * nbytes * beta * (p - 1) / p


def allreduce_recursive_doubling_time(p: int, nbytes: float, alpha: float,
                                      beta: float) -> float:
    """Latency-optimal recursive doubling: ``k = ⌊log2 p⌋`` exchanges of the
    whole buffer among ``2**k`` ranks.

    Off a power of two, ``rem = p - 2**k`` ranks fold in first and out
    last.  A sender pays only α, so the longest chain is either fold-in
    plus a message every round (``k + 1`` messages), or fold-in, a message
    in each of the ``h`` rounds two folded ranks' indices can differ in, a
    bare α in the other rounds, and the fold-out.
    """
    _check(p, nbytes)
    step = alpha + nbytes * beta
    k = p.bit_length() - 1
    rem = p - (1 << k)
    if rem == 0:
        return k * step
    h = (rem - 1).bit_length()
    return max((k + 1) * step, (h + 2) * step + (k - h) * alpha)


def allreduce_rabenseifner_time(p: int, nbytes: float, alpha: float,
                                beta: float) -> float:
    """Rabenseifner's algorithm: recursive-halving reduce-scatter +
    allgather.  Like the executed collective, it runs at a power-of-two
    ``p`` only."""
    _check(p, nbytes)
    if p & (p - 1):
        raise ValueError("Rabenseifner's allreduce needs power-of-two ranks")
    steps = p.bit_length() - 1
    return 2 * steps * alpha + 2 * nbytes * beta * (p - 1) / p


#: Each allreduce closed form by algorithm name.
ALLREDUCE_TIMES = {
    "ring": allreduce_ring_time,
    "recursive-doubling": allreduce_recursive_doubling_time,
    "rabenseifner": allreduce_rabenseifner_time,
}


def best_allreduce_time(p: int, nbytes: float, alpha: float,
                        beta: float) -> tuple[float, str]:
    """Pick the cheapest allreduce algorithm that runs at ``p`` — what real
    MPIs/Horovod do.

    Returns (time, algorithm-name).
    """
    _check(p, nbytes)
    candidates = {}
    for name, fn in ALLREDUCE_TIMES.items():
        try:
            candidates[name] = fn(p, nbytes, alpha, beta)
        except ValueError:
            continue        # the algorithm does not run at ``p``
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
