"""Link models for MSA interconnects.

A link is characterised by latency (seconds) and bandwidth (bytes/second);
transferring ``n`` bytes costs ``latency + n / bandwidth``.  The constants
below follow the fabrics named in the paper: InfiniBand EDR/HDR inside the
JUWELS modules, EXTOLL-class links for the DEEP network federation, NVLink
between GPUs inside a node, and PCIe for host↔accelerator traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np


class LinkKind(str, Enum):
    """Interconnect families that appear in the paper's systems."""

    INFINIBAND_EDR = "infiniband-edr"       # JUWELS cluster module fabric
    INFINIBAND_HDR = "infiniband-hdr"       # JUWELS booster fabric
    EXTOLL = "extoll"                       # DEEP network federation
    NVLINK = "nvlink"                       # intra-node GPU mesh
    PCIE3 = "pcie3"                         # host <-> FPGA/GPU (DEEP DAM)
    PCIE4 = "pcie4"
    ETHERNET_100G = "ethernet-100g"         # cloud / storage access networks
    FEDERATION = "federation"               # generic inter-module bridge


#: (latency seconds, bandwidth bytes/s) per link family.  Values are public
#: datasheet-order-of-magnitude figures; the experiments depend on ratios,
#: not absolutes.
LINK_CHARACTERISTICS: dict[LinkKind, tuple[float, float]] = {
    LinkKind.INFINIBAND_EDR: (1.0e-6, 12.5e9),     # 100 Gb/s
    LinkKind.INFINIBAND_HDR: (0.9e-6, 25.0e9),     # 200 Gb/s
    LinkKind.EXTOLL: (0.75e-6, 12.5e9),
    LinkKind.NVLINK: (0.5e-6, 150.0e9),
    LinkKind.PCIE3: (0.8e-6, 15.75e9),
    LinkKind.PCIE4: (0.7e-6, 31.5e9),
    LinkKind.ETHERNET_100G: (5.0e-6, 12.5e9),
    LinkKind.FEDERATION: (2.0e-6, 12.5e9),
}


@dataclass(frozen=True)
class Link:
    """A unidirectional point-to-point link."""

    kind: LinkKind
    latency_s: float
    bandwidth_Bps: float

    @classmethod
    @lru_cache(maxsize=None)
    def of_kind(cls, kind: LinkKind) -> "Link":
        # Frozen value type: one shared instance per kind.
        latency, bandwidth = LINK_CHARACTERISTICS[kind]
        return cls(kind=kind, latency_s=latency, bandwidth_Bps=bandwidth)

    def transfer_time(self, nbytes: float) -> float:
        """α + n·β cost of moving ``nbytes`` across this link."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency_s + nbytes / self.bandwidth_Bps

    def effective_bandwidth(self, nbytes: float) -> float:
        """Achieved bytes/s for a transfer of ``nbytes`` (latency-degraded)."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.transfer_time(nbytes)

    def degraded(self, factor: float) -> "Link":
        """This link running degraded: bandwidth divided by ``factor``.

        Fault injection uses this for partial link failures (a flapping
        cable, a congested federation bridge) where traffic still flows but
        slower; ``factor=1`` is the healthy link.
        """
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        return Link(
            kind=self.kind,
            latency_s=self.latency_s,
            bandwidth_Bps=self.bandwidth_Bps / factor,
        )


@dataclass(frozen=True)
class DuplexLink:
    """A full-duplex link: simultaneous send and receive at full bandwidth.

    Ring collectives exploit duplexity — each rank sends to its successor
    while receiving from its predecessor, so one ring step costs a single
    :meth:`Link.transfer_time`, not two.
    """

    link: Link

    @property
    def kind(self) -> LinkKind:
        return self.link.kind

    def step_time(self, nbytes: float) -> float:
        return self.link.transfer_time(nbytes)

    def exchange_time(self, nbytes: float) -> float:
        """Simultaneous pairwise exchange (both directions overlap)."""
        return self.link.transfer_time(nbytes)


@dataclass(frozen=True)
class PartitionWindow:
    """One network-partition window: the cut exists in [start, end).

    The pure time-arithmetic core of the NETWORK_PARTITION fault class —
    shared by the simnet link wrapper below and the MPI transport so both
    planes agree, to the ULP, on when the fabric is cut.
    """

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError("partition must end at or after it starts")

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def delay_until_heal(self, now: float) -> float:
        """Seconds a message sent at ``now`` stalls before the cut heals
        (0 when the partition is not active at ``now``)."""
        return self.end_s - now if self.active(now) else 0.0


@dataclass
class PartitionedLink:
    """A link crossing a partition cut: transfers stall until heal.

    Models what TCP-over-a-partition actually does — traffic neither
    flows nor errors immediately; it times out, retransmits, and finally
    goes through when the cut heals.  A transfer started inside the
    window therefore costs ``(heal - now) + retransmit + base``; outside
    the window the wrapper is transparent.  Deterministic: no randomness,
    just window arithmetic.
    """

    link: Link
    window: PartitionWindow
    #: Extra cost of the post-heal retransmission burst.
    retransmit_s: float = 1e-3
    #: Transfers that hit the cut (accounting for the drill report).
    stalled: int = field(init=False, default=0)

    @property
    def kind(self) -> LinkKind:
        return self.link.kind

    def transfer_time_at(self, now: float, nbytes: float) -> float:
        """Delivery time for ``nbytes`` sent at simulated ``now``."""
        base = self.link.transfer_time(nbytes)
        stall = self.window.delay_until_heal(now)
        if stall > 0.0:
            self.stalled += 1
            return stall + self.retransmit_s + base
        return base

    def transfer_time(self, nbytes: float) -> float:
        """Healthy-path cost (position-independent callers); use
        :meth:`transfer_time_at` to account for the window."""
        return self.link.transfer_time(nbytes)


@dataclass
class UnreliableLink:
    """A link that drops messages; dropped messages are retransmitted.

    Models transient message loss (the MESSAGE_DROP fault class): each
    transfer attempt independently fails with ``drop_probability``; a failed
    attempt costs a retransmission timeout before the next try.  The drop
    sequence is driven by a seeded RNG so simulations stay reproducible.
    """

    link: Link
    drop_probability: float = 0.0
    retry_timeout_s: float = 1e-4
    seed: int = 0
    max_attempts: int = 100
    _rng: np.random.Generator = field(init=False, repr=False)
    #: Delivery accounting for the resilience report.
    attempts: int = field(init=False, default=0)
    drops: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop_probability < 1.0):
            raise ValueError("drop_probability must be in [0, 1)")
        if self.retry_timeout_s < 0:
            raise ValueError("retry_timeout_s must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    @property
    def kind(self) -> LinkKind:
        return self.link.kind

    def transfer_time(self, nbytes: float) -> float:
        """Time to deliver ``nbytes``, including seeded retransmissions."""
        base = self.link.transfer_time(nbytes)
        total = 0.0
        for _ in range(self.max_attempts):
            self.attempts += 1
            total += base
            if self._rng.random() >= self.drop_probability:
                return total
            self.drops += 1
            total += self.retry_timeout_s
        raise RuntimeError(
            f"message lost {self.max_attempts} times on {self.link.kind}"
        )

    def expected_transfer_time(self, nbytes: float) -> float:
        """Analytic mean delivery time: base/(1-p) plus timeout overhead."""
        p = self.drop_probability
        base = self.link.transfer_time(nbytes)
        return base / (1.0 - p) + self.retry_timeout_s * p / (1.0 - p)
