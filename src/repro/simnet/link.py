"""Link models for MSA interconnects.

A link is characterised by latency (seconds) and bandwidth (bytes/second);
transferring ``n`` bytes costs ``latency + n / bandwidth``.  The constants
below follow the fabrics named in the paper: InfiniBand EDR/HDR inside the
JUWELS modules, EXTOLL-class links for the DEEP network federation, NVLink
between GPUs inside a node, and PCIe for host↔accelerator traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


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


@dataclass(frozen=True)
class PartitionWindow:
    """One network-partition window: the cut exists in [start, end).

    The time arithmetic of the NETWORK_PARTITION fault class; the serving
    engine holds a response computed on the far side of an active cut
    until ``end_s`` (``ServingEngine._response_hold``).
    """

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError("partition must end at or after it starts")

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def delay_until_heal(self, now: float) -> float:
        """Seconds a response sent at ``now`` stalls before the cut heals
        (0 when the partition is not active at ``now``)."""
        return self.end_s - now if self.active(now) else 0.0
