"""Multi-tier memory/storage hierarchy of DAM nodes.

The DEEP DAM's value for Spark-style analytics (Sec. III-B) is its memory
hierarchy: 384 GB DDR4 + 32 GB HBM2 + 2 TB NVM per node, backed by the SSSM
parallel filesystem.  :class:`TieredStore` places named datasets greedily
into the fastest tier with room and answers access-time queries; the
analytics engine (:mod:`repro.analytics`) uses it for cache/persist
decisions and the E5 bench sweeps dataset size across tier boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

GiB = 1024 ** 3


class MemoryTier(str, Enum):
    """Tiers ordered fastest-first."""

    HBM = "hbm"
    DDR = "ddr"
    NVM = "nvm"
    PFS = "pfs"


#: (read GB/s, write GB/s, access latency s) per tier — datasheet order.
TIER_CHARACTERISTICS: dict[MemoryTier, tuple[float, float, float]] = {
    MemoryTier.HBM: (900.0, 900.0, 1.0e-7),
    MemoryTier.DDR: (120.0, 120.0, 1.0e-7),
    MemoryTier.NVM: (6.0, 2.0, 1.0e-5),
    MemoryTier.PFS: (5.0, 4.0, 1.0e-3),
}

_TIER_ORDER = [MemoryTier.HBM, MemoryTier.DDR, MemoryTier.NVM, MemoryTier.PFS]


@dataclass(frozen=True)
class TierPlacement:
    """Where a dataset (or a slice of it) landed."""

    name: str
    tier: MemoryTier
    size_bytes: int

    def read_time(self) -> float:
        read_GBps, _, latency = TIER_CHARACTERISTICS[self.tier]
        return latency + self.size_bytes / (read_GBps * 1e9)


class TieredStore:
    """Capacity-aware placement across HBM/DDR/NVM/PFS.

    Datasets spill across tier boundaries: a 500 GB dataset on a DAM node
    (32 HBM + 384 DDR + 2048 NVM) lands partly in HBM, partly DDR, rest NVM.
    """

    def __init__(
        self,
        hbm_GB: float = 32.0,
        ddr_GB: float = 384.0,
        nvm_GB: float = 2048.0,
    ) -> None:
        self._capacity = {
            MemoryTier.HBM: int(hbm_GB * GiB),
            MemoryTier.DDR: int(ddr_GB * GiB),
            MemoryTier.NVM: int(nvm_GB * GiB),
            MemoryTier.PFS: float("inf"),
        }
        self._used = {tier: 0 for tier in _TIER_ORDER}
        self._placements: dict[str, list[TierPlacement]] = {}

    def free_bytes(self, tier: MemoryTier) -> float:
        cap = self._capacity[tier]
        if cap == float("inf"):
            return float("inf")
        return cap - self._used[tier]

    def put(self, name: str, size_bytes: int) -> list[TierPlacement]:
        """Place a dataset, spilling down the hierarchy as tiers fill."""
        if name in self._placements:
            raise FileExistsError(f"dataset {name!r} already placed")
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        remaining = size_bytes
        slices: list[TierPlacement] = []
        for tier in _TIER_ORDER:
            if remaining <= 0:
                break
            room = self.free_bytes(tier)
            if room <= 0:
                continue
            take = remaining if room == float("inf") else min(remaining, int(room))
            if take <= 0:
                continue
            slices.append(TierPlacement(name=name, tier=tier, size_bytes=take))
            self._used[tier] += take
            remaining -= take
        if remaining > 0:
            for s in slices:
                self._used[s.tier] -= s.size_bytes
            raise MemoryError(f"no room for {name!r}: {remaining} bytes overflow")
        self._placements[name] = slices
        from repro import telemetry

        registry = telemetry.get_registry()
        for s in slices:
            registry.counter("tier_bytes_total", direction="write",
                             tier=s.tier.value).inc(s.size_bytes)
        return slices

    def placement(self, name: str) -> list[TierPlacement]:
        try:
            return list(self._placements[name])
        except KeyError:
            raise FileNotFoundError(name) from None

    def read_time(self, name: str) -> float:
        """Read the whole dataset: tier slices stream in parallel, so the
        slowest slice dominates (the spill tail is the bottleneck)."""
        slices = self.placement(name)
        from repro import telemetry

        registry = telemetry.get_registry()
        for s in slices:
            registry.counter("tier_bytes_total", direction="read",
                             tier=s.tier.value).inc(s.size_bytes)
        return max(s.read_time() for s in slices) if slices else 0.0

    def resident_fraction_fast(self, name: str) -> float:
        """Fraction of the dataset in DRAM-class tiers (HBM+DDR)."""
        slices = self.placement(name)
        total = sum(s.size_bytes for s in slices)
        if total == 0:
            return 1.0
        fast = sum(
            s.size_bytes for s in slices
            if s.tier in (MemoryTier.HBM, MemoryTier.DDR)
        )
        return fast / total

    @classmethod
    def dam_node(cls) -> "TieredStore":
        """A DEEP DAM node's hierarchy (Table I)."""
        return cls(hbm_GB=32.0, ddr_GB=384.0, nvm_GB=2048.0)

    @classmethod
    def cluster_node(cls) -> "TieredStore":
        """A plain cluster node: DDR only, then straight to the PFS."""
        return cls(hbm_GB=0.0, ddr_GB=96.0, nvm_GB=0.0)
