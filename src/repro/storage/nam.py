"""Network Attached Memory (NAM) — shared dataset staging.

The paper (Sec. II-A): the NAM "enables setups for machine learning and
sharing datasets over the network instead of duplicate downloads of datasets
by individual research group members".  The NAM device holds datasets in
fabric-attached memory; any node reads them at memory-class bandwidth with
no per-group copies.

:class:`DatasetSharingStudy` quantifies the E10 experiment: N group members
each needing a dataset either (a) download it to node-local storage
individually (baseline) or (b) stage it once into the NAM and read shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.link import Link, LinkKind

GiB = 1024 ** 3
#: NAM read and write bandwidth (GB/s).
READ_GBPS, WRITE_GBPS = 10.0, 8.0


@dataclass
class _Resident:
    name: str
    size_bytes: int


class NetworkAttachedMemory:
    """Fabric-attached shared memory for datasets."""

    def __init__(self, capacity_GB: float = 1024.0) -> None:
        self.capacity_bytes = int(capacity_GB * GiB)
        self.read_Bps = READ_GBPS * 1e9
        self.write_Bps = WRITE_GBPS * 1e9
        self.fabric_link = Link.of_kind(LinkKind.EXTOLL)
        self._resident: dict[str, _Resident] = {}

    @property
    def used_bytes(self) -> int:
        return sum(r.size_bytes for r in self._resident.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def stage(self, name: str, size_bytes: int) -> float:
        """Load a dataset into the NAM once; returns the staging time."""
        if name in self._resident:
            raise FileExistsError(f"dataset {name!r} already staged")
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if size_bytes > self.free_bytes:
            raise MemoryError(
                f"NAM full: need {size_bytes}, free {self.free_bytes}"
            )
        self._resident[name] = _Resident(name=name, size_bytes=size_bytes)
        return size_bytes / self.write_Bps

    def evict(self, name: str) -> None:
        if name not in self._resident:
            raise FileNotFoundError(name)
        del self._resident[name]

    def read_time(self, name: str, concurrent_readers: int = 1) -> float:
        """One client's read of the whole dataset, sharing NAM bandwidth."""
        try:
            res = self._resident[name]
        except KeyError:
            raise FileNotFoundError(name) from None
        effective = self.read_Bps / max(concurrent_readers, 1)
        return self.fabric_link.latency_s + res.size_bytes / effective


#: The external (archive → centre) link a download crosses: 2 Gb/s.
ARCHIVE_DOWNLOAD_BPS = 0.25e9


@dataclass(frozen=True)
class DatasetSharingStudy:
    """E10: NAM sharing vs per-member duplicate downloads.

    Each duplicate download is bound by :data:`ARCHIVE_DOWNLOAD_BPS`; NAM
    readers stream at fabric speed.
    """

    dataset_bytes: int
    n_members: int

    def baseline_duplicate_downloads(self) -> dict[str, float]:
        """Every member downloads their own copy (paper's 'before' case)."""
        per_member = self.dataset_bytes / ARCHIVE_DOWNLOAD_BPS
        return {
            "total_time_s": per_member * self.n_members,   # archive serialises
            "wall_time_s": per_member * self.n_members,
            "external_traffic_bytes": float(self.dataset_bytes * self.n_members),
            "copies_stored": float(self.n_members),
        }

    def nam_shared(self) -> dict[str, float]:
        """Stage once into the NAM, all members read shared."""
        nam = NetworkAttachedMemory(
            capacity_GB=self.dataset_bytes / GiB * 1.5 + 1.0
        )
        download = self.dataset_bytes / ARCHIVE_DOWNLOAD_BPS
        staging = nam.stage("shared-dataset", self.dataset_bytes)
        read = nam.read_time("shared-dataset", concurrent_readers=self.n_members)
        return {
            "total_time_s": download + staging + read,
            "wall_time_s": download + staging + read,
            "external_traffic_bytes": float(self.dataset_bytes),
            "copies_stored": 1.0,
        }

    def speedup(self) -> float:
        return (
            self.baseline_duplicate_downloads()["wall_time_s"]
            / self.nam_shared()["wall_time_s"]
        )

    def traffic_reduction(self) -> float:
        return (
            self.baseline_duplicate_downloads()["external_traffic_bytes"]
            / self.nam_shared()["external_traffic_bytes"]
        )
