"""Storage substrates of the MSA: SSSM parallel filesystem, NAM, tiers.

* :mod:`repro.storage.pfs` — a striped parallel filesystem (Lustre/GPFS
  class) with object storage targets, stripe placement and contention,
* :mod:`repro.storage.nam` — the Network Attached Memory prototype module:
  datasets shared over the fabric instead of duplicated per research group,
* :mod:`repro.storage.tiers` — the multi-tier memory/storage hierarchy of
  DAM nodes (DDR → HBM → NVM → PFS) with capacity-aware placement.
"""

from repro.storage.pfs import ParallelFileSystem, FileHandle, StripeLayout
from repro.storage.nam import NetworkAttachedMemory, DatasetSharingStudy
from repro.storage.tiers import MemoryTier, TieredStore, TierPlacement
from repro.storage.checkpoint import CheckpointManager, CheckpointError

__all__ = [
    "ParallelFileSystem",
    "FileHandle",
    "StripeLayout",
    "NetworkAttachedMemory",
    "DatasetSharingStudy",
    "MemoryTier",
    "TieredStore",
    "TierPlacement",
    "CheckpointManager",
    "CheckpointError",
]
