"""Striped parallel filesystem — the SSSM's Lustre/GPFS model.

Files are striped round-robin over object storage targets (OSTs) in
fixed-size stripes.  Read/write time follows from how many OSTs a request
touches and how loaded each is: a wide stripe spreads a large sequential
read over many targets (the BigEarthNet/COVIDx staging pattern of the case
studies), while a stripe count of 1 serialises on one OST.

The model is capacity- and contention-aware but not byte-accurate: it
answers "how long does this I/O take and which targets does it hit", which
is what the experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import telemetry
from repro.resilience.detect import ComponentHealth

MiB = 1024 ** 2


@dataclass(frozen=True)
class StripeLayout:
    """Lustre-style striping parameters for one file."""

    stripe_count: int
    stripe_bytes: int
    first_target: int

    def __post_init__(self) -> None:
        if self.stripe_count < 1:
            raise ValueError("stripe_count must be >= 1")
        if self.stripe_bytes < 1:
            raise ValueError("stripe_bytes must be >= 1")

    def targets_for(self, offset: int, length: int, n_targets: int) -> list[int]:
        """OST indices touched by a byte range."""
        if length <= 0:
            return []
        first_stripe = offset // self.stripe_bytes
        last_stripe = (offset + length - 1) // self.stripe_bytes
        n_stripes = last_stripe - first_stripe + 1
        hit = min(n_stripes, self.stripe_count)
        return [
            (self.first_target + (first_stripe + i) % self.stripe_count) % n_targets
            for i in range(hit)
        ]


@dataclass
class FileHandle:
    """A file resident in the PFS."""

    path: str
    size_bytes: int
    layout: StripeLayout


#: Capacity and streaming bandwidth of one OST.
CAPACITY_TB_PER_TARGET, TARGET_GBPS = 100.0, 5.0
#: OSTs a file is striped over unless it asks for a count.
DEFAULT_STRIPE_COUNT = 4
#: Stripe unit of every file.
STRIPE_BYTES = MiB


class ParallelFileSystem:
    """A pool of OSTs serving striped files.

    >>> pfs = ParallelFileSystem("lustre", n_targets=8)
    >>> f = pfs.create("/data/bigearthnet.tar", 100 * 2**30, stripe_count=8)
    >>> pfs.read_time(f) < pfs.read_time(pfs.create("/narrow", 100 * 2**30, stripe_count=1))
    True
    """

    def __init__(self, name: str, n_targets: int = 16) -> None:
        if n_targets < 1:
            raise ValueError("need at least one OST")
        self.name = name
        self.n_targets = n_targets
        self.target_Bps = TARGET_GBPS * 1e9
        self.capacity_bytes = int(n_targets * CAPACITY_TB_PER_TARGET * 1e12)
        self._files: dict[str, FileHandle] = {}
        self._next_first_target = 0
        self._target_bytes: list[int] = [0] * n_targets
        self._failed_targets: set[int] = set()
        #: Bandwidth multiplier for requests touching a failed OST while
        #: its data is served from redundancy/rebuild (degraded mode).
        self.degraded_factor = 4.0

    # -- namespace ----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(self._target_bytes)

    def create(
        self,
        path: str,
        size_bytes: int,
        stripe_count: Optional[int] = None,
    ) -> FileHandle:
        if path in self._files:
            raise FileExistsError(path)
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        count = min(stripe_count or DEFAULT_STRIPE_COUNT, self.n_targets)
        layout = StripeLayout(
            stripe_count=count,
            stripe_bytes=STRIPE_BYTES,
            first_target=self._next_first_target,
        )
        if self.used_bytes + size_bytes > self.capacity_bytes:
            raise OSError(f"{self.name}: out of capacity")
        handle = FileHandle(path=path, size_bytes=size_bytes, layout=layout)
        self._files[path] = handle
        self._next_first_target = (self._next_first_target + count) % self.n_targets
        for i in range(count):
            share = size_bytes // count
            self._target_bytes[(layout.first_target + i) % self.n_targets] += share
        return handle

    def unlink(self, path: str) -> None:
        handle = self._files.pop(path, None)
        if handle is None:
            raise FileNotFoundError(path)
        count = handle.layout.stripe_count
        for i in range(count):
            share = handle.size_bytes // count
            idx = (handle.layout.first_target + i) % self.n_targets
            self._target_bytes[idx] = max(0, self._target_bytes[idx] - share)

    def open(self, path: str) -> FileHandle:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    # -- failure injection -------------------------------------------------------
    def fail_target(self, index: int) -> None:
        """Take an OST offline; reads over it run degraded, not lost."""
        if not (0 <= index < self.n_targets):
            raise ValueError(f"target {index} out of range")
        self._failed_targets.add(index)
        self._publish_health()

    def recover_target(self, index: int) -> None:
        self._failed_targets.discard(index)
        self._publish_health()

    def health(self) -> ComponentHealth:
        """Structured health: an OST loss is a *gray* state, not an outage.

        Reads still complete (served from redundancy at
        ``1/degraded_factor`` bandwidth), so the filesystem reports
        ``ok`` until *every* target is gone, ``degraded`` while any is,
        and a suspicion level proportional to the failed fraction — on
        the same scale the phi-accrual detector uses, so schedulers and
        drills consume storage health and replica health uniformly.
        """
        n_failed = len(self._failed_targets)
        frac = n_failed / self.n_targets
        detail = ""
        if n_failed:
            detail = (f"{n_failed}/{self.n_targets} OSTs failed; degraded "
                      f"reads at {self.degraded_factor:g}x")
        return ComponentHealth(
            component=f"pfs:{self.name}",
            ok=n_failed < self.n_targets,
            degraded=n_failed > 0,
            detail=detail,
            suspicion=frac * self.degraded_factor,
        )

    def _publish_health(self) -> None:
        """Push the current health report through the telemetry path."""
        self.health().publish(telemetry.get_registry(), 0.0)

    @property
    def healthy(self) -> bool:
        """Bare-bool view of :meth:`health` (kept for existing callers)."""
        report = self.health()
        return report.ok and not report.degraded

    # -- timing ----------------------------------------------------------------
    def read_time(self, handle: FileHandle) -> float:
        """Time for one client to read the whole file.

        The request is served by the stripes' OSTs in parallel.
        """
        length = handle.size_bytes
        targets = handle.layout.targets_for(0, length, self.n_targets)
        per_target = length / max(len(targets), 1)
        base = per_target / self.target_Bps
        if any(t in self._failed_targets for t in targets):
            # Degraded read: the slice on the failed OST is reconstructed
            # from redundancy at a fraction of normal bandwidth and
            # dominates the parallel read.
            return base * self.degraded_factor
        return base

    def write_time(self, handle: FileHandle) -> float:
        """Writes stream ~20% slower than reads on these targets."""
        return self.read_time(handle) * 1.25

    def aggregate_read_GBps(self, handle: FileHandle) -> float:
        """Peak aggregate bandwidth the file's layout can sustain."""
        return handle.layout.stripe_count * self.target_Bps / 1e9
