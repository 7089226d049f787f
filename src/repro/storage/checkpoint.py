"""Checkpoint/restart over the NAM vs the parallel filesystem.

The NAM prototype's original mission (the paper's ref [12], Schmidt's
dissertation) is *accelerating checkpoint/restart application performance
... with network attached memory*: instead of all ranks funnelling their
state through the PFS, checkpoints stream into fabric-attached memory at
memory-class bandwidth, and restarts read them back without touching disk.

:class:`CheckpointManager` implements both paths over the existing storage
models and the DL framework's ``state_dict`` convention, so a real training
loop can checkpoint its model and the E10-adjacent bench can compare the
two paths' times at growing state sizes.

Resilience: every save appends a new **version** to the checkpoint's
lineage instead of overwriting, each carrying a checksum of the whole payload
plus per-shard (per-tensor) digests, and a checkpoint may be **replicated**
to both targets.  Restore paths verify integrity and degrade gracefully:

* :meth:`CheckpointManager.restore_latest_verified` walks a
  :class:`~repro.resilience.policy.CheckpointPolicy`'s restore order
  within the newest version, so a corrupt or missing NAM copy falls back
  to the PFS replica, and then the lineage version by version, so bit-rot
  on every copy of the newest checkpoint costs a bounded step rollback
  instead of the job (``max_rollback=0``: the newest version or nothing),
* :meth:`CheckpointManager.scrub` verifies everything at rest, so rot on a
  version that is never restored is still *detected* — the accounting the
  SDC drill reconciles against.

Retention is a :class:`CheckpointRetention` policy (keep-last-K plus every
Nth step as a long-term "anchor"); GC runs after each save and never
deletes the newest verified version, whatever its age.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.resilience.integrity import wordsum
from repro.storage.nam import NetworkAttachedMemory
from repro.storage.pfs import DEFAULT_STRIPE_COUNT, ParallelFileSystem

_TARGETS = ("nam", "pfs")


class CheckpointError(RuntimeError):
    """Raised for missing, truncated or corrupt checkpoints."""


def shard_digests(state: dict[str, np.ndarray]) -> tuple[tuple[str, int], ...]:
    """Per-shard digests of a state dict, in sorted shard order.

    Zero-copy word-sums of each tensor's buffer with the shard name,
    dtype and shape folded in, so a digest mismatch names the rotten
    tensor rather than just failing the whole checkpoint.
    """
    out = []
    for key in sorted(state):
        arr = np.asarray(state[key])
        header = f"{key}:{arr.dtype.str}:{arr.shape}".encode()
        buf = arr.data if arr.flags.c_contiguous else arr.tobytes()
        out.append((key, wordsum(buf, zlib.crc32(header))))
    return tuple(out)


#: Newest versions GC always keeps (the SDC drill's rollback bound).
KEEP_LAST = 3
#: Ranks checkpointing at once in the ref [12] path comparison.
CONCURRENT_WRITERS = 32


@dataclass(frozen=True)
class CheckpointRetention:
    """Lineage retention: keep the last K versions plus step anchors.

    The :data:`KEEP_LAST` newest versions always survive GC; additionally, any
    version whose step is a multiple of ``anchor_every`` (when positive)
    is an *anchor* kept indefinitely — the coarse long-term history that
    lets a drill roll far back past a burst of rot.  Independently of
    both rules, GC never deletes the newest version that still verifies.
    """

    anchor_every: int = 0          # 0 disables anchors

    def __post_init__(self) -> None:
        if self.anchor_every < 0:
            raise ValueError("anchor_every must be >= 0")

    def is_anchor(self, step: int) -> bool:
        return self.anchor_every > 0 and step % self.anchor_every == 0


@dataclass
class CheckpointRecord:
    name: str
    step: int
    nbytes: int
    target: str                  # "nam" | "pfs"
    payload: bytes = field(repr=False, default=b"")
    checksum: int = 0            # word-sum of the payload at write time
    version: int = 0             # position in the lineage (monotonic)
    shards: tuple[tuple[str, int], ...] = ()   # per-shard digests
    quarantined: bool = False    # verification already caught this copy

    @property
    def key(self) -> str:
        """Backend key: versioned so lineage members coexist."""
        return f"ckpt:{self.name}@{self.version}"

    @property
    def path(self) -> str:
        return f"/ckpt/{self.name}@{self.version}"

    def verify(self) -> None:
        """Integrity check: truncation changes the length, rot the checksum."""
        if len(self.payload) != self.nbytes:
            raise CheckpointError(
                f"checkpoint {self.name!r} v{self.version} on {self.target} "
                f"truncated: {len(self.payload)} of {self.nbytes} bytes")
        if wordsum(self.payload) != self.checksum:
            raise CheckpointError(
                f"checkpoint {self.name!r} v{self.version} on {self.target} "
                "corrupt (checksum mismatch)")

    def corrupt_shards(self, state: dict[str, np.ndarray]) -> tuple[str, ...]:
        """Names of shards whose digest no longer matches (diagnostics)."""
        fresh = dict(shard_digests(state))
        stored = dict(self.shards)
        return tuple(k for k in sorted(stored)
                     if fresh.get(k) != stored[k])


@dataclass(frozen=True)
class VerifiedRestore:
    """The result of a lineage-walking restore."""

    state: dict[str, np.ndarray]
    step: int
    read_time_s: float
    target: str
    version: int
    rollback_versions: int       # versions skipped before this one loaded


class CheckpointManager:
    """Write/read training checkpoints to the NAM and the PFS.

    >>> mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=64),
    ...                         pfs=ParallelFileSystem("fs", n_targets=8))
    >>> t_write = mgr.save("resnet", step=100, state=model.state_dict())
    >>> restored = mgr.restore_latest_verified("resnet", CheckpointPolicy())
    """

    def __init__(self, nam: NetworkAttachedMemory, pfs: ParallelFileSystem,
                 retention: Optional[CheckpointRetention] = None) -> None:
        self.nam = nam
        self.pfs = pfs
        self.retention = retention or CheckpointRetention()
        #: Lineage per (name, target): records in ascending version order.
        self._versions: dict[tuple[str, str], list[CheckpointRecord]] = {}
        self._next_version: dict[str, int] = {}

    # -- lineage accessors -------------------------------------------------
    def _lineage(self, name: str, target: str) -> list[CheckpointRecord]:
        return self._versions.get((name, target), [])

    def _newest(self, name: str, target: str) -> Optional[CheckpointRecord]:
        lineage = self._lineage(name, target)
        return lineage[-1] if lineage else None

    # -- write -----------------------------------------------------------
    def _write_one(self, record: CheckpointRecord) -> float:
        if record.target == "nam":
            t = self.nam.stage(record.key, record.nbytes)
        else:
            handle = self.pfs.create(record.path, record.nbytes)
            t = self.pfs.write_time(handle)
        self._versions.setdefault((record.name, record.target),
                                  []).append(record)
        from repro import telemetry

        registry = telemetry.get_registry()
        registry.counter("checkpoint_writes_total",
                         target=record.target).inc()
        registry.counter("checkpoint_bytes_total", direction="write",
                         target=record.target).inc(record.nbytes)
        registry.histogram("checkpoint_write_seconds",
                           target=record.target).observe(t)
        return t

    def save(self, name: str, step: int, state: dict[str, np.ndarray],
             replicate: bool = False) -> float:
        """Persist a new lineage version on the NAM; returns the modelled
        write time.

        With ``replicate=True`` the payload is written to the PFS as well
        (the belt-and-braces mode fault-tolerant runs use) and the slower
        write time is returned — replicas are written concurrently.
        Retention GC runs on every written target afterwards.
        """
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        version = self._next_version.get(name, 0)
        self._next_version[name] = version + 1
        digests = shard_digests(state)
        targets = _TARGETS if replicate else ("nam",)
        t = max(self._write_one(CheckpointRecord(
            name=name, step=step, nbytes=len(payload), target=tgt,
            payload=payload, checksum=wordsum(payload),
            version=version,
            shards=digests)) for tgt in targets)
        for tgt in targets:
            self.gc(name, tgt)
        return t

    # -- retention GC ------------------------------------------------------
    def gc(self, name: str, target: str) -> int:
        """Apply the retention policy to ``name``'s lineage on ``target``;
        returns the number of versions deleted.

        Survivors: the newest :data:`KEEP_LAST` versions, every anchor step,
        and — unconditionally — the newest version that still verifies
        (so a burst of rot can never leave GC holding only bad copies).
        """
        lineage = self._lineage(name, target)
        keep: set[int] = {r.version for r in lineage[-KEEP_LAST:]}
        keep.update(r.version for r in lineage
                    if self.retention.is_anchor(r.step))
        for record in reversed(lineage):
            try:
                record.verify()
            except CheckpointError:
                self._mark_corrupt(record)
                continue
            keep.add(record.version)    # newest verified: never deleted
            break
        doomed = [r for r in lineage if r.version not in keep]
        for record in doomed:
            self._evict(record)
            lineage.remove(record)
        deleted = len(doomed)
        if deleted:
            from repro import telemetry

            telemetry.get_registry().counter(
                "checkpoint_gc_deleted_total").inc(deleted)
        return deleted

    def _evict(self, record: CheckpointRecord) -> None:
        if record.target == "nam":
            self.nam.evict(record.key)
        else:
            self.pfs.unlink(record.path)

    # -- read --------------------------------------------------------------
    def _mark_corrupt(self, record: CheckpointRecord) -> None:
        """Count a failed verification as a *detected* corruption, once."""
        if record.quarantined:
            return
        record.quarantined = True
        from repro import telemetry

        telemetry.get_registry().counter(
            "integrity_corruptions_detected", kind="checkpoint-rot").inc()

    def _restore_one(self, record: CheckpointRecord
                     ) -> tuple[dict[str, np.ndarray], int, float]:
        try:
            record.verify()
        except CheckpointError:
            self._mark_corrupt(record)
            raise
        if record.target == "nam":
            t = self.nam.read_time(record.key)
        else:
            handle = self.pfs.open(record.path)
            t = self.pfs.read_time(handle)
        try:
            state = pickle.loads(record.payload)
        except Exception as exc:  # corrupt but checksum-consistent payloads
            self._mark_corrupt(record)
            raise CheckpointError(
                f"checkpoint {record.name!r} on {record.target} "
                f"unreadable: {exc}") from exc
        bad_shards = record.corrupt_shards(state)
        if bad_shards:
            self._mark_corrupt(record)
            raise CheckpointError(
                f"checkpoint {record.name!r} v{record.version} on "
                f"{record.target}: shard digest mismatch in "
                f"{list(bad_shards)}")
        from repro import telemetry

        registry = telemetry.get_registry()
        registry.counter("checkpoint_restores_total",
                         target=record.target).inc()
        registry.counter("checkpoint_bytes_total", direction="read",
                         target=record.target).inc(record.nbytes)
        registry.histogram("checkpoint_restore_seconds",
                           target=record.target).observe(t)
        return state, record.step, t

    def restore_latest_verified(self, name: str, policy: Any,
                                max_rollback: Optional[int] = None
                                ) -> VerifiedRestore:
        """Newest checkpoint that verifies, walking the lineage backwards.

        Versions are tried newest-first; within a version, targets follow
        ``policy.restore_order()`` (so NAM rot falls back to the PFS
        replica *before* rolling back a step).  Every failed candidate is
        quarantined and counted as a detected corruption.  With
        ``max_rollback`` the walk aborts once it would skip more than that
        many versions — the bounded-rollback guarantee the drill asserts.
        """
        targets = tuple(policy.restore_order())
        by_version: dict[int, list[CheckpointRecord]] = {}
        for target in targets:
            for record in self._lineage(name, target):
                by_version.setdefault(record.version, []).append(record)
        if not by_version:
            raise CheckpointError(f"no checkpoint named {name!r}")
        errors: list[str] = []
        for depth, version in enumerate(sorted(by_version, reverse=True)):
            if max_rollback is not None and depth > max_rollback:
                raise CheckpointError(
                    f"no verified checkpoint of {name!r} within "
                    f"{max_rollback} versions ({'; '.join(errors)})")
            candidates = sorted(by_version[version],
                                key=lambda r: targets.index(r.target))
            for record in candidates:
                try:
                    state, step, t = self._restore_one(record)
                    return VerifiedRestore(
                        state=state, step=step, read_time_s=t,
                        target=record.target, version=version,
                        rollback_versions=depth)
                except CheckpointError as exc:
                    errors.append(str(exc))
        raise CheckpointError(
            f"no restorable version of {name!r} ({'; '.join(errors)})")

    # -- at-rest verification ---------------------------------------------
    def scrub(self, name: str) -> dict[str, int]:
        """Verify every stored record of ``name`` at rest.

        Corrupt copies are quarantined and counted as detected — this is
        how rot on a never-restored version still reconciles to
        ``integrity_undetected == 0``.  Returns ``{"checked": …,
        "corrupt": …}`` where ``corrupt`` counts *newly* caught records.
        """
        checked = corrupt = 0
        for target in _TARGETS:
            for record in self._lineage(name, target):
                checked += 1
                already = record.quarantined
                try:
                    record.verify()
                except CheckpointError:
                    self._mark_corrupt(record)
                    if not already:
                        corrupt += 1
        return {"checked": checked, "corrupt": corrupt}

    def exists(self, name: str, target: str) -> bool:
        return bool(self._lineage(name, target))

    # -- fault-injection hook ------------------------------------------------
    def corrupt(self, name: str, target: str) -> None:
        """Flip a byte of the newest copy on ``target`` in place (bit-rot,
        the CHECKPOINT_ROT injection hook).  Each injection on a still-
        intact copy increments ``integrity_corruptions_injected`` so drills
        can reconcile.
        """
        record = self._newest(name, target)
        if record is None:
            raise CheckpointError(f"no checkpoint named {name!r} on {target}")
        try:
            record.verify()
            intact = True
        except CheckpointError:
            intact = False   # don't double-count rot on an already-bad copy
        buf = bytearray(record.payload)
        buf[len(buf) // 2] ^= 0xFF
        record.payload = bytes(buf)
        if intact:
            from repro import telemetry

            telemetry.get_registry().counter(
                "integrity_corruptions_injected", kind="checkpoint-rot").inc()

    # -- the ref [12] comparison --------------------------------------------
    def path_comparison(self, nbytes: int) -> dict[str, float]:
        """Modelled checkpoint write time via each path, with
        :data:`CONCURRENT_WRITERS` ranks sharing the PFS."""
        # PFS path: striped write, bandwidth shared among writers.
        per_target = nbytes / DEFAULT_STRIPE_COUNT
        effective = self.pfs.target_Bps / CONCURRENT_WRITERS
        return {"nam": nbytes / self.nam.write_Bps,
                "pfs": per_target / effective * 1.25}
