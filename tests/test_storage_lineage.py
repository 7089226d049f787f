"""Checkpoint lineage: versioning, retention GC, verified restore, scrub."""

import numpy as np
import pytest

from repro import telemetry
from repro.resilience.policy import CheckpointPolicy
from repro.storage import checkpoint
from repro.storage.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointRetention,
    shard_digests,
)
from repro.storage.nam import NetworkAttachedMemory
from repro.storage.pfs import ParallelFileSystem


def make_manager(anchor_every=0):
    return CheckpointManager(
        nam=NetworkAttachedMemory(capacity_GB=1),
        pfs=ParallelFileSystem("pfs", n_targets=4),
        retention=CheckpointRetention(anchor_every=anchor_every))


def state_at(step):
    return {"w": np.full(16, float(step)), "b": np.arange(4.0) + step}


class TestLineage:
    def test_versions_accumulate_within_retention(self):
        mgr = make_manager()
        for step in (1, 2, 3):
            mgr.save("m", step=step, state=state_at(step))
        records = mgr._lineage("m", "nam")
        assert [r.version for r in records] == [0, 1, 2]
        assert [r.step for r in records] == [1, 2, 3]

    def test_restore_returns_newest_version(self):
        mgr = make_manager()
        for step in (10, 20, 30):
            mgr.save("m", step=step, state=state_at(step))
        r = mgr.restore_latest_verified("m", CheckpointPolicy(),
                                        max_rollback=0)
        assert r.step == 30
        np.testing.assert_array_equal(r.state["w"], np.full(16, 30.0))

    def test_replicated_save_shares_version_across_targets(self):
        mgr = make_manager()
        mgr.save("m", step=5, state=state_at(5), replicate=True)
        nam, = mgr._lineage("m", "nam")
        pfs, = mgr._lineage("m", "pfs")
        assert nam.version == pfs.version == 0
        assert nam.shards == pfs.shards == shard_digests(state_at(5))


class TestRetentionGC:
    def test_keep_last_window(self):
        mgr = make_manager()
        with telemetry.capture() as (_, registry):
            for step in range(1, 6):
                mgr.save("m", step=step, state=state_at(step))
            deleted = [v for _, inst in
                       registry.members("checkpoint_gc_deleted_total")
                       for v in [inst.value]]
        assert [r.step for r in mgr._lineage("m", "nam")] == [3, 4, 5]
        assert sum(deleted) == 2

    def test_anchors_survive_past_window(self):
        mgr = make_manager(anchor_every=4)
        for step in range(1, 10):
            mgr.save("m", step=step, state=state_at(step))
        kept = [r.step for r in mgr._lineage("m", "nam")]
        assert kept == [4, 7, 8, 9]   # anchors 4 & 8 plus the window {7, 8, 9}

    def test_gc_never_deletes_newest_verified(self, monkeypatch):
        """The load-bearing invariant: when rot lands on every version
        inside the keep window, the newest *verified* (older) version
        survives GC even though plain retention would delete it."""
        mgr = make_manager()
        with telemetry.capture():
            for step in (1, 2, 3):
                mgr.save("m", step=step, state=state_at(step))
                if step > 1:
                    mgr.corrupt("m", "nam")   # rot strikes versions 1, 2
            # Tighten the window so plain retention would delete step 1,
            # the only copy that still verifies.
            monkeypatch.setattr(checkpoint, "KEEP_LAST", 1)
            mgr.gc("m", "nam")
        kept = [r.step for r in mgr._lineage("m", "nam")]
        assert 1 in kept, "newest verified version must survive GC"
        restore = mgr.restore_latest_verified("m", CheckpointPolicy())
        assert restore.step == 1

    def test_gc_on_intact_lineage_ignores_verified_bonus(self):
        """With everything intact the newest-verified rule adds nothing:
        the window alone decides, so old versions are actually pruned."""
        mgr = make_manager()
        with telemetry.capture():
            for step in (1, 2, 3, 4, 5):
                mgr.save("m", step=step, state=state_at(step))
        assert [r.step for r in mgr._lineage("m", "nam")] == [3, 4, 5]


class TestVerifiedRestore:
    def test_rot_on_newest_falls_back_one_version(self):
        mgr = make_manager()
        with telemetry.capture():
            for step in (1, 2, 3):
                mgr.save("m", step=step, state=state_at(step))
            mgr.corrupt("m", "nam")    # newest NAM copy rots
            restore = mgr.restore_latest_verified("m", CheckpointPolicy())
        assert restore.step == 2 and restore.rollback_versions == 1
        assert restore.target == "nam"

    def test_replica_fallback_beats_rollback(self):
        mgr = make_manager()
        with telemetry.capture():
            for step in (1, 2):
                mgr.save("m", step=step, state=state_at(step),
                         replicate=True)
            mgr.corrupt("m", "nam")    # newest NAM rots; PFS replica intact
            restore = mgr.restore_latest_verified("m", CheckpointPolicy())
        assert restore.step == 2 and restore.rollback_versions == 0
        assert restore.target == "pfs"

    def test_bounded_rollback_raises(self):
        mgr = make_manager()
        with telemetry.capture():
            for step in (1, 2, 3):
                mgr.save("m", step=step, state=state_at(step))
                mgr.corrupt("m", "nam")       # every version rots
            with pytest.raises(CheckpointError):
                mgr.restore_latest_verified(
                    "m", CheckpointPolicy(), max_rollback=1)

    def test_detection_counted_once_per_copy(self):
        mgr = make_manager()
        with telemetry.capture() as (_, registry):
            mgr.save("m", step=1, state=state_at(1))
            mgr.save("m", step=2, state=state_at(2))
            mgr.corrupt("m", "nam")
            mgr.restore_latest_verified("m", CheckpointPolicy())
            mgr.scrub("m")             # re-checks the same quarantined copy
            injected = sum(i.value for _, i in registry.members(
                "integrity_corruptions_injected"))
            detected = sum(i.value for _, i in registry.members(
                "integrity_corruptions_detected"))
        assert injected == detected == 1.0


class TestScrub:
    def test_scrub_finds_rot_on_never_restored_version(self):
        mgr = make_manager()
        with telemetry.capture() as (_, registry):
            for step in (1, 2, 3):
                mgr.save("m", step=step, state=state_at(step))
                if step == 1:
                    mgr.corrupt("m", "nam")   # the oldest, never restored
            result = mgr.scrub("m")
            injected = sum(i.value for _, i in registry.members(
                "integrity_corruptions_injected"))
            detected = sum(i.value for _, i in registry.members(
                "integrity_corruptions_detected"))
        assert result == {"checked": 3, "corrupt": 1}
        assert injected == detected == 1.0

    def test_clean_scrub(self):
        mgr = make_manager()
        with telemetry.capture():
            mgr.save("m", step=1, state=state_at(1), replicate=True)
        assert mgr.scrub("m") == {"checked": 2, "corrupt": 0}

    def test_double_injection_not_double_counted(self):
        mgr = make_manager()
        with telemetry.capture() as (_, registry):
            mgr.save("m", step=1, state=state_at(1))
            mgr.corrupt("m", "nam")
            mgr.corrupt("m", "nam")   # rot on an already-rotten copy
            injected = sum(i.value for _, i in registry.members(
                "integrity_corruptions_injected"))
        assert injected == 1.0
