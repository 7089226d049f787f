"""Checkpoint round-trips, integrity verification and replication.

Complements ``test_extensions.py``'s basic save/restore coverage with the
resilience-facing surface: CRC32 verification (bit-rot and truncation both
raise :class:`CheckpointError`), per-target records, replication to both
paths, and the NAM-then-PFS restore order.
"""

import numpy as np
import pytest

from repro.resilience import CheckpointPolicy
from repro.storage import NetworkAttachedMemory, ParallelFileSystem
from repro.storage.checkpoint import (
    CheckpointError,
    CheckpointManager,
)


NAM_FIRST = CheckpointPolicy()


def _state(seed=0, n=512):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=n), "b": rng.normal(size=8)}


@pytest.fixture
def mgr():
    return CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=1),
                             pfs=ParallelFileSystem("fs", n_targets=4))


class TestRoundTrip:
    @pytest.mark.parametrize("target", ["nam", "pfs"])
    def test_roundtrip_per_target(self, mgr, target):
        state = _state()
        t_write = mgr.save("m", step=9, state=state,
                           replicate=target == "pfs")
        if target == "pfs":
            mgr.corrupt("m", "nam")     # the restore must read the replica
        r = mgr.restore_latest_verified("m", NAM_FIRST, max_rollback=0)
        assert (r.step, r.target) == (9, target)
        assert t_write > 0 and r.read_time_s > 0
        for key in state:
            np.testing.assert_array_equal(r.state[key], state[key])

    def test_replicate_writes_both_targets(self, mgr):
        t = mgr.save("m", step=5, state=_state(), replicate=True)
        assert mgr.exists("m", target="nam")
        assert mgr.exists("m", target="pfs")
        assert t >= mgr.save("solo", step=5, state=_state())

    def test_replicate_requires_both_backends(self):
        # A manager without the PFS, where the replica goes, is refused.
        with pytest.raises(TypeError, match="pfs"):
            CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=1))


class TestIntegrity:
    def test_truncated_payload_raises(self, mgr):
        mgr.save("m", step=1, state=_state())
        record = mgr._newest("m", "nam")      # a partial write
        record.payload = record.payload[: len(record.payload) // 2]
        with pytest.raises(CheckpointError, match="truncated"):
            mgr.restore_latest_verified("m", NAM_FIRST, max_rollback=0)

    def test_bit_flip_raises_checksum_mismatch(self, mgr):
        mgr.save("m", step=1, state=_state())
        mgr.corrupt("m", target="nam")
        with pytest.raises(CheckpointError, match="checksum"):
            mgr.restore_latest_verified("m", NAM_FIRST, max_rollback=0)

    def test_corrupting_missing_copy_raises(self, mgr):
        with pytest.raises(CheckpointError):
            mgr.corrupt("ghost", "nam")

    def test_intact_replica_unaffected_by_corruption(self, mgr):
        state = _state()
        mgr.save("m", step=2, state=state, replicate=True)
        mgr.corrupt("m", target="nam")
        r = mgr.restore_latest_verified("m", NAM_FIRST, max_rollback=0)
        assert (r.step, r.target) == (2, "pfs")
        np.testing.assert_array_equal(r.state["w"], state["w"])


class TestPolicy:
    def test_cadence(self):
        policy = CheckpointPolicy(every_steps=4)
        assert [s for s in range(1, 13) if policy.should_checkpoint(s)] == \
               [4, 8, 12]

    def test_invalid_cadence_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every_steps=0)


def test_path_comparison_nam_faster(mgr):
    comparison = mgr.path_comparison(1 << 30)
    assert comparison["nam"] < comparison["pfs"]


@pytest.mark.parametrize("replicate", [False, True])
def test_a_second_lineage_writing_the_same_key_is_refused(replicate):
    """Lineage keys are versioned per manager, so only a second manager
    writing the same name into the same store can collide.  That write is
    refused (the store's ``FileExistsError``); it never overwrites the
    first manager's copy."""
    nam = NetworkAttachedMemory(capacity_GB=1)
    pfs = ParallelFileSystem("fs", n_targets=4)
    CheckpointManager(nam=nam, pfs=pfs).save("m", 0, _state(),
                                             replicate=replicate)
    with pytest.raises(FileExistsError):
        CheckpointManager(nam=nam, pfs=pfs).save("m", 1, _state(1),
                                                 replicate=replicate)
