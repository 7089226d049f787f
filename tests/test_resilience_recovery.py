"""Elastic training recovery drills: rank kills, checkpoint-restart,
NAM-corruption fallback.

The central claim: a data-parallel run that loses ranks mid-training and
restarts from its latest checkpoint reproduces the loss trajectory of the
same-seed unfailed run (to floating-point tolerance — shrinking the ring
reorders the allreduce summation).
"""

import numpy as np
import pytest

from repro.distributed import (
    ElasticRecovery,
    global_batch_indices,
    run_elastic_training,
)
from repro.ml.models import MLP
from repro.mpi import SpmdFailure, run_spmd
from repro.resilience import CheckpointPolicy, FaultPlan
from repro.storage import NetworkAttachedMemory, ParallelFileSystem
from repro.storage.checkpoint import CheckpointError, CheckpointManager

_rng = np.random.default_rng(0)
X = np.concatenate([_rng.normal(-2, 1, size=(64, 2)),
                    _rng.normal(2, 1, size=(64, 2))])
Y = np.array([0] * 64 + [1] * 64)


def _factory():
    return MLP([2, 8, 2], seed=3)


def _manager(**kwargs):
    return CheckpointManager(
        nam=NetworkAttachedMemory(capacity_GB=1),
        pfs=ParallelFileSystem("fs", n_targets=4), **kwargs)


def _train(n_steps=12, world_size=4, seed=5, **kwargs):
    return run_elastic_training(
        _factory, X, Y, n_steps=n_steps, batch_size=16,
        world_size=world_size, lr=0.05, seed=seed, **kwargs)


class TestGlobalBatches:
    def test_batches_world_size_invariant(self):
        a = global_batch_indices(128, 16, step=3, seed=9)
        b = global_batch_indices(128, 16, step=3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_batches_differ_by_step_and_seed(self):
        a = global_batch_indices(128, 16, step=3, seed=9)
        assert not np.array_equal(a, global_batch_indices(128, 16, 4, 9))
        assert not np.array_equal(a, global_batch_indices(128, 16, 3, 10))

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            global_batch_indices(10, 11, step=0, seed=0)


class TestRankKillRecovery:
    def test_kill_mid_run_resumes_from_latest_checkpoint(self):
        baseline = _train()
        faulted = _train(
            fault_plan=FaultPlan.rank_kills(seed=5, kills={7: [1, 3]}),
            checkpoint_manager=_manager(),
            checkpoint_policy=CheckpointPolicy(every_steps=4, replicate=True))
        assert faulted.final_world_size == 2
        [rec] = faulted.recoveries
        assert rec == ElasticRecovery(
            failed_step=7, dead_world_ranks=(1, 3), restored_step=4,
            restored_from="nam", world_size_after=2)
        assert rec.steps_lost == 3

    def test_loss_trajectory_matches_unfailed_run(self):
        baseline = _train()
        faulted = _train(
            fault_plan=FaultPlan.rank_kills(seed=5, kills={7: [1, 3]}),
            checkpoint_manager=_manager(),
            checkpoint_policy=CheckpointPolicy(every_steps=4))
        assert len(faulted.losses) == len(baseline.losses) == 12
        np.testing.assert_allclose(faulted.losses, baseline.losses,
                                   atol=1e-8)
        for key in baseline.final_state:
            np.testing.assert_allclose(faulted.final_state[key],
                                       baseline.final_state[key], atol=1e-8)

    def test_kill_of_rank_zero_survivable(self):
        faulted = _train(
            fault_plan=FaultPlan.rank_kills(seed=5, kills={5: [0]}),
            checkpoint_manager=_manager(),
            checkpoint_policy=CheckpointPolicy(every_steps=2))
        baseline = _train()
        assert faulted.final_world_size == 3
        assert faulted.recoveries[0].restored_step == 4
        np.testing.assert_allclose(faulted.losses, baseline.losses,
                                   atol=1e-8)

    def test_multiple_failures_accumulate(self):
        faulted = _train(
            n_steps=14, world_size=6,
            fault_plan=FaultPlan.rank_kills(seed=5, kills={4: [5], 9: [0, 2]}),
            checkpoint_manager=_manager(),
            checkpoint_policy=CheckpointPolicy(every_steps=3))
        baseline = _train(n_steps=14, world_size=6)
        assert faulted.final_world_size == 3
        assert [r.failed_step for r in faulted.recoveries] == [4, 9]
        assert faulted.steps_lost == (4 - 3) + (9 - 9)
        np.testing.assert_allclose(faulted.losses, baseline.losses,
                                   atol=1e-8)

    def test_kill_without_checkpointing_continues_from_live_weights(self):
        faulted = _train(
            fault_plan=FaultPlan.rank_kills(seed=5, kills={6: [2]}))
        assert faulted.final_world_size == 3
        assert faulted.recoveries[0].restored_from == "none"
        assert faulted.recoveries[0].steps_lost == 0
        assert len(faulted.losses) == 12
        # No rollback: the trajectory still matches (weights were already
        # replica-consistent when the rank left).
        np.testing.assert_allclose(faulted.losses, _train().losses,
                                   atol=1e-8)

    def test_killing_every_rank_is_an_error(self):
        with pytest.raises(SpmdFailure):
            _train(world_size=2,
                   fault_plan=FaultPlan.rank_kills(seed=5, kills={3: [0, 1]}),
                   checkpoint_manager=_manager())


class TestCheckpointFallback:
    def test_corrupt_nam_falls_back_to_pfs_replica(self):
        class BitRottingNam(CheckpointManager):
            """NAM copies decay right after each write."""
            def save(self, name, step, state, target=None, replicate=False):
                t = super().save(name, step, state, target=target,
                                 replicate=replicate)
                self.corrupt(name, target="nam")
                return t

        mgr = BitRottingNam(nam=NetworkAttachedMemory(capacity_GB=1),
                            pfs=ParallelFileSystem("fs", n_targets=4))
        faulted = _train(
            fault_plan=FaultPlan.rank_kills(seed=5, kills={7: [1]}),
            checkpoint_manager=mgr,
            checkpoint_policy=CheckpointPolicy(every_steps=4, replicate=True))
        assert faulted.recoveries[0].restored_from == "pfs"
        np.testing.assert_allclose(faulted.losses, _train().losses,
                                   atol=1e-8)

    def test_no_fallback_policy_propagates_corruption(self):
        mgr = _manager()
        mgr.save("m", step=4, state={"w": np.ones(8)}, replicate=True)
        mgr.corrupt("m", target="nam")
        policy = CheckpointPolicy(every_steps=4, fallback=False)
        with pytest.raises(CheckpointError):
            mgr.restore_latest_verified("m", policy, max_rollback=0)
        # The same corruption *with* fallback restores cleanly from PFS.
        restored = mgr.restore_latest_verified(
            "m", CheckpointPolicy(every_steps=4), max_rollback=0)
        assert (restored.step, restored.target) == (4, "pfs")
        np.testing.assert_array_equal(restored.state["w"], np.ones(8))

    def test_prefer_pfs_policy_reverses_restore_order(self):
        mgr = _manager()
        mgr.save("m", step=1, state={"w": np.zeros(4)}, replicate=True)
        restored = mgr.restore_latest_verified(
            "m", CheckpointPolicy(prefer="pfs"), max_rollback=0)
        assert restored.target == "pfs"


class TestShrink:
    def test_shrink_renumbers_survivors(self):
        def fn(comm):
            new = comm.shrink([1])
            if new is None:
                return ("dead", comm.rank)
            return ("alive", comm.rank, new.rank, new.size)

        assert run_spmd(fn, 3) == [
            ("alive", 0, 0, 2), ("dead", 1), ("alive", 2, 1, 2)]

    def test_shrunk_comm_still_collective(self):
        def fn(comm):
            new = comm.shrink([0, 2])
            if new is None:
                return None
            return new.allreduce(new.rank + 1)

        assert run_spmd(fn, 4) == [None, 3, None, 3]

    def test_shrink_everyone_rejected(self):
        def fn(comm):
            comm.shrink(list(range(comm.size)))

        with pytest.raises(SpmdFailure):
            run_spmd(fn, 2)

    def test_shrink_rank_out_of_range_rejected(self):
        def fn(comm):
            comm.shrink([comm.size])

        with pytest.raises(SpmdFailure):
            run_spmd(fn, 2)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_random_kill_schedules_always_recover(seed):
    """Sweep: random kill steps/victims; trajectory always reproduced."""
    rng = np.random.default_rng(seed)
    world = 4
    n_steps = 10
    step = int(rng.integers(1, n_steps))
    victim = int(rng.integers(0, world))
    faulted = _train(
        n_steps=n_steps, world_size=world, seed=seed,
        fault_plan=FaultPlan.rank_kills(seed=seed, kills={step: [victim]}),
        checkpoint_manager=_manager(),
        checkpoint_policy=CheckpointPolicy(every_steps=2, replicate=True))
    baseline = _train(n_steps=n_steps, world_size=world, seed=seed)
    assert faulted.final_world_size == world - 1
    np.testing.assert_allclose(faulted.losses, baseline.losses, atol=1e-8)
