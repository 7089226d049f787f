"""ZeRO stage-1 sharding and the Fig. 3 scaling performance model (E3)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hardware import NVIDIA_A100, NVIDIA_V100
from repro.distributed import (
    DistributedTrainingPerfModel,
    TrainingRecipe,
    ZeroStage1Optimizer,
)
from repro.distributed.horovod import broadcast_parameters
from repro.distributed.perfmodel import BATCH_PER_GPU
from repro.ml import Adam, ArrayDataset, DistributedDataLoader, Tensor, cross_entropy
from repro.ml.models import MLP
from repro.mpi import run_spmd

rng = np.random.default_rng(2)
X = np.concatenate([rng.normal(-2, 1, size=(48, 2)),
                    rng.normal(2, 1, size=(48, 2))])
Y = np.array([0] * 48 + [1] * 48)


def _zero_train(comm, epochs=2):
    model = MLP([2, 8, 2], seed=3)
    broadcast_parameters(model, comm)
    opt = ZeroStage1Optimizer(model.parameters(), comm)
    loader = DistributedDataLoader(ArrayDataset(X, Y), batch_size=12,
                                   rank=comm.rank, world_size=comm.size,
                                   seed=1)
    for epoch in range(epochs):
        loader.set_epoch(epoch)
        for xb, yb in loader:
            loss = cross_entropy(model(Tensor(xb)), yb)
            opt.zero_grad()
            loss.backward()
            opt.step()
    return model, opt


class TestZeroStage1:
    @pytest.mark.parametrize("ws", [1, 2, 4])
    def test_replicas_identical(self, ws):
        def fn(comm):
            model, _ = _zero_train(comm)
            return model.state_dict()

        states = run_spmd(fn, ws)
        for state in states[1:]:
            for key in states[0]:
                np.testing.assert_allclose(states[0][key], state[key],
                                           atol=1e-10)

    def test_matches_unsharded_adam(self):
        """ZeRO-1 must produce the same weights as plain DP Adam."""
        def zero_fn(comm):
            model, _ = _zero_train(comm, epochs=2)
            return model.state_dict()

        def plain_fn(comm):
            from repro.distributed import DistributedOptimizer

            model = MLP([2, 8, 2], seed=3)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(Adam(model.parameters(), lr=0.01), comm)
            loader = DistributedDataLoader(ArrayDataset(X, Y), batch_size=12,
                                           rank=comm.rank,
                                           world_size=comm.size, seed=1)
            for epoch in range(2):
                loader.set_epoch(epoch)
                for xb, yb in loader:
                    loss = cross_entropy(model(Tensor(xb)), yb)
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
            return model.state_dict()

        zero_state = run_spmd(zero_fn, 4)[0]
        plain_state = run_spmd(plain_fn, 4)[0]
        for key in zero_state:
            np.testing.assert_allclose(zero_state[key], plain_state[key],
                                       atol=1e-8)

    def test_memory_sharded_by_world_size(self):
        def fn(comm):
            model = MLP([2, 16, 2], seed=0)
            opt = ZeroStage1Optimizer(model.parameters(), comm)
            return (opt.local_state_bytes, opt.unsharded_state_bytes)

        for ws in (1, 2, 4):
            out = run_spmd(fn, ws)
            local_total = sum(local for local, _ in out)
            unsharded = out[0][1]
            # The union of all shards is exactly one unsharded copy.
            assert local_total == unsharded
            assert out[0][0] <= unsharded // ws + 64

    def test_memory_saving_factor(self):
        def fn(comm):
            model = MLP([2, 32, 2], seed=0)
            opt = ZeroStage1Optimizer(model.parameters(), comm)
            return opt.unsharded_state_bytes / opt.local_state_bytes

        out = run_spmd(fn, 4)
        assert out[0] == pytest.approx(4.0, rel=0.2)

    def test_validation(self):
        def no_params(comm):
            ZeroStage1Optimizer([], comm)

        from repro.mpi import SpmdFailure

        with pytest.raises(SpmdFailure):
            run_spmd(no_params, 1)


class TestPerfModel:
    """The Fig. 3 series: near-linear speedup, decaying efficiency, tuned
    128-GPU run better than naive — the paper's [18] → [20] progression."""

    def setup_method(self):
        self.model = DistributedTrainingPerfModel()

    def test_speedup_monotone_in_gpus(self):
        curve = self.model.scaling_curve([1, 2, 4, 8, 16, 32, 64, 96, 128])
        speedups = [pt.speedup for pt in curve]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0)

    def test_significant_speedup_at_96_gpus(self):
        pt = self.model.scaling_curve([96])[0]
        assert pt.speedup > 48            # 'significant speed-up'
        assert pt.efficiency > 0.5

    def test_efficiency_decays_with_scale(self):
        curve = self.model.scaling_curve([2, 16, 128])
        assert curve[0].efficiency > curve[1].efficiency > curve[2].efficiency

    def test_tuned_recipe_improves_128_gpu_point(self):
        naive = self.model.scaling_curve([128])[0]
        tuned = replace(self.model, recipe=self.model.recipe.tuned()
                        ).scaling_curve([128])[0]
        assert tuned.speedup > naive.speedup
        assert tuned.efficiency > 0.9

    def test_epoch_time_decreases_with_gpus(self):
        assert self.model.epoch_time(128) < self.model.epoch_time(96) < \
            self.model.epoch_time(1)

    def test_steps_per_epoch_shrink_with_global_batch(self):
        assert self.model.steps_per_epoch(128) < self.model.steps_per_epoch(1)
        assert self.model.steps_per_epoch(1) == pytest.approx(
            np.ceil(self.model.dataset_size / BATCH_PER_GPU))

    def test_v100_compute_slower_than_a100(self):
        v100 = DistributedTrainingPerfModel(gpu=NVIDIA_V100)
        a100 = DistributedTrainingPerfModel(gpu=NVIDIA_A100)
        assert v100.compute_time_per_step() > 2 * a100.compute_time_per_step()

    def test_fp16_wire_halves_grad_bytes(self):
        fp32 = self.model.grad_bytes()
        fp16 = replace(self.model,
                       recipe=TrainingRecipe(grad_wire_bytes=2)).grad_bytes()
        assert fp16 == pytest.approx(fp32 / 2)

    def test_single_gpu_has_no_comm(self):
        assert self.model.allreduce_time(1) == 0.0

    def test_invalid_gpu_counts(self):
        with pytest.raises(ValueError):
            self.model.scaling_curve([])
        with pytest.raises(ValueError):
            self.model.scaling_curve([0])

    def test_overlap_cannot_exceed_backward_window(self):
        # With full overlap, the step is never shorter than pure compute.
        recipe = TrainingRecipe(comm_overlap=1.0)
        m = replace(self.model, recipe=recipe)
        assert m.step_time(128) >= m.compute_time_per_step() * 0.999
