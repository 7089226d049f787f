"""E3 — Fig. 3 (middle/bottom right): distributed ResNet training scaling.

Two halves, mirroring how the repo splits functional vs performance truth:

* **paper-scale series** (performance model): epoch time / speedup /
  efficiency for 1→128 A100 GPUs on the booster's InfiniBand-HDR fabric,
  naive [18] vs tuned [20] recipes,
* **functional runs** (real training over the simulated MPI): accuracy
  invariance across worker counts and measured ring-allreduce behaviour.
"""

import numpy as np
import pytest

from repro.datasets import BigEarthNetConfig, SyntheticBigEarthNet
from repro.distributed import (
    DistributedOptimizer,
    DistributedTrainingPerfModel,
    broadcast_parameters,
)
from repro.ml import Adam, ArrayDataset, DistributedDataLoader, Tensor, cross_entropy
from repro.ml.metrics import accuracy
from repro.ml.models import resnet_small
from repro.mpi import run_spmd

from conftest import bench_quick, emit_table

GPU_COUNTS = [1, 2, 4, 8, 16, 32, 64, 96, 128]


def test_fig3_scaling_curve_naive_vs_tuned():
    model = DistributedTrainingPerfModel()
    tuned = model.with_recipe(model.recipe.tuned())

    curve = model.scaling_curve(GPU_COUNTS)
    tuned_curve = tuned.scaling_curve(GPU_COUNTS)

    rows = []
    for naive_pt, tuned_pt in zip(curve, tuned_curve):
        rows.append([
            naive_pt.n_gpus,
            f"{naive_pt.epoch_time_s:.1f}",
            f"{naive_pt.speedup:.1f}",
            f"{naive_pt.efficiency:.2f}",
            f"{tuned_pt.speedup:.1f}",
            f"{tuned_pt.efficiency:.2f}",
        ])
    emit_table(
        "E3/Fig. 3 — ResNet-50/BigEarthNet scaling on A100 booster",
        ["GPUs", "epoch s", "speedup", "eff", "tuned speedup", "tuned eff"],
        rows)

    by_gpus = {pt.n_gpus: pt for pt in curve}
    # Paper shape: significant speedup at 96 GPUs (the initial study) ...
    assert by_gpus[96].speedup > 48
    # ... speedup still grows to 128 ...
    assert by_gpus[128].speedup > by_gpus[96].speedup
    # ... and the tuned-[20] 128-GPU run beats the naive one clearly.
    tuned_128 = tuned_curve[-1]
    assert tuned_128.speedup > by_gpus[128].speedup * 1.1
    assert tuned_128.efficiency > 0.9


def test_fig3_v100_vs_a100_generation():
    """The JURECA/JUWELS (V100) to booster (A100) hardware progression."""
    from repro.core.hardware import NVIDIA_A100, NVIDIA_V100

    def build():
        return (DistributedTrainingPerfModel(gpu=NVIDIA_V100).epoch_time(96),
                DistributedTrainingPerfModel(gpu=NVIDIA_A100).epoch_time(96))

    v100_t, a100_t = build()
    rows = [["V100 x96", f"{v100_t:.1f}"], ["A100 x96", f"{a100_t:.1f}"]]
    emit_table("E3 — epoch time by GPU generation (96 GPUs)",
               ["configuration", "epoch s"], rows)
    assert a100_t < v100_t


class TestFunctionalDistributedTraining:
    N_CLASSES = 4

    @pytest.fixture(scope="class")
    def data(self):
        ds = SyntheticBigEarthNet(BigEarthNetConfig(
            n_samples=160, patch_size=8, n_classes=self.N_CLASSES, seed=0))
        X, y = ds.generate()
        return X[:120], y[:120], X[120:], y[120:]

    def _train(self, comm, Xtr, ytr, epochs=25):
        model = resnet_small(in_channels=12, n_classes=self.N_CLASSES,
                             seed=0)
        broadcast_parameters(model, comm)
        opt = DistributedOptimizer(Adam(model.parameters(), lr=3e-3), comm)
        loader = DistributedDataLoader(
            ArrayDataset(Xtr, ytr), batch_size=max(1, 40 // comm.size),
            rank=comm.rank, world_size=comm.size, seed=1)
        for epoch in range(epochs):
            loader.set_epoch(epoch)
            for xb, yb in loader:
                loss = cross_entropy(model(Tensor(xb)), yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
        return model

    def test_fig3_accuracy_invariance_functional(self, data):
        """'distributed DL training can significantly reduce the training
        time without affecting prediction accuracy' — real training runs."""
        Xtr, ytr, Xte, yte = data
        # Quick smoke mode trains fewer epochs, so the accuracy floor is
        # proportionally looser; the invariance *spread* bound stays.
        epochs = 10 if bench_quick() else 25

        def accuracy_for(ws):
            def fn(comm):
                model = self._train(comm, Xtr, ytr, epochs=epochs)
                return accuracy(model.predict(Xte), yte)

            return run_spmd(fn, ws, timeout=600)[0]

        accs = {ws: accuracy_for(ws) for ws in (1, 2, 4)}
        rows = [[ws, f"{acc:.3f}"] for ws, acc in sorted(accs.items())]
        emit_table("E3 — functional accuracy vs worker count",
                   ["workers", "test accuracy"], rows)

        chance = 1.0 / self.N_CLASSES
        assert min(accs.values()) > chance + (0.1 if bench_quick() else 0.3)
        assert max(accs.values()) - min(accs.values()) < 0.15
