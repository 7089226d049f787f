#!/usr/bin/env python
"""Remote sensing case study (paper Sec. III): land-cover classification.

Reproduces the RS workflow end to end:

* synthetic BigEarthNet multispectral patches (the paper's [19] corpus),
* the **parallel cascade SVM** on CPU partitions — the paper's MPI SVM
  package [16] for when data is 'relatively moderate (i.e., DL not always
  successful)',
* **distributed ResNet training** with Horovod-style ring allreduce,
* the **Fig. 3 scaling study** at paper scale (1 → 128 A100 GPUs) via the
  calibrated performance model, including the Sedona-et-al.-tuned 128-GPU
  configuration [20].

Run:  python examples/remote_sensing_land_cover.py
"""

import numpy as np

from repro.datasets import BigEarthNetConfig, SyntheticBigEarthNet
from repro.distributed import DistributedTrainingPerfModel
from repro.ml import train_test_split
from repro.mpi import run_spmd
from repro.svm import SVC, MulticlassSVC
from repro.svm.cascade import cascade_train, serial_train


def parallel_svm_section() -> None:
    print("=" * 72)
    print("Parallel cascade SVM on the Cluster Module (paper ref [16])")
    print("=" * 72)
    # Per-pixel spectra: a moderate-size, SVM-friendly problem.
    spectra, labels = SyntheticBigEarthNet(BigEarthNetConfig(
        n_classes=2, seed=3, noise_sigma=0.03)).pixels(800)
    y = np.where(labels == 0, -1.0, 1.0)
    Xtr, Xte, ytr, yte = train_test_split(spectra, y, test_fraction=0.25,
                                          seed=0)

    machine, t_serial = serial_train(Xtr, ytr,
                                     template=SVC(kernel="rbf", gamma=2.0))
    print(f"serial SMO      : acc={machine.score(Xte, yte):.3f} "
          f"modeled train={t_serial * 1e3:7.1f} ms")

    for p in (2, 4, 8):
        def fn(comm):
            shard = np.arange(comm.rank, len(ytr), comm.size)
            return cascade_train(comm, Xtr[shard], ytr[shard],
                                 template=SVC(kernel="rbf", gamma=2.0)), \
                comm.sim_time

        result, critical_path = run_spmd(fn, p)[0]
        print(f"cascade p={p:<2}    : acc={result.score(Xte, yte):.3f} "
              f"modeled train={critical_path * 1e3:7.1f} ms  "
              f"(sv exchanged: {result.total_sv_exchanged})")


def scaling_study_section() -> None:
    print("\n" + "=" * 72)
    print("Fig. 3: ResNet-50 / BigEarthNet scaling on the JUWELS booster")
    print("=" * 72)
    model = DistributedTrainingPerfModel()   # A100s, InfiniBand HDR
    print(f"model: {model.model_shape.name}, "
          f"{model.model_shape.n_parameters / 1e6:.1f} M parameters")
    print(f"\n{'GPUs':>5} {'epoch (s)':>10} {'speedup':>9} "
          f"{'efficiency':>11} {'comm frac':>10}")
    for pt in model.scaling_curve([1, 2, 4, 8, 16, 32, 64, 96, 128]):
        print(f"{pt.n_gpus:>5} {pt.epoch_time_s:>10.1f} {pt.speedup:>9.1f} "
              f"{pt.efficiency:>11.2f} {pt.comm_fraction:>10.2f}")

    tuned = model.with_recipe(model.recipe.tuned())
    t96 = model.scaling_curve([96])[0]
    t128 = tuned.scaling_curve([128])[0]
    print(f"\ninitial study @ 96 GPUs : speedup {t96.speedup:6.1f} "
          f"(efficiency {t96.efficiency:.2f})")
    print(f"tuned [20]   @ 128 GPUs : speedup {t128.speedup:6.1f} "
          f"(efficiency {t128.efficiency:.2f})")
    print("-> 'even a better speed-up on JUWELS using 128 interconnected "
          "GPUs after having more experience with Horovod'")


def multiclass_svm_section() -> None:
    print("\n" + "=" * 72)
    print("Multi-class land-cover SVM (one-vs-rest over CORINE classes)")
    print("=" * 72)
    ds = SyntheticBigEarthNet(BigEarthNetConfig(n_classes=5, seed=7,
                                                noise_sigma=0.02))
    spectra, labels = ds.pixels(600)
    Xtr, Xte, ytr, yte = train_test_split(spectra, labels,
                                          test_fraction=0.25, seed=1)
    clf = MulticlassSVC(kernel="rbf", gamma=2.0).fit(Xtr, ytr)
    print(f"5-class pixel classification accuracy: "
          f"{clf.score(Xte, yte):.3f}")


if __name__ == "__main__":
    parallel_svm_section()
    scaling_study_section()
    multiclass_svm_section()
