"""E4 — Fig. 3 M, ref [16]: parallel & scalable SVM on the Cluster Module.

Strong scaling of the MPI cascade SVM against serial SMO on an RS pixel
classification problem: equal-quality decision function, training-time
reduction that grows with rank count (SMO cost is superlinear in n, so
partitioned sub-problems are disproportionately cheaper).  Times are
modeled SMO work on the simulated clock: the cascade's is the root
rank's critical path, waits for its partners included.
"""

import numpy as np
import pytest

from repro.datasets import BigEarthNetConfig, SyntheticBigEarthNet
from repro.ml import train_test_split
from repro.mpi import run_spmd
from repro.svm import SVC
from repro.svm.cascade import cascade_train, serial_train

from conftest import emit_table


@pytest.fixture(scope="module")
def rs_problem():
    spectra, labels = SyntheticBigEarthNet(BigEarthNetConfig(
        n_classes=4, seed=3, noise_sigma=0.05)).pixels(1600)
    y = np.where(labels < 2, -1.0, 1.0)
    return train_test_split(spectra, y, test_fraction=0.2, seed=0)


def _template():
    return SVC(kernel="rbf", gamma=2.0, C=1.0)


def test_fig3_cascade_strong_scaling(rs_problem):
    Xtr, Xte, ytr, yte = rs_problem

    serial_machine, t_serial = serial_train(Xtr, ytr, template=_template())
    serial_acc = serial_machine.score(Xte, yte)

    def fn(comm):
        shard = np.arange(comm.rank, len(ytr), comm.size)
        return cascade_train(comm, Xtr[shard], ytr[shard],
                             template=_template()), comm.sim_time

    runs = {p: run_spmd(fn, p)[0] for p in (2, 4, 8)}
    rows = [["serial", f"{t_serial * 1e3:.1f}", f"{serial_acc:.3f}", "1.0"]]
    for p, (result, t_cascade) in runs.items():
        rows.append([f"cascade p={p}", f"{t_cascade * 1e3:.1f}",
                     f"{result.score(Xte, yte):.3f}",
                     f"{t_serial / t_cascade:.1f}"])
    emit_table("E4/Fig. 3 M — parallel SVM on the CM (strong scaling)",
               ["configuration", "train ms", "test acc", "speedup"], rows)

    result8, p8_time = runs[8]
    # Quality preserved across the cascade.
    assert result8.score(Xte, yte) >= serial_acc - 0.03
    # Parallel training reduces modeled time vs the serial SMO.
    assert p8_time < t_serial


def test_fig3_cascade_communicates_only_support_vectors(rs_problem):
    Xtr, _, ytr, _ = rs_problem

    def fn(comm):
        shard = np.arange(comm.rank, len(ytr), comm.size)
        return cascade_train(comm, Xtr[shard], ytr[shard],
                             template=_template())

    result = run_spmd(fn, 4)[0]
    frac = result.total_sv_exchanged / len(ytr)
    emit_table("E4 — cascade communication volume",
               ["quantity", "value"],
               [["training rows", len(ytr)],
                ["support vectors exchanged", result.total_sv_exchanged],
                ["fraction", f"{frac:.2%}"]])
    assert frac < 0.5
