"""E6 — Sec. III-C, refs [10][11]: quantum SVM on the annealer.

Regenerates the QA lessons: the QSVM ensemble approaches the classical
SVM's accuracy on a binary RS problem while being capacity-bound
(sub-sampling), and the 5000-qubit Advantage fits larger sub-problems than
the 2000Q — the paper's '2000 qubits' → 'Leap/Advantage 5000 qubits and
35000 couplers' progression.
"""

import numpy as np
import pytest

from repro.datasets import BigEarthNetConfig, SyntheticBigEarthNet
from repro.ml import train_test_split
from repro.quantum import (
    DWAVE_2000Q,
    DWAVE_ADVANTAGE,
    QSvmEnsemble,
    QuantumSVM,
    SimulatedQuantumAnnealer,
)
from repro.quantum.annealer import EmbeddingError
from repro.svm import SVC

from conftest import emit_table


@pytest.fixture(scope="module")
def rs_binary():
    # A harder binary RS problem: grassland vs heathland (nearby spectra).
    spectra, labels = SyntheticBigEarthNet(BigEarthNetConfig(
        n_classes=8, seed=5, noise_sigma=0.06)).pixels(600)
    keep = np.isin(labels, (6, 7))
    X = spectra[keep]
    y = np.where(labels[keep] == 6, -1.0, 1.0)
    return train_test_split(X, y, test_fraction=0.3, seed=0)


def test_fig3_qsvm_vs_classical(rs_binary):
    Xtr, Xte, ytr, yte = rs_binary
    classical = SVC(kernel="rbf", gamma=4.0).fit(Xtr, ytr)
    classical_acc = classical.score(Xte, yte)

    def train_ensemble(device):
        annealer = SimulatedQuantumAnnealer.for_device(device, sweeps=80)
        return QSvmEnsemble(annealer, n_members=4, kernel="rbf", gamma=4.0,
                            num_reads=10, n_solutions=3).fit(Xtr, ytr)

    ens_2000 = train_ensemble(DWAVE_2000Q)
    ens_adv = train_ensemble(DWAVE_ADVANTAGE)

    rows = [
        ["classical SVM (full data)", len(ytr), f"{classical_acc:.3f}"],
        ["QSVM ensemble DW-2000Q", len(ens_2000.members_[0].y_),
         f"{ens_2000.score(Xte, yte):.3f}"],
        ["QSVM ensemble Advantage", len(ens_adv.members_[0].y_),
         f"{ens_adv.score(Xte, yte):.3f}"],
    ]
    emit_table("E6/Sec. III-C — QSVM ensembles vs classical SVM",
               ["method", "samples/machine", "test acc"], rows)

    # Shape: QSVM approaches the classical accuracy (within 10 points) but
    # must sub-sample; the Advantage fits larger members than the 2000Q.
    assert ens_2000.score(Xte, yte) > classical_acc - 0.10
    assert len(ens_adv.members_[0].y_) > len(ens_2000.members_[0].y_)


def test_fig3_device_capacity_table():
    def capacities():
        out = []
        for device in (DWAVE_2000Q, DWAVE_ADVANTAGE):
            annealer = SimulatedQuantumAnnealer.for_device(device)
            qsvm = QuantumSVM(annealer, n_bits=2)
            out.append((device, qsvm.max_training_samples()))
        return out

    caps = capacities()
    rows = [[d.name, d.n_qubits, d.n_couplers, d.max_clique, cap]
            for d, cap in caps]
    emit_table("E6 — annealer budgets (paper: 2000 qubits -> 5000/35000)",
               ["device", "qubits", "couplers", "max clique",
                "samples/anneal"], rows)

    assert caps[0][0].n_qubits == 2048 and caps[1][0].n_qubits == 5000
    assert caps[1][1] > 2 * caps[0][1]


def test_fig3_oversized_problem_rejected(rs_binary):
    """The sub-sampling requirement enforced, not merely documented."""
    Xtr, _, ytr, _ = rs_binary
    annealer = SimulatedQuantumAnnealer.for_device(DWAVE_2000Q, sweeps=10)
    qsvm = QuantumSVM(annealer, kernel="rbf", gamma=4.0)

    def attempt():
        try:
            qsvm.fit(Xtr, ytr)
            return False
        except EmbeddingError:
            return True

    rejected = attempt()
    assert rejected
