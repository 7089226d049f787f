"""Cascade SVM parallelised with MPI (Graf et al.; the paper's ref [16]
pattern for CPU-parallel RS classification on the Cluster Module).

Training data is partitioned over ranks.  Each rank trains a local SVM and
keeps only its support vectors; pairs of ranks merge their support-vector
sets up a binary reduction tree, retraining at each level.  The root's
final machine is trained on the surviving support vectors only — typically
a small fraction of the data — so total work falls well below one big SMO
solve while the decision function stays near-identical (the cascade's
well-known property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mpi.comm import Communicator
from repro.svm.smo import SVC

#: Rate the modeled SMO work is charged at (one Cluster Module core, flop/s).
SMO_FLOPS_PER_S = 1.0e9


@dataclass
class CascadeSVM:
    """Result of a cascade training run (valid on the root rank)."""

    machine: SVC
    n_levels: int
    total_sv_exchanged: int
    local_times: list[float]    #: modeled training seconds, per rank

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.machine.predict(X)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return self.machine.decision_function(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return self.machine.score(X, y)


def _train_on(template: SVC, X: np.ndarray,
              y: np.ndarray) -> tuple[SVC, float]:
    """Fit a fresh machine; returns it with the modeled seconds of the fit
    (the kernel matrix plus two kernel-row updates per SMO iteration)."""
    machine = template.clone_unfitted()
    machine.fit(X, y)
    n, d = X.shape
    return machine, (n * n * d + 2.0 * n * machine.n_iter_) / SMO_FLOPS_PER_S


def _sv_set(machine: SVC, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support vectors with their labels (recovered by row matching)."""
    sv = machine.support_vectors_
    if sv is None or sv.shape[0] == 0:
        return X[:0], y[:0]
    # alpha*y sign gives the label directly.
    labels = np.sign(machine.support_alpha_y_)
    labels = np.where(labels == 0, 1.0, labels)
    return sv, labels


def cascade_train(
    comm: Communicator,
    X_local: np.ndarray,
    y_local: np.ndarray,
    template: Optional[SVC] = None,
) -> Optional[CascadeSVM]:
    """Train a cascade SVM; each rank passes its data partition.

    Returns the fitted :class:`CascadeSVM` on rank 0, None elsewhere.
    Labels must be in {-1, +1}.
    """
    template = template or SVC(C=1.0, kernel="rbf", gamma=0.5)
    machine, local_time = _train_on(template, X_local, y_local)
    comm.compute(local_time)
    X_sv, y_sv = _sv_set(machine, X_local, y_local)

    exchanged = 0
    level = 0
    p = comm.size
    stride = 1
    active = True
    # Binary reduction tree over ranks: at each level, odd multiples of the
    # stride send their SV set to the even partner, which retrains on the
    # union.  Every rank walks every level (allocating the same collective
    # tags) so the final gather stays aligned; inactive ranks just skip.
    while stride < p:
        tag = comm._next_coll_tag()
        if active and (comm.rank // stride) % 2 == 1 and comm.rank % stride == 0:
            comm._send_raw(comm.rank - stride, (X_sv, y_sv), tag)
            active = False  # this rank leaves the cascade
        elif active and comm.rank % (2 * stride) == 0 and comm.rank + stride < p:
            incoming = comm._recv_raw(source=comm.rank + stride, tag=tag).payload
            X_in, y_in = incoming
            exchanged += len(X_in)
            X_merge = np.concatenate([X_sv, X_in])
            y_merge = np.concatenate([y_sv, y_in])
            if len(np.unique(y_merge)) >= 2:
                machine, retrain = _train_on(template, X_merge, y_merge)
                comm.compute(retrain)
                local_time += retrain
                X_sv, y_sv = _sv_set(machine, X_merge, y_merge)
            else:
                X_sv, y_sv = X_merge, y_merge
        stride *= 2
        level += 1

    times = comm.gather(local_time, root=0)
    if comm.rank == 0:
        return CascadeSVM(
            machine=machine,
            n_levels=level,
            total_sv_exchanged=exchanged,
            local_times=times,
        )
    return None


def serial_train(X: np.ndarray, y: np.ndarray,
                 template: Optional[SVC] = None) -> tuple[SVC, float]:
    """The single-SMO baseline the cascade is compared against; returns
    the machine and its modeled training seconds."""
    return _train_on(template or SVC(C=1.0, kernel="rbf", gamma=0.5), X, y)
