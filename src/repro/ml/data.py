"""Data pipeline: datasets, loaders and the distributed sampler.

The distributed sampler implements Horovod/DDP-style sharding: rank ``r``
of ``p`` sees every ``p``-th example of a per-epoch permutation that all
ranks derive from the same seed — no two ranks share samples, and the union
covers the dataset (padding the tail so every rank sees the same number of
batches, as real data-parallel training requires for collective lockstep).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np


class ArrayDataset:
    """A dataset of parallel arrays (features, labels, masks, ...)."""

    def __init__(self, *arrays: np.ndarray) -> None:
        if not arrays:
            raise ValueError("need at least one array")
        n = len(arrays[0])
        for a in arrays:
            if len(a) != n:
                raise ValueError("all arrays must share the first dimension")
        self.arrays = tuple(np.asarray(a) for a in arrays)

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, idx) -> tuple[np.ndarray, ...]:
        return tuple(a[idx] for a in self.arrays)


class DataLoader:
    """Mini-batch iterator with deterministic shuffling."""

    def __init__(self, dataset: ArrayDataset, batch_size: int,
                 seed: int = 0, drop_last: bool = False) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed
        self.drop_last = drop_last
        self._epoch = 0

    def set_epoch(self, epoch: int) -> None:
        self._epoch = epoch

    def _indices(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + self._epoch)
        return rng.permutation(len(self.dataset))

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return math.ceil(n / self.batch_size)

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        idx = self._indices()
        n_batches = len(self)
        for b in range(n_batches):
            batch = idx[b * self.batch_size:(b + 1) * self.batch_size]
            yield self.dataset[batch]


class DistributedSampler:
    """Shard a dataset across data-parallel ranks, Horovod-style."""

    def __init__(self, n_samples: int, rank: int, world_size: int,
                 seed: int = 0) -> None:
        if not (0 <= rank < world_size):
            raise ValueError("rank must be in [0, world_size)")
        if n_samples < 1:
            raise ValueError("need at least one sample")
        self.n_samples = n_samples
        self.rank = rank
        self.world_size = world_size
        self.seed = seed
        self._epoch = 0
        #: Every rank sees the same number of samples (tail padded by wrap).
        self.samples_per_rank = math.ceil(n_samples / world_size)

    def set_epoch(self, epoch: int) -> None:
        self._epoch = epoch

    def indices(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + self._epoch)
        order = rng.permutation(self.n_samples)
        total = self.samples_per_rank * self.world_size
        if total > self.n_samples:
            # Cyclic wrap-padding; covers world sizes beyond the dataset too.
            order = np.resize(order, total)
        return order[self.rank::self.world_size]


class DistributedDataLoader:
    """Mini-batches over a rank's shard; all ranks agree on batch count."""

    def __init__(self, dataset: ArrayDataset, batch_size: int,
                 rank: int, world_size: int, seed: int = 0) -> None:
        self.dataset = dataset
        self.batch_size = batch_size
        self.sampler = DistributedSampler(len(dataset), rank, world_size,
                                          seed=seed)

    def set_epoch(self, epoch: int) -> None:
        self.sampler.set_epoch(epoch)

    def __len__(self) -> int:
        return math.ceil(self.sampler.samples_per_rank / self.batch_size)

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        idx = self.sampler.indices()
        for b in range(len(self)):
            batch = idx[b * self.batch_size:(b + 1) * self.batch_size]
            yield self.dataset[batch]


def train_test_split(
    *arrays: np.ndarray, test_fraction: float = 0.2, seed: int = 0
) -> tuple:
    """Deterministic shuffled split; returns (train..., test...) pairs."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(arrays[0])
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cut = int(round(n * (1.0 - test_fraction)))
    train_idx, test_idx = order[:cut], order[cut:]
    out = []
    for a in arrays:
        out.append(a[train_idx])
        out.append(a[test_idx])
    return tuple(out)
