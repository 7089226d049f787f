"""Data pipeline (incl. the Horovod-style distributed sampler) and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    ArrayDataset,
    DataLoader,
    DistributedDataLoader,
    DistributedSampler,
    train_test_split,
)
from repro.ml.metrics import (
    accuracy,
    confusion_matrix,
    mae_score,
    precision_recall_f1,
)


class TestDataset:
    def test_parallel_arrays(self):
        ds = ArrayDataset(np.arange(10), np.arange(10) * 2)
        x, y = ds[3]
        assert (x, y) == (3, 6)
        assert len(ds) == 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.arange(3), np.arange(4))

    def test_batch_indexing(self):
        ds = ArrayDataset(np.arange(10))
        (batch,) = ds[np.array([1, 3])]
        np.testing.assert_array_equal(batch, [1, 3])


class TestDataLoader:
    def test_batches_cover_dataset(self):
        ds = ArrayDataset(np.arange(10))
        loader = DataLoader(ds, batch_size=3)
        seen = np.concatenate([b[0] for b in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(10))
        assert len(loader) == 4

    def test_drop_last(self):
        loader = DataLoader(ArrayDataset(np.arange(10)), 3, drop_last=True)
        assert len(loader) == 3

    def test_shuffle_deterministic_per_epoch(self):
        ds = ArrayDataset(np.arange(100))
        a = DataLoader(ds, 10, seed=5)
        b = DataLoader(ds, 10, seed=5)
        assert all(
            np.array_equal(x[0], y[0]) for x, y in zip(a, b)
        )

    def test_epochs_reshuffle(self):
        ds = ArrayDataset(np.arange(100))
        loader = DataLoader(ds, 100, seed=5)
        first = next(iter(loader))[0].copy()
        loader.set_epoch(1)
        second = next(iter(loader))[0]
        assert not np.array_equal(first, second)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(ArrayDataset(np.arange(3)), 0)


class TestDistributedSampler:
    def test_shards_are_disjoint_and_cover(self):
        n, p = 103, 4
        samplers = [DistributedSampler(n, r, p, seed=1) for r in range(p)]
        shards = [s.indices() for s in samplers]
        union = np.concatenate(shards)
        assert set(union.tolist()) == set(range(n))   # full coverage
        # Each pair disjoint up to the wrap-padding duplicates.
        lengths = [len(s) for s in shards]
        assert len(set(lengths)) == 1                  # equal sizes

    def test_equal_batches_across_ranks(self):
        ds = ArrayDataset(np.arange(101))
        loaders = [DistributedDataLoader(ds, 8, r, 4) for r in range(4)]
        assert len({len(ld) for ld in loaders}) == 1

    @given(n=st.integers(min_value=2, max_value=500),
           p=st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_property_coverage_and_balance(self, n, p):
        shards = [DistributedSampler(n, r, p, seed=0).indices()
                  for r in range(p)]
        union = set(np.concatenate(shards).tolist())
        assert union == set(range(n))
        sizes = {len(s) for s in shards}
        assert len(sizes) == 1

    @given(n=st.integers(min_value=8, max_value=200),
           p=st.integers(min_value=2, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_property_no_overlap_without_padding(self, p, n):
        # When p divides n there is no padding, so shards are disjoint.
        n = (n // p) * p
        if n == 0:
            return
        shards = [set(DistributedSampler(n, r, p, seed=0).indices().tolist())
                  for r in range(p)]
        for i in range(p):
            for j in range(i + 1, p):
                assert not (shards[i] & shards[j])

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            DistributedSampler(10, rank=4, world_size=4)

    def test_epoch_changes_order_not_coverage(self):
        s = DistributedSampler(40, 0, 2, seed=0)
        e0 = s.indices().copy()
        s.set_epoch(1)
        e1 = s.indices()
        assert not np.array_equal(e0, e1)


class TestSplit:
    def test_fractions(self):
        X = np.arange(100)
        y = np.arange(100) * 2
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_fraction=0.25, seed=0)
        assert len(Xte) == 25 and len(Xtr) == 75
        # Pairing preserved.
        np.testing.assert_array_equal(ytr, Xtr * 2)

    def test_disjoint(self):
        X = np.arange(50)
        Xtr, Xte = train_test_split(X, test_fraction=0.2, seed=1)
        assert not (set(Xtr.tolist()) & set(Xte.tolist()))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(10), test_fraction=0.0)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == \
            pytest.approx(2 / 3)

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        cm = confusion_matrix(np.array([0, 1, 1]), np.array([0, 1, 0]), 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_precision_recall_f1_perfect(self):
        y = np.array([0, 1, 2, 1])
        out = precision_recall_f1(y, y, 3)
        np.testing.assert_allclose(out["f1"], 1.0)

    def test_precision_recall_zero_safe(self):
        out = precision_recall_f1(np.array([0, 0]), np.array([1, 1]), 2)
        assert out["precision"][1] == 0.0
        assert out["recall"][0] == 0.0

    def test_regression_scores(self):
        pred = np.array([1.0, 2.0, 3.0])
        true = np.array([1.0, 2.0, 5.0])
        assert mae_score(pred, true) == pytest.approx(2 / 3)
