"""Mini-Spark: RDD semantics, shuffles, caching against memory tiers, and
the MLlib-like algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    DecisionTree,
    MiniSparkContext,
    RandomForest,
    RddLogisticRegression,
)
from repro.storage.tiers import TieredStore


@pytest.fixture
def ctx():
    return MiniSparkContext()


class TestRddBasics:
    def test_parallelize_collect_roundtrip(self, ctx):
        data = list(range(17))
        assert sorted(ctx.parallelize(data).collect()) == data

    def test_count_and_take(self, ctx):
        rdd = ctx.parallelize(range(25))
        assert rdd.count() == 25

    def test_laziness(self, ctx):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(5)).map(spy)
        assert calls == []           # nothing ran yet
        rdd.collect()
        assert sorted(calls) == list(range(5))

    @given(st.lists(st.integers(-100, 100), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_map_preserves_count(self, data):
        ctx = MiniSparkContext()
        assert ctx.parallelize(data).map(lambda x: x + 1).count() == len(data)


class TestCaching:
    def test_cache_avoids_recomputation(self, ctx):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(6)).map(spy).cache()
        rdd.collect()
        first = len(calls)
        rdd.collect()
        assert len(calls) == first          # second pass served from cache
        assert ctx.cache_hits >= 1

    def test_dam_memory_keeps_cache_fast(self):
        # DAM node: everything fits DRAM-class tiers.
        dam = MiniSparkContext(memory=TieredStore.dam_node())
        rdd = dam.parallelize(list(range(10000))).cache()
        rdd.collect()
        assert dam.cached_fast_fraction() == pytest.approx(1.0)

    def test_tiny_memory_spills(self):
        tiny = MiniSparkContext(
            memory=TieredStore(hbm_GB=0, ddr_GB=1e-5, nvm_GB=1.0))
        rdd = tiny.parallelize(list(range(20000))).cache()
        rdd.collect()
        assert tiny.cached_fast_fraction() < 1.0


class TestTreeAggregate:
    def test_matches_fold(self, ctx):
        total = ctx.parallelize(range(100)).tree_aggregate(
            0, lambda acc, x: acc + x, lambda a, b: a + b)
        assert total == 4950

    def test_empty(self, ctx):
        assert ctx.parallelize([]).tree_aggregate(
            7, lambda a, x: a + x, lambda a, b: a + b) in (7, 28)
        # (zero per empty partition combined is still the zero element sum;
        # either convention is fine as long as it is deterministic)


def _blobs(n=60, seed=0):
    r = np.random.default_rng(seed)
    X = np.concatenate([r.normal(-2, 0.8, size=(n, 2)),
                        r.normal(2, 0.8, size=(n, 2))])
    y = np.array([0] * n + [1] * n)
    perm = r.permutation(len(y))
    return X[perm], y[perm]


class TestLogisticRegression:
    def test_learns_blobs(self, ctx):
        X, y = _blobs()
        rows = ctx.parallelize(list(zip(X, y)))
        model = RddLogisticRegression(n_features=2).fit(rows)
        assert model.score(X, y) > 0.95

    def test_loss_decreases(self, ctx):
        X, y = _blobs()
        rows = ctx.parallelize(list(zip(X, y)))
        model = RddLogisticRegression(n_features=2).fit(rows)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_probabilities_bounded(self, ctx):
        X, y = _blobs()
        model = RddLogisticRegression(2).fit(
            ctx.parallelize(list(zip(X, y))))
        p = model.predict_proba(X)
        assert ((p >= 0) & (p <= 1)).all()

    def test_empty_rdd_rejected(self, ctx):
        with pytest.raises(ValueError):
            RddLogisticRegression(2).fit(ctx.parallelize([]))


def _accuracy(model, X, y) -> float:
    return float((model.predict(X) == y).mean())


class TestTreesAndForest:
    def test_tree_fits_blobs(self):
        X, y = _blobs()
        tree = DecisionTree().fit(X, y)
        assert _accuracy(tree, X, y) > 0.9

    def test_forest_without_context(self):
        X, y = _blobs(seed=5)
        forest = RandomForest().fit(X, y)
        assert forest.score(X, y) > 0.9

    def test_rdd_and_serial_forest_agree(self, ctx):
        X, y = _blobs(seed=6)
        serial = RandomForest(seed=2).fit(X, y)
        parallel = RandomForest(seed=2).fit(X, y, ctx=ctx)
        np.testing.assert_array_equal(serial.predict(X), parallel.predict(X))

    def test_validation(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))
