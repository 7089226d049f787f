"""E5 — Fig. 3 R: Spark-style analytics on the DAM's memory hierarchy.

Two halves of the paper's DAM story:

* the **autoencoder compression** pipeline of ref [7] (Haut et al.) run on
  the RDD engine: compression ratio vs reconstruction error,
* the **memory-tier sensitivity** that motivates the DAM: the same cached
  working set stays DRAM-resident on a DAM node but spills on a standard
  cluster node, and MLlib-style classifiers run on the engine.
"""

import numpy as np
import pytest

from repro.analytics import MiniSparkContext, RandomForest, RddLogisticRegression
from repro.datasets import BigEarthNetConfig, SyntheticBigEarthNet
from repro.ml import Adam, Tensor, mse
from repro.ml.metrics import accuracy
from repro.ml.models import SpectralAutoencoder
from repro.storage.tiers import TieredStore

from conftest import emit_table

GiB = 1024 ** 3


@pytest.fixture(scope="module")
def spectra():
    ds = SyntheticBigEarthNet(BigEarthNetConfig(n_classes=6, seed=1,
                                                noise_sigma=0.02))
    return ds.pixels(800)


def _train_ae(spectra_arr, bottleneck, epochs=60):
    ae = SpectralAutoencoder(n_bands=12, bottleneck=bottleneck, hidden=16,
                             seed=0)
    opt = Adam(ae.parameters(), lr=5e-3)
    for _ in range(epochs):
        loss = mse(ae(Tensor(spectra_arr)), spectra_arr)
        ae.zero_grad()
        loss.backward()
        opt.step()
    return ae


def test_fig3_autoencoder_compression_sweep(spectra):
    X, _ = spectra
    rows = []
    for bottleneck in (2, 4, 6):
        ae = _train_ae(X, bottleneck)
        rows.append([f"12 -> {bottleneck}",
                     f"{ae.compression_ratio:.1f}x",
                     f"{ae.reconstruction_error(X):.5f}"])
    emit_table("E5/Fig. 3 R — AE compression of RS spectra (ref [7])",
               ["bottleneck", "ratio", "reconstruction MSE"], rows)

    errors = [float(r[2]) for r in rows]
    assert errors[0] >= errors[1] >= errors[2]   # more capacity, less error
    assert errors[2] < 0.01


def test_fig3_dam_memory_tier_sensitivity():
    """The DAM's raison d'être: big cached working sets stay in DRAM."""
    def cache_working_set(store):
        ctx = MiniSparkContext(n_partitions=4, memory=store)
        rdd = ctx.parallelize(list(range(200_000))).cache()
        rdd.collect()
        return ctx.cached_fast_fraction()

    dam_frac = cache_working_set(TieredStore.dam_node())
    tiny = TieredStore(hbm_GB=0, ddr_GB=2e-3, nvm_GB=4.0)
    small_frac = cache_working_set(tiny)

    # Analytic tier sweep: dataset size vs DRAM-resident fraction.
    rows = []
    for size_gb in (100, 400, 800, 2000):
        dam = TieredStore.dam_node()
        dam.put("ds", size_gb * GiB)
        cluster = TieredStore.cluster_node()
        cluster.put("ds", size_gb * GiB)
        rows.append([size_gb,
                     f"{dam.resident_fraction_fast('ds'):.2f}",
                     f"{cluster.resident_fraction_fast('ds'):.2f}",
                     f"{dam.read_time('ds'):.1f}",
                     f"{cluster.read_time('ds'):.1f}"])
    emit_table(
        "E5 — working-set residency: DAM node vs cluster node",
        ["size GB", "DAM fast frac", "cluster fast frac",
         "DAM read s", "cluster read s"], rows)

    assert dam_frac == pytest.approx(1.0)
    assert small_frac < 1.0
    # At 400 GB the DAM still holds everything DRAM+HBM-adjacent while the
    # 96 GB cluster node reads mostly from the PFS.
    assert float(rows[1][1]) > float(rows[1][2])
    assert float(rows[1][4]) > float(rows[1][3])


def test_fig3_mllib_classifiers_on_rdd(spectra):
    """The footnote's MLlib stack: logistic regression + random forest."""
    X, labels = spectra
    y = (labels >= 3).astype(int)
    ctx = MiniSparkContext(n_partitions=4)
    rows_rdd = ctx.parallelize(list(zip(X, y)))

    lr_model = RddLogisticRegression(n_features=12,
                                     n_iterations=30).fit(rows_rdd)
    forest = RandomForest(n_trees=10, max_depth=5, seed=0).fit(X, y, ctx=ctx)

    rows = [
        ["logistic regression (treeAggregate)", f"{lr_model.score(X, y):.3f}"],
        ["random forest (partition-parallel)", f"{forest.score(X, y):.3f}"],
    ]
    emit_table("E5 — MLlib-style classifiers on the RDD engine",
               ["model", "train accuracy"], rows)
    assert lr_model.score(X, y) > 0.85
    assert forest.score(X, y) > 0.85
