"""End-to-end case studies: the paper's experiments at laptop scale.

These integration tests run the actual pipelines the benchmarks report on —
distributed ResNet training on synthetic BigEarthNet (E3), COVID-Net on
synthetic COVIDx (E7), the ARDS GRU vs 1-D CNN vs clinical baselines (E8),
and the Spark autoencoder pipeline on DAM memory (E5).
"""

import numpy as np
import pytest

from repro.datasets import (
    BigEarthNetConfig,
    CxrConfig,
    IcuCohort,
    IcuConfig,
    SyntheticBigEarthNet,
    SyntheticCovidx,
    make_imputation_windows,
)
from repro.distributed import DistributedOptimizer, broadcast_parameters
from repro.ml import (
    Adam,
    ArrayDataset,
    DistributedDataLoader,
    SGD,
    Tensor,
    cross_entropy,
    mae,
    train_test_split,
)
from repro.ml.metrics import accuracy, mae_score, precision_recall_f1
from repro.ml.models import CovidNet, Cnn1dForecaster, GruForecaster, resnet_small
from repro.ml.models.gru_forecaster import locf_baseline, mean_baseline
from repro.mpi import run_spmd


# ---------------------------------------------------------------------------
# E3: distributed land-cover training — accuracy invariant in worker count
# ---------------------------------------------------------------------------

class TestRemoteSensingDistributedTraining:
    N_CLASSES = 4

    @pytest.fixture(scope="class")
    def data(self):
        ds = SyntheticBigEarthNet(BigEarthNetConfig(
            n_samples=160, patch_size=8, n_classes=self.N_CLASSES,
            noise_sigma=0.02, seed=0))
        X, y = ds.generate()
        return train_test_split(X, y, test_fraction=0.25, seed=0)

    def _train(self, comm, Xtr, ytr, epochs=25):
        model = resnet_small(in_channels=12, n_classes=self.N_CLASSES,
                             seed=0)
        broadcast_parameters(model, comm)
        opt = DistributedOptimizer(Adam(model.parameters(), lr=3e-3), comm)
        # Constant global batch (the linear-scaling regime): per-rank batch
        # shrinks as workers grow, so optimisation dynamics stay comparable.
        loader = DistributedDataLoader(ArrayDataset(Xtr, ytr),
                                       batch_size=max(1, 40 // comm.size),
                                       rank=comm.rank, world_size=comm.size,
                                       seed=1)
        for epoch in range(epochs):
            loader.set_epoch(epoch)
            for xb, yb in loader:
                loss = cross_entropy(model(Tensor(xb)), yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
        return model

    def test_accuracy_flat_across_gpu_counts(self, data):
        """Fig. 3: 'significantly reduce the training time without
        affecting prediction accuracy'."""
        Xtr, Xte, ytr, yte = data

        def fn(comm):
            model = self._train(comm, Xtr, ytr)
            return accuracy(model.predict(Xte), yte)

        accs = {ws: run_spmd(fn, ws)[0] for ws in (1, 2, 4)}
        chance = 1.0 / self.N_CLASSES
        for ws, acc in accs.items():
            assert acc > chance + 0.3, f"ws={ws} did not learn: {acc}"
        assert max(accs.values()) - min(accs.values()) < 0.15

    def test_simulated_time_reflects_parallel_speedup(self, data):
        """With modelled per-step compute, more workers finish an epoch in
        less simulated time despite allreduce overhead."""
        Xtr, _, ytr, _ = data
        step_compute = 0.05

        def fn(comm):
            model = resnet_small(in_channels=12, n_classes=self.N_CLASSES)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.01), comm)
            loader = DistributedDataLoader(ArrayDataset(Xtr, ytr), 20,
                                           comm.rank, comm.size, seed=1)
            for xb, yb in loader:
                comm.compute(step_compute)
                loss = cross_entropy(model(Tensor(xb)), yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return comm.sim_time

        t1 = max(run_spmd(fn, 1))
        t4 = max(run_spmd(fn, 4))
        assert t4 < t1 / 2


# ---------------------------------------------------------------------------
# E7: COVID-Net on synthetic COVIDx
# ---------------------------------------------------------------------------

class TestCovidNetCaseStudy:
    @pytest.fixture(scope="class")
    def trained(self):
        gen = SyntheticCovidx(CxrConfig(n_samples=240, noise_sigma=0.02,
                                        seed=0))
        X, y = gen.generate()
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_fraction=0.25,
                                              seed=0)
        model = CovidNet(seed=0)
        opt = Adam(model.parameters(), lr=3e-3)
        loader_idx = np.arange(len(Xtr))
        rng = np.random.default_rng(0)
        for epoch in range(25):
            rng.shuffle(loader_idx)
            for start in range(0, len(loader_idx), 32):
                batch = loader_idx[start:start + 32]
                loss = cross_entropy(model(Tensor(Xtr[batch])), ytr[batch])
                opt.zero_grad()
                loss.backward()
                opt.step()
        return model, gen, (Xte, yte)

    def test_detects_covid_from_cxr(self, trained):
        model, _, (Xte, yte) = trained
        acc = accuracy(model.predict(Xte), yte)
        assert acc > 0.7, f"COVID-Net accuracy too low: {acc}"

    def test_covid_recall_reasonable(self, trained):
        """Screening use demands sensitivity on the COVID class."""
        model, _, (Xte, yte) = trained
        scores = precision_recall_f1(model.predict(Xte), yte, 3)
        assert scores["recall"][2] > 0.5

    def test_generalises_to_external_hospital(self, trained):
        """Sec. IV-A: 'validate that Covid-Net is able to generalize well
        to unseen datasets' (the pharma-collaboration set)."""
        model, gen, _ = trained
        Xe, ye = gen.generate_external_validation(90)
        acc = accuracy(model.predict(Xe), ye)
        assert acc > 0.55


# ---------------------------------------------------------------------------
# E8: ARDS time-series missing-value prediction
# ---------------------------------------------------------------------------

class TestArdsCaseStudy:
    TARGET = 1  # SpO2

    @pytest.fixture(scope="class")
    def windows(self):
        cohort = IcuCohort(IcuConfig(n_patients=30, seed=0,
                                     min_hours=30, max_hours=60))
        records = cohort.generate()
        X, y, stats = make_imputation_windows(records, window=8,
                                              target_channel=self.TARGET)
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_fraction=0.25,
                                              seed=0)
        return Xtr, Xte, ytr, yte

    def _fit(self, model, Xtr, ytr, lr, epochs=10):
        opt = Adam(model.parameters(), lr=lr)
        idx = np.arange(len(Xtr))
        rng = np.random.default_rng(0)
        for _ in range(epochs):
            rng.shuffle(idx)
            for start in range(0, len(idx), 64):
                batch = idx[start:start + 64]
                loss = mae(model(Tensor(Xtr[batch])), ytr[batch])
                opt.zero_grad()
                loss.backward()
                opt.step()
        model.eval()
        return model

    def test_gru_beats_clinical_baselines(self, windows):
        Xtr, Xte, ytr, yte = windows
        model = self._fit(GruForecaster(Xtr.shape[2], hidden=16, seed=0),
                          Xtr, ytr, lr=5e-3)
        gru_mae = mae_score(model.predict(Xte), yte)
        locf_mae = mae_score(locf_baseline(Xte), yte)
        mean_mae = mae_score(mean_baseline(Xte), yte)
        assert gru_mae < locf_mae
        assert gru_mae < mean_mae

    def test_cnn1d_also_promising(self, windows):
        """The paper: 'One-Dimensional CNN as promising method as well as
        GRUs for predicting missing values'."""
        Xtr, Xte, ytr, yte = windows
        model = self._fit(Cnn1dForecaster(Xtr.shape[2], seed=0),
                          Xtr, ytr, lr=5e-3)
        cnn_mae = mae_score(model.predict(Xte), yte)
        mean_mae = mae_score(mean_baseline(Xte), yte)
        assert cnn_mae < mean_mae

    def test_paper_hyperparameters_run(self, windows):
        """The exact Sec. IV-B configuration trains without issue:
        2x GRU(32), dropout 0.2, MAE loss, Adam lr=1e-4."""
        Xtr, Xte, ytr, yte = windows
        model = GruForecaster(Xtr.shape[2])          # 32 units, dropout 0.2
        opt = Adam(model.parameters(), lr=1e-4)      # paper's LR
        loss0 = mae(model(Tensor(Xtr[:64])), ytr[:64]).item()
        for _ in range(8):
            loss = mae(model(Tensor(Xtr[:64])), ytr[:64])
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < loss0


# ---------------------------------------------------------------------------
# E5: Spark-style autoencoder compression on DAM memory
# ---------------------------------------------------------------------------

class TestSparkAutoencoderPipeline:
    def test_rdd_pipeline_trains_autoencoder(self):
        from repro.analytics import MiniSparkContext
        from repro.ml.models import SpectralAutoencoder
        from repro.ml import mse

        ds = SyntheticBigEarthNet(BigEarthNetConfig(n_classes=6, seed=1))
        spectra, _ = ds.pixels(600)
        ctx = MiniSparkContext()
        rows = ctx.parallelize(list(spectra)).cache()

        ae = SpectralAutoencoder(n_bands=12, bottleneck=3, seed=0)
        opt = Adam(ae.parameters(), lr=5e-3)
        before = ae.reconstruction_error(spectra)
        for _ in range(30):
            # treeAggregate-style: partitions contribute batch gradients.
            batch = np.asarray(rows.collect()[:256])
            loss = mse(ae(Tensor(batch)), batch)
            opt.zero_grad()
            loss.backward()
            opt.step()
        after = ae.reconstruction_error(spectra)
        assert after < before / 5
        assert ctx.cached_fast_fraction() == pytest.approx(1.0)

    def test_compression_preserves_class_structure(self):
        """Compressed spectra must still separate land-cover classes."""
        from repro.ml.models import SpectralAutoencoder
        from repro.ml import mse

        ds = SyntheticBigEarthNet(BigEarthNetConfig(
            n_classes=3, seed=2, noise_sigma=0.01))
        spectra, labels = ds.pixels(500)
        ae = SpectralAutoencoder(n_bands=12, bottleneck=2, seed=0)
        opt = Adam(ae.parameters(), lr=5e-3)
        for _ in range(80):
            loss = mse(ae(Tensor(spectra)), spectra)
            opt.zero_grad()
            loss.backward()
            opt.step()
        ae.eval()
        Z = ae.encode(Tensor(spectra)).data
        # Nearest-centroid classification in latent space.
        centroids = np.stack([Z[labels == c].mean(axis=0) for c in range(3)])
        d = ((Z[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = accuracy(d.argmin(axis=1), labels)
        assert acc > 0.85
