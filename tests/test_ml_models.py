"""Model zoo: shapes, parameter counts, trainability on synthetic data."""

import numpy as np
import pytest

from repro.ml import Adam, Tensor, cross_entropy, mae, mse
from repro.ml.metrics import accuracy
from repro.ml.models import (
    CovidNet,
    Cnn1dForecaster,
    GruForecaster,
    MLP,
    ResNet,
    SpectralAutoencoder,
    resnet50_config,
    resnet_small,
)
from repro.ml.models.gru_forecaster import locf_baseline, mean_baseline

rng = np.random.default_rng(3)


class TestResNet:
    def test_forward_shape(self):
        net = resnet_small(in_channels=4, n_classes=7)
        out = net(Tensor(rng.normal(size=(2, 4, 8, 8))))
        assert out.shape == (2, 7)

    def test_downsampling_across_stages(self):
        net = ResNet(3, 5)
        out = net(Tensor(rng.normal(size=(1, 3, 16, 16))))
        assert out.shape == (1, 5)

    def test_all_parameters_receive_gradients(self):
        net = resnet_small(in_channels=3, n_classes=4)
        loss = cross_entropy(net(Tensor(rng.normal(size=(2, 3, 8, 8)))),
                             np.array([0, 1]))
        loss.backward()
        for name, p in net.named_parameters():
            assert p.grad is not None, name

    def test_predict_eval_mode_restores_training(self):
        net = resnet_small()
        net.train()
        net.predict(rng.normal(size=(1, 12, 8, 8)))
        assert net.training

    def test_resnet50_shape_model(self):
        shape = resnet50_config()
        assert 20e6 < shape.n_parameters < 30e6
        assert shape.flops_per_sample > 1e9

    def test_resnet50_flops_scale_with_resolution(self):
        # 4.1 GMACs at 224 px, rescaled to BigEarthNet's 120 px patches.
        assert resnet50_config().flops_per_sample == pytest.approx(
            2 * 4.1e9 * (120 / 224) ** 2)

    def test_learns_separable_classes(self):
        X = np.zeros((40, 3, 8, 8))
        y = np.repeat([0, 1], 20)
        X[:20, 0] += 1.0       # class 0: band 0 bright
        X[20:, 2] += 1.0       # class 1: band 2 bright
        X += rng.normal(0, 0.05, X.shape)
        net = resnet_small(in_channels=3, n_classes=2)
        opt = Adam(net.parameters(), lr=5e-3)
        for _ in range(15):
            loss = cross_entropy(net(Tensor(X)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert accuracy(net.predict(X), y) >= 0.9


class TestCovidNet:
    def test_forward_shape_and_classes(self):
        net = CovidNet()
        out = net(Tensor(rng.normal(size=(2, 1, 16, 16))))
        assert out.shape == (2, 3)

    def test_parameter_efficiency_of_pepx(self):
        # PEPX keeps the model light relative to a plain convnet stack.
        net = CovidNet()
        assert net.n_parameters() < 60_000


class TestForecasters:
    def test_gru_architecture_matches_paper(self):
        """2 GRU layers, 32 units, dropout 0.2, Dense(1) — Sec. IV-B."""
        model = GruForecaster(n_features=6)
        assert model.gru1.hidden_size == 32
        assert model.gru2.hidden_size == 32
        assert model.drop1.p == pytest.approx(0.2)
        assert model.out.out_features == 1
        assert len(model.regularised_parameters()) == 4

    def test_gru_forward_shape(self):
        model = GruForecaster(n_features=5, hidden=8)
        out = model(Tensor(rng.normal(size=(3, 10, 5))))
        assert out.shape == (3, 1)

    def test_cnn1d_forward_shape(self):
        model = Cnn1dForecaster(n_features=5)
        out = model(Tensor(rng.normal(size=(3, 10, 5))))
        assert out.shape == (3, 1)

    def test_models_learn_next_value_of_ar_process(self):
        # AR(1) windows: the next value is 0.9 * last.
        T, n = 8, 300
        series = np.zeros((n, T + 1))
        series[:, 0] = rng.normal(size=n)
        for t in range(T):
            series[:, t + 1] = 0.9 * series[:, t] + 0.05 * rng.normal(size=n)
        # The series in both channels: the baselines read channel 1.
        X = np.repeat(series[:, :T, None], 2, axis=2)
        y = series[:, T:T + 1]
        for model in (GruForecaster(2, hidden=8), Cnn1dForecaster(2)):
            opt = Adam(model.parameters(), lr=1e-2)
            for _ in range(40):
                loss = mae(model(Tensor(X)), y)
                opt.zero_grad()
                loss.backward()
                opt.step()
            model.eval()
            pred = model.predict(X)
            err = np.abs(pred - y).mean()
            baseline = np.abs(mean_baseline(X) - y).mean()
            assert err < baseline

    def test_baselines(self):
        X = rng.normal(size=(4, 6, 2))
        np.testing.assert_array_equal(locf_baseline(X), X[:, -1, 1:2])
        np.testing.assert_allclose(mean_baseline(X),
                                   X[:, :, 1].mean(axis=1, keepdims=True))


class TestAutoencoder:
    def test_shapes_and_ratio(self):
        ae = SpectralAutoencoder(n_bands=12, bottleneck=3)
        assert ae.compression_ratio == pytest.approx(4.0)
        out = ae(Tensor(rng.normal(size=(5, 12))))
        assert out.shape == (5, 12)
        z = ae.encode(Tensor(rng.normal(size=(5, 12))))
        assert z.shape == (5, 3)
        # ``predict`` is every module's: eval mode, training restored.
        assert ae.predict(rng.normal(size=(5, 12))).shape == (5, 12)
        assert ae.training

    def test_bottleneck_must_compress(self):
        with pytest.raises(ValueError):
            SpectralAutoencoder(n_bands=4, bottleneck=4)

    def test_learns_low_rank_structure(self):
        # Data on a 2-D manifold embedded in 10-D: AE with bottleneck 2
        # should reconstruct well after training.
        basis = rng.normal(size=(2, 10))
        codes = rng.normal(size=(300, 2))
        X = codes @ basis
        ae = SpectralAutoencoder(n_bands=10, bottleneck=2)
        opt = Adam(ae.parameters(), lr=1e-2)
        before = ae.reconstruction_error(X)
        for _ in range(150):
            loss = mse(ae(Tensor(X)), X)
            opt.zero_grad()
            loss.backward()
            opt.step()
        after = ae.reconstruction_error(X)
        assert after < before / 10


class TestMLP:
    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_shapes(self):
        m = MLP([4, 8, 3])
        assert m(Tensor(rng.normal(size=(2, 4)))).shape == (2, 3)

    def test_learns_xor(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        X = np.tile(X, (25, 1)) + rng.normal(0, 0.05, (100, 2))
        y = (np.round(X[:, 0]) != np.round(X[:, 1])).astype(int)
        m = MLP([2, 16, 2], seed=1)
        opt = Adam(m.parameters(), lr=1e-2)
        for _ in range(150):
            loss = cross_entropy(m(Tensor(X)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert accuracy(m.predict(X), y) > 0.95
