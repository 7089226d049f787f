"""Layers: parameter discovery, modes, state dicts, normalisation."""

import numpy as np
import pytest

from repro.ml import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool2D,
    Module,
    Parameter,
    SGD,
    Tensor,
)
from repro.ml.layers import he_init, xavier_init

rng = np.random.default_rng(0)


def _dense(n_in: int, n_out: int) -> Dense:
    """A dense layer initialised from a fresh seed-0 generator."""
    return Dense(n_in, n_out, rng=np.random.default_rng(0))


class Chain(Module):
    """A module holding its children in a list, as the model zoo does."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class TestDense:
    def test_shapes(self):
        layer = _dense(4, 3)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_linear_in_input(self):
        layer = _dense(3, 2)
        layer.bias.data[...] = rng.normal(size=2)
        x = rng.normal(size=(2, 3))
        a = layer(Tensor(x)).data - layer.bias.data
        b = layer(Tensor(2 * x)).data - layer.bias.data
        np.testing.assert_allclose(b, 2 * a)


class TestModuleDiscovery:
    def test_nested_parameters_found(self):
        model = Chain(_dense(3, 4), Dropout(0.0), _dense(4, 2))
        names = [n for n, _ in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.2.bias" in names
        assert len(model.parameters()) == 4

    def test_n_parameters(self):
        model = _dense(3, 4)
        assert model.n_parameters() == 3 * 4 + 4

    def test_zero_grad_clears_all(self):
        model = Chain(_dense(2, 2), _dense(2, 1))
        out = model(Tensor(rng.normal(size=(3, 2)))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        SGD(model.parameters(), lr=0.1).zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagates(self):
        model = Chain(_dense(2, 2), Dropout(0.5), Chain(Dropout(0.3)))
        model.eval()
        assert not model.layers[1].training
        assert not model.layers[2].layers[0].training
        model.train()
        assert model.layers[1].training


class TestStateDict:
    def test_roundtrip(self):
        a = Chain(_dense(3, 4), BatchNorm(4))
        b = Chain(Dense(3, 4, rng=np.random.default_rng(99)), BatchNorm(4))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_includes_batchnorm_buffers(self):
        bn = BatchNorm(3)
        state = bn.state_dict()
        assert any("running_mean" in k for k in state)

    def test_mismatch_raises(self):
        a = _dense(3, 4)
        b = _dense(3, 5)
        with pytest.raises((KeyError, ValueError)):
            b.load_state_dict(a.state_dict())

    def test_unknown_key_raises(self):
        a = _dense(3, 4)
        state = a.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            a.load_state_dict(state)


class TestBatchNorm:
    def test_normalises_batch(self):
        bn = BatchNorm(4)
        x = Tensor(rng.normal(5.0, 3.0, size=(64, 4)))
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_4d_input(self):
        bn = BatchNorm(3)
        out = bn(Tensor(rng.normal(size=(2, 3, 5, 5)))).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)

    def test_running_stats_converge(self):
        bn = BatchNorm(2)                 # running-stat momentum 0.9
        for _ in range(80):
            bn(Tensor(rng.normal(3.0, 1.0, size=(128, 2))))
        assert bn.running_mean == pytest.approx([3.0, 3.0], abs=0.3)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(2)
        for _ in range(80):               # let the 0.9-momentum stats settle
            bn(Tensor(rng.normal(10.0, 2.0, size=(256, 2))))
        bn.eval()
        x = Tensor(np.full((4, 2), 10.0))
        out = bn(x).data
        np.testing.assert_allclose(out, 0.0, atol=0.5)

    def test_gamma_beta_trainable(self):
        bn = BatchNorm(3)
        out = bn(Tensor(rng.normal(size=(8, 3)), requires_grad=True)).sum()
        out.backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestActivationsAndShapes:
    def test_activation_layers(self):
        # Models apply activations as Tensor methods between their layers.
        x = Tensor(rng.normal(size=(3, 3)))
        assert (x.relu().data >= 0).all()
        assert (np.abs(x.tanh().data) <= 1).all()
        assert ((x.sigmoid().data > 0) & (x.sigmoid().data < 1)).all()

    def test_global_avg_pool_layer(self):
        out = GlobalAvgPool2D()(Tensor(np.ones((2, 3, 4, 4))))
        assert out.shape == (2, 3)


class TestDropoutLayer:
    def test_deterministic_stream(self):
        a = Dropout(0.5, seed=3)
        b = Dropout(0.5, seed=3)
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestInit:
    def test_he_variance(self):
        w = he_init(np.random.default_rng(0), (2000, 100), fan_in=100)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 100), rel=0.05)

    def test_xavier_bounds(self):
        w = xavier_init(np.random.default_rng(0), (100, 100), 100, 100)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit
