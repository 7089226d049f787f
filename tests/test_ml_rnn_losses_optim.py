"""GRU layers, loss functions and optimisers."""

import numpy as np
import pytest

from repro.ml import (
    Adam,
    GRU,
    GRUCell,
    SGD,
    Tensor,
    cross_entropy,
    l2_regularisation,
    mae,
    mse,
)
from repro.ml.layers import Dense, Parameter
from repro.ml.models import MLP, resnet_small
from tests.test_ml_tensor import check_grad

rng = np.random.default_rng(1)


class TestGRU:
    def test_cell_shapes(self):
        cell = GRUCell(3, 5, rng=np.random.default_rng(0))
        h = cell(Tensor(rng.normal(size=(2, 3))), Tensor(np.zeros((2, 5))))
        assert h.shape == (2, 5)

    def test_layer_last_state(self):
        gru = GRU(3, 4, rng=np.random.default_rng(0))
        out = gru(Tensor(rng.normal(size=(2, 6, 3))))
        assert out.shape == (2, 4)

    def test_layer_sequences(self):
        gru = GRU(3, 4, return_sequences=True,
                  rng=np.random.default_rng(0))
        out = gru(Tensor(rng.normal(size=(2, 6, 3))))
        assert out.shape == (2, 6, 4)

    def test_hidden_bounded_by_tanh(self):
        gru = GRU(2, 3, rng=np.random.default_rng(0))
        out = gru(Tensor(rng.normal(size=(4, 20, 2)) * 5))
        assert np.abs(out.data).max() <= 1.0 + 1e-9

    def test_zero_input_zero_initial_state_stays_bounded(self):
        gru = GRU(2, 3, rng=np.random.default_rng(0))
        out = gru(Tensor(np.zeros((1, 5, 2))))
        assert np.isfinite(out.data).all()

    def test_gradients_flow_through_time(self):
        gru = GRU(2, 3, rng=np.random.default_rng(5))
        x = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        (gru(x) ** 2).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad[:, 0, :]).sum() > 0  # reaches the first step

    def test_gradient_check_small(self):
        gru = GRU(2, 3, rng=np.random.default_rng(5))

        def build(x):
            return (gru(x) ** 2).sum()

        check_grad(build, rng.normal(size=(1, 3, 2)), atol=1e-4)

    def test_a_float32_gru_stays_float32(self):
        """The zero initial state takes the input's dtype: a float64 one
        made the output and ``U.grad`` float64."""
        gru = GRU(2, 3, return_sequences=True, rng=np.random.default_rng(5))
        for p in gru.parameters():
            p.data = p.data.astype(np.float32)
        x = Tensor(rng.normal(size=(2, 4, 2)).astype(np.float32),
                   requires_grad=True)
        out = gru(x)
        (out ** 2).sum().backward()
        assert out.dtype == np.float32
        assert [t.grad.dtype for t in (x, *gru.parameters())] == [
            np.float32] * 4


class TestLosses:
    @pytest.mark.parametrize("loss_fn", [mse, mae])
    def test_float64_targets_keep_a_float32_model_in_float32(self, loss_fn):
        rng = np.random.default_rng(0)
        model = MLP([4, 6, 1], seed=0)
        for p in model.parameters():
            p.data = p.data.astype(np.float32)
        x = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        loss = loss_fn(model(x), rng.normal(size=(5, 1)))   # float64
        loss.backward()
        assert loss.dtype == np.float32
        assert [p.grad.dtype for p in model.parameters()] == [
            np.float32] * len(model.parameters())

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3))

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.eye(3) * 100)
        loss = cross_entropy(logits, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient(self):
        labels = np.array([0, 2, 1])
        check_grad(lambda a: cross_entropy(a, labels),
                   rng.normal(size=(3, 3)))

    def test_mse_and_mae_values(self):
        pred = Tensor(np.array([[1.0], [3.0]]))
        target = np.array([[0.0], [0.0]])
        assert mse(pred, target).item() == pytest.approx(5.0)
        assert mae(pred, target).item() == pytest.approx(2.0)

    @pytest.mark.parametrize("build", [
        lambda: (MLP([6, 8, 3], seed=0), (5, 6)),
        lambda: (resnet_small(in_channels=2, n_classes=3, seed=0),
                 (5, 2, 8, 8)),
    ], ids=["mlp", "resnet_small"])
    def test_a_float32_classifier_stays_float32(self, build):
        """The one-hot takes the logits' dtype: a float64 one made the
        loss and every parameter's gradient float64."""
        model, shape = build()
        for p in model.parameters():
            p.data = p.data.astype(np.float32)
        out = model(Tensor(rng.normal(size=shape).astype(np.float32)))
        loss = cross_entropy(out, np.array([0, 1, 2, 0, 1]))
        loss.backward()
        assert (out.dtype, loss.dtype) == (np.float32, np.float32)
        assert {p.grad.dtype for p in model.parameters()} == {
            np.dtype(np.float32)}

    def test_a_float32_resnet_stays_float32_in_eval_mode(self):
        """Eval-mode BatchNorm reads its float64 running statistics in the
        input's dtype: they made a float32 model's logits float64."""
        model = resnet_small(in_channels=2, n_classes=3, seed=0)
        for p in model.parameters():
            p.data = p.data.astype(np.float32)
        model.eval()
        out = model(Tensor(rng.normal(size=(5, 2, 8, 8)).astype(np.float32)))
        assert out.dtype == np.float32

    def test_l2_regularisation(self):
        params = [Parameter(np.array([3.0, 4.0]))]
        assert l2_regularisation(params, 0.1).item() == pytest.approx(2.5)
        assert l2_regularisation([], 0.1).item() == 0.0


class TestOptimisers:
    def _quadratic(self, opt_factory, steps=200):
        """Minimise ||x - 3||²; returns final x."""
        p = Parameter(np.array([0.0]))
        opt = opt_factory([p])
        for _ in range(steps):
            loss = ((p - 3.0) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return float(p.data[0])

    def test_sgd_converges(self):
        assert self._quadratic(lambda ps: SGD(ps, lr=0.1)) == pytest.approx(3.0, abs=1e-4)

    def test_adam_converges(self):
        assert self._quadratic(
            lambda ps: Adam(ps, lr=0.1), steps=400) == pytest.approx(3.0, abs=1e-3)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_none_grads_skipped(self):
        p1 = Parameter(np.zeros(2))
        p2 = Parameter(np.zeros(2))
        opt = SGD([p1, p2], lr=0.1)
        p1.grad = np.ones(2)
        opt.step()
        np.testing.assert_array_equal(p2.data, 0.0)
        assert (p1.data != 0).all()

    def test_step_count(self):
        opt = Adam([Parameter(np.zeros(1))], lr=0.1)
        opt.step()
        opt.step()
        assert opt.step_count == 2
