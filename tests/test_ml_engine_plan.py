"""Lazy ≡ eager to the bit, with gradients, and what a step keeps alive.

``Device.realize`` runs every pending node's executor once and caches its
result, so a lazy training step computes what eager does, ufunc for
ufunc.  These tests pin the outcome on the three e2e models (losses,
every gradient and the final weights, bytes equal), on forward graphs
with shared, aliased and already-realized operands, and that saved
activations die with the loss.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.ml.engine import collect, set_engine
from repro.ml.losses import cross_entropy, l2_regularisation, mae
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.ml.optim import SGD, Adam
from repro.ml.tensor import Tensor


@pytest.fixture(autouse=True)
def _lazy():
    set_engine("lazy")
    yield
    set_engine("eager")


def _bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view(np.uint8)


# -- the three training steps of the e2e workload, small ---------------------

def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(48, 12)), rng.integers(0, 3, size=48)
    model = MLP([12, 16, 3], seed=seed)
    opt = Adam(model.parameters(), lr=1e-3)

    def step(i):
        lo = (i * 16) % 48
        return cross_entropy(model(Tensor(X[lo:lo + 16])), y[lo:lo + 16])
    return model, opt, step


def _gru(seed=0):
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(24, 6, 5)), rng.normal(size=(24,))
    model = GruForecaster(5, hidden=8, seed=seed)
    opt = Adam(model.parameters(), lr=5e-3)

    def step(i):
        lo = (i * 8) % 24
        return mae(model(Tensor(X[lo:lo + 8])), y[lo:lo + 8]) \
            + l2_regularisation(model.regularised_parameters(), 1e-5)
    return model, opt, step


def _resnet(seed=0):
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(12, 3, 8, 8)), rng.integers(0, 4, size=12)
    model = resnet_small(in_channels=3, n_classes=4, seed=seed)
    opt = SGD(model.parameters(), lr=0.05)

    def step(i):
        lo = (i * 4) % 12
        return cross_entropy(model(Tensor(X[lo:lo + 4])), y[lo:lo + 4])
    return model, opt, step


def _train(build, steps=5):
    """Losses, per-step gradients and final weights of ``steps`` steps."""
    model, opt, step = build()
    losses, grads = [], []
    for i in range(steps):
        loss = step(i)
        opt.zero_grad()
        loss.backward()
        grads.append([p.grad.copy() for p in model.parameters()])
        opt.step()
        losses.append(loss.item())
    return losses, grads, {k: v.copy() for k, v in model.state_dict().items()}


class TestReplay:
    @pytest.mark.parametrize("build", [_mlp, _gru, _resnet])
    def test_eager_and_lazy_agree_to_the_bit_without_recompute(self, build):
        set_engine("eager")
        e_losses, e_grads, e_weights = _train(build)
        set_engine("lazy")
        with collect() as stats:
            l_losses, l_grads, l_weights = _train(build)
        assert stats.recomputes == 0 and stats.realizes > 0
        assert e_losses == l_losses
        for eg, lg in zip(e_grads, l_grads):
            for a, b in zip(eg, lg):
                assert np.array_equal(_bits(a), _bits(b))
        for name in e_weights:
            assert np.array_equal(_bits(e_weights[name]),
                                  _bits(l_weights[name])), name


class TestForwardGraphs:
    """Forward-only graphs: shared interiors, reduce epilogues, movement,
    one array read twice, an ancestor realized in between."""

    rng = np.random.default_rng(5)
    xs, ws = rng.standard_normal((12, 12)), rng.standard_normal((12, 12))
    b = rng.standard_normal((12,))

    def _diamond(self):
        x, w = Tensor(self.xs), Tensor(self.ws)
        h = x @ w + 1.0
        return ((h * 2.0).tanh().relu() + h.sigmoid()).sum(axis=1)

    def _mlp_forward(self):
        x, w, bias = Tensor(self.xs), Tensor(self.ws), Tensor(self.b)
        h = (x @ w + bias).relu()
        z = h @ w + bias
        z = z - z.max()
        return (z.exp() / z.exp().sum(axis=1, keepdims=True)).log().mean()

    def _norm(self):
        x = Tensor(self.xs.astype(np.float32))

        def mean(t):    # over axis 0, kept: the graph Tensor.mean built
            return t.sum(axis=0, keepdims=True) * (1.0 / float(len(self.xs)))

        mu = mean(x)
        centred = x - mu
        var = mean((x - mean(x)) ** 2)
        return (centred / (var + 1e-5) ** 0.5).abs().transpose()

    def _aliased(self):
        x = Tensor(self.b)
        return (x * x + 1.0) - (x * Tensor(self.b.copy()) + 1.0)

    def _realized_ancestor(self):
        h = Tensor(self.b) * 2.0
        out = h.tanh() + h
        h.numpy()
        return out * 0.5

    def _two_pending_products(self):
        u, v = Tensor(self.b) * 2.0, Tensor(self.b[::-1].copy()) * 2.0
        return (u * v + 1.0) + (u * u + 1.0)

    def _zero_d_size(self):     # a valid size that is not hashable
        return Tensor(self.xs).reshape(np.array(144)) * 2.0

    def _partial_batches(self):
        model = MLP([12, 8, 3], seed=1).eval()
        return [model(Tensor(self.xs[lo:lo + 5])) for lo in (0, 5, 10)]

    @pytest.mark.parametrize("graph", ["_diamond", "_mlp_forward", "_norm",
                                       "_aliased", "_realized_ancestor",
                                       "_two_pending_products",
                                       "_zero_d_size", "_partial_batches"])
    def test_lazy_forward_is_eager_to_the_bit(self, graph):
        out = getattr(self, graph)()
        lazy = [t.numpy() for t in (out if isinstance(out, list) else [out])]
        set_engine("eager")
        out = getattr(self, graph)()
        eager = [t.numpy() for t in (out if isinstance(out, list) else [out])]
        for e, lz in zip(eager, lazy):
            assert e.dtype == lz.dtype and e.shape == lz.shape
            assert np.array_equal(_bits(e), _bits(lz))


class TestLifetime:
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_saved_activations_die_with_the_loss_not_with_the_gc(self, mode):
        set_engine(mode)
        gc.disable()
        try:
            x = Tensor(np.full((8, 8), 0.3), requires_grad=True)
            act = (x * 2.0).tanh()
            loss = (act.relu() @ x).sum()
            loss.backward()
            kept = weakref.ref(act.data)        # what tanh's backward read
            del act, loss
            assert kept() is None               # no reference cycle held it
        finally:
            gc.enable()
