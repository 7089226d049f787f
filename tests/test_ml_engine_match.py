"""The e2e training loop on both engines: eager ≡ lazy to the bit.

The ``train_lazy`` triple-step, a partial last batch, a layer frozen
mid-run, float64 scalars beside a float32 model and two SPMD ranks
training at once each give the same losses, gradients and weights on
both engines, byte for byte.
"""

import numpy as np
import pytest

from repro.datasets import (BigEarthNetConfig, IcuCohort, IcuConfig,
                            SyntheticBigEarthNet, make_imputation_windows)
from repro.ml.data import ArrayDataset, DataLoader
from repro.ml.engine import set_engine
from repro.ml.losses import cross_entropy, l2_regularisation, mae
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.ml.optim import SGD, Adam
from repro.ml.tensor import Tensor
from repro.mpi.runtime import run_spmd


@pytest.fixture(autouse=True)
def _eager_after():
    yield
    set_engine("eager")


def _bytes(arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _run(mode: str, build, steps: int):
    """``build() -> (models, step(i) -> [(model, loss)])``; returns the
    losses, per-step gradients and final weights as bytes."""
    set_engine(mode)
    models, step = build()
    losses, grads = [], []
    for i in range(steps):
        for model, opt, loss in step(i):
            opt.zero_grad()
            loss.backward()
            grads.append(_bytes(p.grad for p in model.parameters()
                                if p.grad is not None))
            opt.step()
            losses.append(np.float64(loss.item()).tobytes())
    weights = [_bytes(m.state_dict()[k] for k in sorted(m.state_dict()))
               for m in models]
    set_engine("eager")
    return losses, grads, weights


def _eager_equals_lazy(build, steps: int) -> None:
    eager = _run("eager", build, steps)
    lazy = _run("lazy", build, steps)
    for e, lz in zip(eager, lazy):
        assert e == lz


# -- the e2e triple-step: ResNet-small, GRU forecaster, MLP interleaved -------

def _cycle(loader):
    epoch = 0
    while True:
        loader.set_epoch(epoch)
        epoch += 1
        yield from loader


def _triple(seed=0):
    """``train_lazy``'s models, optimizers, batch sizes and seeds."""
    X, y = SyntheticBigEarthNet(BigEarthNetConfig(
        n_samples=160, patch_size=8, n_classes=4, seed=seed)).generate()
    cohort = IcuCohort(IcuConfig(n_patients=30, seed=seed, min_hours=30,
                                 max_hours=60)).generate()
    Xi, yi, _ = make_imputation_windows(cohort, window=8, target_channel=1)
    rng = np.random.default_rng(seed)
    Xm, ym = rng.normal(size=(640, 64)), rng.integers(0, 10, size=640)
    resnet = resnet_small(in_channels=12, n_classes=4, seed=seed)
    gru = GruForecaster(Xi.shape[2], hidden=32, seed=seed)
    mlp = MLP([64, 128, 128, 10], seed=seed)
    runs = [
        (resnet, Adam(resnet.parameters(), lr=3e-3),
         _cycle(DataLoader(ArrayDataset(X, y), 20, seed=seed,
                           drop_last=True))),
        (gru, Adam(gru.parameters(), lr=5e-3),
         _cycle(DataLoader(ArrayDataset(Xi, yi), 64, seed=seed,
                           drop_last=True))),
        (mlp, Adam(mlp.parameters(), lr=1e-3),
         _cycle(DataLoader(ArrayDataset(Xm, ym), 64, seed=seed,
                           drop_last=True))),
    ]

    def step(i):
        for model, opt, batches in runs:
            xb, yb = next(batches)
            pred = model(Tensor(xb))
            if model is gru:
                loss = mae(pred, yb) + l2_regularisation(
                    model.regularised_parameters(), 1e-5)
            else:
                loss = cross_entropy(pred, yb)
            yield model, opt, loss
    return [resnet, gru, mlp], step


def test_e2e_triple_step_is_bit_identical():
    _eager_equals_lazy(_triple, steps=4)


# -- legs that change the graph between steps ----------------------------------

def _mlp_on(loader_rows: int, batch: int, drop_last: bool, freeze_at=None):
    def build():
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(loader_rows, 12)), rng.integers(0, 3,
                                                                loader_rows)
        model = MLP([12, 16, 3], seed=3)
        opt = SGD(model.parameters(), lr=0.05)
        batches = _cycle(DataLoader(ArrayDataset(X, y), batch, seed=3,
                                    drop_last=drop_last))

        def step(i):
            if i == freeze_at:
                for p in model.layers[0].parameters():
                    p.requires_grad = False
            xb, yb = next(batches)
            yield model, opt, cross_entropy(model(Tensor(xb)), yb)
        return [model], step
    return build


def test_a_partial_last_batch_is_bit_identical():
    # 40 rows in batches of 16: 16, 16, 8 per epoch, two epochs.
    _eager_equals_lazy(_mlp_on(40, 16, drop_last=False), steps=6)


def test_freezing_a_layer_mid_run_is_bit_identical():
    _eager_equals_lazy(_mlp_on(48, 16, drop_last=True, freeze_at=3), steps=6)


def _scalar_steps(op, first, then):
    """A float32 parameter scaled by ``first`` for two steps, ``then``
    after: ``x * c`` or ``x ** c``."""
    def build():
        x = Tensor(np.linspace(0.5, 1.5, 12, dtype=np.float32),
                   requires_grad=True)
        holder = _Holder(x)

        def step(i):
            c = first if i < 2 else then
            out = x * c if op == "mul" else x ** c
            yield holder, SGD([x], lr=0.01), (out.tanh()).sum()
        return [holder], step
    return build


class _Holder:
    """The one-parameter "model" of :func:`_scalar_steps`."""

    def __init__(self, x):
        self.x = x

    def parameters(self):
        return [self.x]

    def state_dict(self):
        return {"x": self.x.data}


def test_a_float64_scalar_operand_is_the_same_float32_graph():
    # A scalar operand adopts the tensor's dtype (weak promotion) whatever
    # its type, so the graph stays float32.
    set_engine("lazy")
    x = Tensor(np.linspace(0.5, 1.5, 12, dtype=np.float32))
    assert (x * np.float64(2.0)).dtype == (x * 2.0).dtype == np.float32
    _eager_equals_lazy(_scalar_steps("mul", 2.0, np.float64(2.0)), steps=4)


def test_a_float64_scalar_exponent_upcasts_on_both_engines():
    # A kwarg keeps its type: np.float64(2.0) upcasts a float32 base.
    _eager_equals_lazy(_scalar_steps("pow", 2.0, np.float64(2.0)), steps=4)


def test_two_spmd_ranks_training_at_once_match_the_single_rank_bits():
    build = _mlp_on(48, 16, drop_last=True)
    single = _run("eager", build, steps=4)
    set_engine("lazy")

    def rank(comm):
        models, step = build()
        losses = []
        for i in range(4):
            for model, opt, loss in step(i):
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(np.float64(loss.item()).tobytes())
            comm.barrier()
        m = models[0]
        return losses, _bytes(m.state_dict()[k] for k in sorted(m.state_dict()))

    per_rank = run_spmd(rank, 2)
    for losses, weights in per_rank:
        assert losses == single[0]
        assert [weights] == single[2]
