"""Match, then lookup-or-compile: a realize in steady state walks nothing.

Every recorded op is interned under its entry (sig + what feeds it), and
a realize whose root's entry carries a binding that still fits replays
that binding's plan without walking the graph (``graph_walks`` counts the
realizes that did walk).  These tests pin the outcome on the e2e
training loop — eager ≡ lazy to the bit, no walk after the first
triple-step — each way a step can stop matching (each falls back to one
walk and stays bit-identical), the binding checks one by one, and that
the matcher keeps no array and no graph node alive.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.datasets import (BigEarthNetConfig, IcuCohort, IcuConfig,
                            SyntheticBigEarthNet, make_imputation_windows)
from repro.ml import engine
from repro.ml.data import ArrayDataset, DataLoader
from repro.ml.engine import collect, set_engine
from repro.ml.engine import graph as engine_graph
from repro.ml.engine.graph import Binding, Entry, LazyExpr
from repro.ml.losses import cross_entropy, l2_regularisation, mae
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.ml.optim import SGD, Adam
from repro.ml.tensor import Tensor
from repro.mpi.runtime import run_spmd


@pytest.fixture(autouse=True)
def _cold():
    engine_graph._ENTRIES.clear()           # the entries own every plan
    yield
    set_engine("eager")
    engine_graph._ENTRIES.clear()


def _bytes(arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _run(mode: str, build, steps: int):
    """``build() -> (models, step(i) -> [(model, loss)])``; returns the
    losses, per-step gradients and final weights as bytes, and the
    ``graph_walks`` of each step (lazy only)."""
    set_engine(mode)
    models, step = build()
    losses, grads, walks = [], [], []
    for i in range(steps):
        with collect() as stats:
            for model, opt, loss in step(i):
                opt.zero_grad()
                loss.backward()
                grads.append(_bytes(p.grad for p in model.parameters()
                                    if p.grad is not None))
                opt.step()
                losses.append(np.float64(loss.item()).tobytes())
        walks.append(stats.graph_walks)
    weights = [_bytes(m.state_dict()[k] for k in sorted(m.state_dict()))
               for m in models]
    set_engine("eager")
    return losses, grads, weights, walks


def _eager_equals_lazy(build, steps: int) -> list[int]:
    *eager, eager_walks = _run("eager", build, steps)
    *lazy, walks = _run("lazy", build, steps)
    assert eager_walks == [0] * steps
    for e, lz in zip(eager, lazy):
        assert e == lz
    return walks


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


def test_e2e_triple_step_is_bit_identical_and_walks_only_in_warm_up():
    walks = _eager_equals_lazy(_triple, steps=4)
    assert walks[0] > 0
    assert walks[1:] == [0, 0, 0]


# -- fallback legs: each mismatch walks once, then matches again -------------

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


def test_a_partial_last_batch_walks_once_then_matches():
    # 40 rows in batches of 16: 16, 16, 8 per epoch, two epochs.
    walks = _eager_equals_lazy(_mlp_on(40, 16, drop_last=False), steps=6)
    assert walks == [1, 0, 1, 0, 0, 0]


def test_freezing_a_layer_mid_run_walks_once_then_matches():
    # The requires-grad pattern flips, so do the values marked saved.
    walks = _eager_equals_lazy(_mlp_on(48, 16, drop_last=True, freeze_at=3),
                               steps=6)
    assert walks == [1, 0, 0, 1, 0, 0]


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
    # its type, so the graph does not change and nothing walks.
    walks = _eager_equals_lazy(
        _scalar_steps("mul", 2.0, np.float64(2.0)), steps=4)
    assert walks == [1, 0, 0, 0]


def test_a_float64_scalar_exponent_walks_once():
    # A kwarg keeps its type: np.float64(2.0) upcasts a float32 base.
    walks = _eager_equals_lazy(
        _scalar_steps("pow", 2.0, np.float64(2.0)), steps=4)
    assert walks == [1, 0, 1, 0]


def test_two_spmd_ranks_training_at_once_match_the_single_rank_bits():
    build = _mlp_on(48, 16, drop_last=True)
    *single, _ = _run("eager", build, steps=4)
    walks_after = []
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
            if comm.rank == 0:
                walks_after.append(engine.STATS.graph_walks)
            comm.barrier()
        m = models[0]
        return losses, _bytes(m.state_dict()[k] for k in sorted(m.state_dict()))

    with collect():
        per_rank = run_spmd(rank, 2)
    assert walks_after[0] > 0                            # warm-up
    assert walks_after[1:] == [walks_after[0]] * 3       # then none
    for losses, weights in per_rank:
        assert losses == single[0]
        assert [weights] == single[2]


# -- the binding checks, one at a time ---------------------------------------

def _walks(fn) -> tuple[int, np.ndarray]:
    with collect() as stats:
        out = fn()
    return stats.graph_walks, out


class TestBindingChecks:
    x = np.linspace(-1.0, 1.0, 6)
    y = np.linspace(2.0, 3.0, 6)

    def setup_method(self):
        set_engine("lazy")

    @staticmethod
    def _prod(a: Tensor, b: Tensor) -> np.ndarray:
        return (a * b + 1.0).numpy()

    def test_one_tensor_read_twice_is_not_two_inputs(self):
        assert _walks(lambda: self._prod(Tensor(self.x), Tensor(self.y)))[0] == 1
        t = Tensor(self.x)
        walks, out = _walks(lambda: self._prod(t, t))
        assert walks == 1 and np.array_equal(out, self.x * self.x + 1.0)

    def test_two_inputs_are_not_one_tensor_read_twice(self):
        t = Tensor(self.x)
        assert _walks(lambda: self._prod(t, t))[0] == 1
        walks, out = _walks(lambda: self._prod(Tensor(self.x), Tensor(self.y)))
        assert walks == 1 and np.array_equal(out, self.x * self.y + 1.0)
        walks, out = _walks(lambda: self._prod(t, t))
        assert walks == 1 and np.array_equal(out, self.x * self.x + 1.0)

    def test_two_pending_nodes_under_one_entry_are_two_nodes(self):
        def prod(two):
            u = Tensor(self.x) * 2.0
            v = Tensor(self.y) * 2.0 if two else u   # v's entry is u's
            return (u * v + 1.0).numpy()
        assert _walks(lambda: prod(False))[0] == 1
        walks, out = _walks(lambda: prod(True))
        assert walks == 1
        np.testing.assert_array_equal(out, (self.x * 2.0) * (self.y * 2.0)
                                      + 1.0)

    def test_a_root_marked_saved_walks(self):
        def root(saved):
            x = Tensor(self.y, requires_grad=True)
            h = x * 2.0
            if saved:
                h.log()                      # log's backward reads h
            return _walks(h.numpy)[0]
        assert root(False) == 1
        assert root(False) == 0
        assert root(True) == 1

    def test_an_input_realized_in_between_walks(self):
        def chain(realize_h):
            h = Tensor(self.x) * 2.0
            out = (h + 1.0).sum()
            if realize_h:
                h.numpy()
            return out.numpy()
        assert _walks(lambda: chain(False))[0] == 1
        assert _walks(lambda: chain(False))[0] == 0
        walks, out = _walks(lambda: chain(True))
        assert walks == 2 and out == (self.x * 2.0 + 1.0).sum()
        walks, out = _walks(lambda: chain(False))
        assert walks == 1 and out == (self.x * 2.0 + 1.0).sum()
        assert _walks(lambda: chain(False))[0] == 0

    def test_a_changed_saved_mark_walks(self):
        def step(grad):
            x = Tensor(self.x, requires_grad=grad)
            return (x * Tensor(self.y)).tanh().sum().numpy()
        assert _walks(lambda: step(False))[0] == 1
        assert _walks(lambda: step(False))[0] == 0
        assert _walks(lambda: step(True))[0] == 1
        assert _walks(lambda: step(True))[0] == 0
        assert _walks(lambda: step(False))[0] == 1

    def test_a_saved_interior_is_kept_by_a_plan_of_its_own(self):
        def graph(requires_grad):
            x = Tensor(np.full(8, 0.3), requires_grad=requires_grad)
            return (x * 2.0).tanh().relu().sum()
        plain, grad = graph(False), graph(True)    # under the same entries
        with collect() as stats:
            plain.numpy()
            unsaved_allocs = stats.kernel_allocs
            grad.numpy()
        # Same single kernel, walked twice; the saved tanh input/output
        # cost buffers the unsaved chain reused.
        assert stats.kernels == 2 and stats.graph_walks == 2
        assert stats.kernel_allocs - unsaved_allocs > unsaved_allocs
        assert float(plain.data) == float(grad.data)

    def test_a_kwarg_of_another_type_is_another_graph(self):
        # NumPy tells ``2.0`` from ``np.float64(2.0)`` (the latter upcasts
        # a float32 base) and from ``2``, though all three compare equal.
        x32 = np.linspace(0.1, 2.0, 8, dtype=np.float32)
        for c in (2.0, np.float64(2.0), 2):
            walks, out = _walks(lambda: (Tensor(x32) ** c).numpy())
            assert walks == 1
            assert out.dtype == (x32 ** c).dtype
            assert out.tobytes() == (x32 ** c).tobytes()

    def test_an_unhashable_kwarg_walks_every_time(self):
        x = np.arange(6.0).reshape(2, 3)
        size = np.array(6)                  # a 0-d array: a valid, unhashable size
        for _ in range(2):
            walks, out = _walks(lambda: Tensor(x).reshape(size).numpy())
            assert walks == 1
            np.testing.assert_array_equal(out, x.reshape(6))


# -- what the matcher holds ----------------------------------------------------

def test_the_matcher_holds_no_array_and_no_graph_node():
    set_engine("lazy")
    build = _mlp_on(48, 16, drop_last=True)
    models, step = build()
    arrays = []
    for i in range(2):
        for model, opt, loss in step(i):
            opt.zero_grad()
            loss.backward()
            opt.step()
            loss.item()
            arrays.append(weakref.ref(loss.data))
    del loss, models, step, model, opt
    gc.collect()
    assert [a() for a in arrays] == [None, None]

    seen: set[int] = set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        assert not isinstance(obj, (np.ndarray, LazyExpr, Tensor))
        if isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(k)
                walk(v)
        elif isinstance(obj, Entry):
            walk((obj.kind, obj.shape, obj.dtype, obj.binding))
        elif isinstance(obj, Binding):
            walk(tuple(obj))
    walk(engine_graph._ENTRIES)
    assert any(isinstance(e, Entry) and e.binding
               for e in engine_graph._ENTRIES.values())
    assert isinstance(engine_graph._counter, threading.local)
    assert set(vars(engine_graph._counter)) == {"seq"}
