"""Plan capture and saved-for-backward outputs of the lazy engine.

``Device.realize`` replays the plan its root's entry binding carries,
and walks and compiles one when none fits; ``Tensor`` marks what
backward closures read so fused kernels keep it.  These tests pin the
key (which graphs share an entry and which a plan), the cache (bounded,
no array references, shared by rank threads, per device) and the
outcome (second step compiles nothing, nothing is recomputed, lazy ==
eager to the bit with gradients); ``test_ml_engine_match.py`` pins the
binding checks one by one.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.ml import engine
from repro.ml.engine import (collect, get_device, register_device,
                             set_engine, use_device)
from repro.ml.engine import cpu as engine_cpu
from repro.ml.engine import graph as engine_graph
from repro.ml.engine.cpu import CpuDevice
from repro.ml.engine.graph import LazyExpr
from repro.ml.losses import cross_entropy, l2_regularisation, mae
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.ml.optim import SGD, Adam
from repro.ml.tensor import Tensor
from repro.mpi.runtime import run_spmd


@pytest.fixture(autouse=True)
def _lazy_on_a_cold_cpu_device():
    register_device("cpu", CpuDevice)       # fresh instance, no plans
    set_engine("lazy")
    yield
    set_engine("eager")
    register_device("cpu", CpuDevice)


def _bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view(np.uint8)


def _entry(t: Tensor):
    """The entry ``t``'s node is recorded under."""
    return t._payload().entry


def _plan(t: Tensor) -> tuple:
    """The plan ``t``'s realize bound to its entry."""
    return _entry(t).binding.plan


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
    def test_second_identical_step_compiles_and_schedules_nothing(
            self, monkeypatch):
        calls = []
        real = engine_cpu.schedule
        monkeypatch.setattr(engine_cpu, "schedule",
                            lambda root: calls.append(root) or real(root))
        model, opt, step = _mlp()

        def one(i):
            with collect() as stats:
                loss = step(i)
                opt.zero_grad()
                loss.backward()
                opt.step()
                loss.item()
            return stats.snapshot()

        first = one(0)
        assert first["graph_walks"] == len(calls) > 0
        del calls[:]
        second = one(1)
        assert second["graph_walks"] == 0 and calls == []
        assert second["realizes"] > 0
        # A miss compiles and then replays through the same loop: the
        # two steps did the same work.
        for name in ("kernels", "fused_ops", "kernel_allocs",
                     "kernel_alloc_bytes", "realizes", "recomputes"):
            assert first[name] == second[name], name

    @pytest.mark.parametrize("build", [_mlp, _gru, _resnet])
    def test_eager_and_lazy_agree_to_the_bit_without_recompute(self, build):
        set_engine("eager")
        e_losses, e_grads, e_weights = _train(build)
        set_engine("lazy")
        with collect() as stats:
            l_losses, l_grads, l_weights = _train(build)
        assert stats.recomputes == 0
        # Five steps, one structure: what compiled, compiled in step one.
        assert stats.graph_walks <= stats.realizes // 5
        assert e_losses == l_losses
        for eg, lg in zip(e_grads, l_grads):
            for a, b in zip(eg, lg):
                assert np.array_equal(_bits(a), _bits(b))
        for name in e_weights:
            assert np.array_equal(_bits(e_weights[name]),
                                  _bits(l_weights[name])), name

    def test_no_compiles_after_the_first_step(self):
        model, opt, step = _gru()
        compiles = []
        for i in range(4):
            with collect() as stats:
                loss = step(i)
                opt.zero_grad()
                loss.backward()
                opt.step()
            compiles.append(stats.graph_walks)
        assert compiles[0] > 0 and compiles[1:] == [0, 0, 0]

    def test_explicit_batches_hit_the_plan_from_batch_two(self):
        model = MLP([6, 8, 3], seed=1).eval()
        X = np.random.default_rng(0).normal(size=(32, 6))
        seen = []
        lazy = np.empty((len(X), 3))
        with collect():
            for idx in np.arange(len(X)).reshape(4, 8):
                lazy[idx] = model(Tensor(X[idx])).numpy()
                seen.append(engine.STATS.graph_walks)
        assert seen[0] > 0 and seen == [seen[0]] * 4
        set_engine("eager")
        assert np.array_equal(_bits(lazy), _bits(model(Tensor(X)).numpy()))


class TestKey:
    """Nodes recorded alike share an entry; a realize under it replays
    the entry's plan only when its binding still fits."""

    @staticmethod
    def _f(x):
        return ((x * 2.0 + 1.0).tanh()).sum(axis=0)

    def test_same_structure_same_key(self):
        a = self._f(Tensor(np.ones((16, 8))))
        b = self._f(Tensor(np.zeros((16, 8))))
        assert _entry(a) is _entry(b)
        with collect() as stats:
            a.numpy(), b.numpy()
        assert (stats.graph_walks, stats.realizes) == (1, 2)
        assert _plan(a) is _plan(b)
        for t, x in ((a, np.ones((16, 8))), (b, np.zeros((16, 8)))):
            np.testing.assert_array_equal(
                t.numpy(), np.tanh(x * 2.0 + 1.0).sum(axis=0))

    def test_last_partial_batch_gets_its_own_plan(self):
        full = self._f(Tensor(np.ones((16, 8))))
        part = self._f(Tensor(np.ones((7, 8))))
        assert _entry(full) is not _entry(part)
        with collect() as stats:
            full.numpy()
            assert part.numpy().shape == (8,)
        assert stats.graph_walks == 2
        assert _plan(full) is not _plan(part)
        np.testing.assert_array_equal(
            part.numpy(), np.tanh(np.ones((7, 8)) * 2.0 + 1.0).sum(axis=0))

    def test_aliased_operand_differs_from_two_operands(self):
        # Both products read realized arrays of one shape, so they share
        # an entry; the binding tells one array read twice from two.
        x, y = Tensor(np.full(4, 3.0)), Tensor(np.full(4, 3.0))
        xx, xy = (x * x) + 1.0, (x * y) + 1.0
        assert _entry(xx) is _entry(xy)
        with collect() as stats:
            xx.numpy()
            aliased = _entry(xx).binding
            xy.numpy()
            two = _entry(xy).binding
        assert stats.graph_walks == 2
        assert aliased is not two and aliased.external != two.external
        np.testing.assert_array_equal(xx.numpy(), xy.numpy())

    def test_realized_ancestor_differs_from_pending_one(self):
        def graph():
            h = Tensor(np.full(4, 0.5)) * 2.0
            return h, h.tanh() + h
        _, pending = graph()
        h, realized = graph()
        assert _entry(pending) is _entry(realized)
        with collect() as stats:
            pending.numpy()
            kept_pending = _entry(pending).binding
            h.numpy()
            realized.numpy()
            kept_realized = _entry(realized).binding
        assert stats.graph_walks == 3           # pending, h, realized
        # The realized ``h`` is read as an input, not computed again.
        assert kept_realized is not kept_pending
        assert len(kept_realized.topo) < len(kept_pending.topo)
        np.testing.assert_array_equal(pending.numpy(), realized.numpy())


class TestForwardOnlyMatchesParent:
    """Graphs without ``requires_grad`` mark nothing, so kernel lists and
    allocations are exactly the pre-plan-capture engine's (values captured
    from commit 8f5389c)."""

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
        mu = x.mean(axis=0, keepdims=True)
        centred = x - mu
        var = ((x - x.mean(axis=0, keepdims=True)) ** 2).mean(axis=0,
                                                             keepdims=True)
        return (centred / (var + 1e-5) ** 0.5).abs().transpose()

    @pytest.mark.parametrize("graph, kernels, allocs, alloc_bytes", [
        ("_diamond", ["matmul", "add", "sigmoid+mul+tanh+relu+add+sum"],
         5, 4704),
        ("_mlp_forward", ["matmul", "add+relu", "matmul", "add", "max",
                          "neg+add", "exp+sum", "exp+div+log+sum", "mul"],
         12, 8368),
        ("_norm", ["sum", "mul+neg+add+pow+sum", "sum",
                   "mul+add+pow+mul+neg+add+div+abs", "transpose"],
         8, 1440),
    ])
    def test_kernel_list_and_allocations(self, graph, kernels, allocs,
                                         alloc_bytes):
        for _ in range(2):                  # compiled, then replayed
            with telemetry.capture() as (tracer, _), collect() as stats:
                getattr(self, graph)().numpy()
            names = [s.name[len("kernel:"):] for s in tracer.spans
                     if s.name.startswith("kernel:")]
            assert names == kernels
            assert stats.kernel_allocs == allocs
            assert stats.kernel_alloc_bytes == alloc_bytes


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


class TestCache:
    """The entry table is the one cache: each entry memoizes an op's
    inferred kind, shape and dtype, and its binding holds a plan."""

    @staticmethod
    def _chain(n):
        return (Tensor(np.ones(n)) * 2.0 + 1.0).numpy()

    def test_plans_hold_no_arrays_or_graph_nodes(self):
        arr = np.full((8, 8), 0.25)
        x = Tensor(arr, requires_grad=True)
        y = ((x * 2.0).tanh() @ x).relu().sum()
        y.backward()
        refs = [weakref.ref(arr), weakref.ref(y.data), weakref.ref(x.grad)]
        del arr, x, y
        gc.collect()
        assert [r() for r in refs] == [None] * 3
        bindings = [e.binding for e in engine_graph._ENTRIES.values()
                    if e.binding is not None]
        assert bindings

        def walk(obj):
            assert not isinstance(obj, (np.ndarray, LazyExpr, Tensor))
            if isinstance(obj, (tuple, list)):
                for item in obj:
                    walk(item)
        walk(bindings)

    def test_cache_and_inference_memo_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(engine_graph, "_ENTRIES_MAX", 16)
        with collect() as stats:
            self._chain(1)
            self._chain(1)
        assert stats.graph_walks == 1
        for n in range(2, 20):              # two entries each: fills, clears
            assert self._chain(n)[-1] == 3.0
            assert len(engine_graph._ENTRIES) <= 16
        # A cleared shape is learnt again: it just walks once more.
        with collect() as stats:
            assert self._chain(1).tolist() == [3.0]
            self._chain(1)
        assert stats.graph_walks == 1

    def test_eviction_is_safe_under_threads(self, monkeypatch):
        monkeypatch.setattr(engine_graph, "_ENTRIES_MAX", 16)
        errors = []

        def work(offset):
            try:
                for n in range(1, 120):
                    out = (Tensor(np.ones(n + offset)) * 2.0).numpy()
                    assert out.sum() == 2.0 * (n + offset)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k * 7,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_spmd_ranks_share_the_cache_and_match_single_rank_bits(self):
        def rank(comm=None):
            return _train(_mlp, steps=3)[2]

        single = rank()
        with collect() as stats:
            per_rank = run_spmd(rank, 2)
        assert stats.graph_walks == 0           # both ranks replayed
        for weights in per_rank:
            for name in single:
                assert np.array_equal(_bits(single[name]),
                                      _bits(weights[name])), name

    def test_devices_price_their_own_plans(self):
        def graph():
            return (Tensor(np.ones((32, 32))) * 2.0).tanh().sum()

        def cost_ps():
            """Realize a fresh graph; its plan's kernel costs."""
            t = graph()
            t.numpy()
            return [kernel.cost_ps for kernel in _plan(t)]

        cpu, gpu = get_device("cpu"), get_device("sim-gpu")
        gpu.reset_clock()
        on_cpu = cost_ps()
        with use_device("sim-gpu"):
            on_gpu = cost_ps()
        assert on_cpu != on_gpu
        assert cost_ps() == on_cpu
        assert cpu._time_ps == 2 * sum(on_cpu)
        assert gpu._time_ps == sum(on_gpu)

    def test_register_device_overwrite_starts_cold(self):
        def run():
            out = Tensor(np.ones(5)) * 3.0
            with collect() as stats:
                out.numpy()
            return stats.graph_walks, _plan(out)

        assert run()[0] == 1 and run()[0] == 0
        class SlowDispatch(CpuDevice):
            DISPATCH_S = 1e-6

        register_device("cpu", SlowDispatch)
        walks, (kernel,) = run()
        assert walks == 1
        assert kernel.cost_ps >= 1_000_000      # priced by the new device
