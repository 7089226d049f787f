"""Plan capture and saved-for-backward outputs of the lazy engine.

``Device.realize`` looks a pending subgraph up by its structural key,
compiles a plan on a miss and replays it either way; ``Tensor`` marks
what backward closures read so fused kernels keep it.  These tests pin
the key (what must and must not share a plan), the cache (bounded, no
array references, shared by rank threads, per device), and the outcome
(second step compiles nothing, nothing is recomputed, lazy == eager to
the bit with gradients).
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
from repro.ml.engine.graph import LazyExpr, pending
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


def _key(t: Tensor) -> tuple:
    return pending(t._payload())[2]


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
        assert first["plan_compiles"] == len(calls) > 0
        del calls[:]
        second = one(1)
        assert second["plan_compiles"] == 0 and calls == []
        assert second["plan_hits"] == second["realizes"] > 0
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
        assert stats.plan_compiles <= stats.realizes // 5
        assert stats.plan_hits == stats.realizes - stats.plan_compiles
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
            compiles.append(stats.plan_compiles)
        assert compiles[0] > 0 and compiles[1:] == [0, 0, 0]

    def test_explicit_batches_hit_the_plan_from_batch_two(self):
        model = MLP([6, 8, 3], seed=1).eval()
        X = np.random.default_rng(0).normal(size=(32, 6))
        seen = []
        lazy = np.empty((len(X), 3))
        with collect():
            for idx in np.arange(len(X)).reshape(4, 8):
                lazy[idx] = model(Tensor(X[idx])).numpy()
                seen.append(engine.STATS.plan_compiles)
        assert seen[0] > 0 and seen == [seen[0]] * 4
        set_engine("eager")
        assert np.array_equal(_bits(lazy), _bits(model(Tensor(X)).numpy()))


class TestKey:
    @staticmethod
    def _f(x):
        return ((x * 2.0 + 1.0).tanh()).sum(axis=0)

    def test_same_structure_same_key(self):
        a = self._f(Tensor(np.ones((16, 8))))
        b = self._f(Tensor(np.zeros((16, 8))))
        assert _key(a) == _key(b)
        a.numpy(), b.numpy()
        assert len(get_device()._plans) == 1

    def test_last_partial_batch_gets_its_own_plan(self):
        full = self._f(Tensor(np.ones((16, 8))))
        part = self._f(Tensor(np.ones((7, 8))))
        assert _key(full) != _key(part)
        assert part.numpy().shape == (8,)
        np.testing.assert_array_equal(
            part.numpy(), np.tanh(np.ones((7, 8)) * 2.0 + 1.0).sum(axis=0))

    def test_aliased_operand_differs_from_two_operands(self):
        x, y = Tensor(np.full(4, 3.0)), Tensor(np.full(4, 3.0))
        xx, xy = (x * x) + 1.0, (x * y) + 1.0
        assert _key(xx) != _key(xy)
        np.testing.assert_array_equal(xx.numpy(), xy.numpy())

    def test_realized_ancestor_differs_from_pending_one(self):
        def graph():
            h = Tensor(np.full(4, 0.5)) * 2.0
            return h, h.tanh() + h
        _, pending = graph()
        h, realized = graph()
        h.numpy()
        assert _key(pending) != _key(realized)
        np.testing.assert_array_equal(pending.numpy(), realized.numpy())

    def test_saved_interior_differs_from_unsaved(self):
        def graph(requires_grad):
            x = Tensor(np.full(8, 0.3), requires_grad=requires_grad)
            return (x * 2.0).tanh().relu().sum()
        plain, grad = graph(False), graph(True)
        assert _key(plain) != _key(grad)
        with collect() as stats:
            plain.numpy()
            unsaved_allocs = stats.kernel_allocs
            grad.numpy()
        # Same single kernel; the saved tanh input/output cost buffers
        # the unsaved chain reused.
        assert stats.kernels == 2
        assert stats.kernel_allocs - unsaved_allocs > unsaved_allocs
        assert float(plain.data) == float(grad.data)

    def test_kwargs_key_by_type_where_numpy_tells_them_apart(self):
        x32 = np.linspace(0.1, 2.0, 8, dtype=np.float32)
        weak, strong = Tensor(x32) ** 2.0, Tensor(x32) ** np.float64(2.0)
        assert _key(weak) != _key(strong)
        assert weak.dtype == (x32 ** 2.0).dtype == np.float32
        assert strong.dtype == (x32 ** np.float64(2.0)).dtype
        assert np.array_equal(_bits(weak.numpy()), _bits(x32 ** 2.0))
        assert np.array_equal(_bits(strong.numpy()),
                              _bits(x32 ** np.float64(2.0)))
        assert _key(Tensor(x32) ** 2) != _key(weak)

    def test_unhashable_kwarg_still_runs_and_never_shares_a_plan(self):
        x = np.arange(6.0).reshape(2, 3)
        size = np.array(6)                  # a 0-d array: a valid, unhashable size
        a, b = Tensor(x).reshape(size), Tensor(x).reshape(size)
        assert _key(a) != _key(b)
        np.testing.assert_array_equal(a.numpy(), x.reshape(6))
        np.testing.assert_array_equal(b.numpy(), x.reshape(6))


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
    def test_plans_hold_no_arrays_or_graph_nodes(self):
        arr = np.full((8, 8), 0.25)
        x = Tensor(arr, requires_grad=True)
        y = ((x * 2.0).tanh() @ x).relu().sum()
        y.backward()
        refs = [weakref.ref(arr), weakref.ref(y.data), weakref.ref(x.grad)]
        del arr, x, y
        gc.collect()
        assert [r() for r in refs] == [None] * 3
        plans = get_device()._plans
        assert plans

        def walk(obj):
            assert not isinstance(obj, (np.ndarray, LazyExpr, Tensor))
            if isinstance(obj, (tuple, list)):
                for item in obj:
                    walk(item)
        walk(list(plans.items()))

    def test_cache_and_inference_memo_stay_bounded(self):
        dev = get_device()
        for n in range(1, 1001):
            out = (Tensor(np.ones(n)) * 2.0 + 1.0).numpy()
            assert out.shape == (n,) and out[-1] == 3.0
        assert len(dev._plans) == engine_cpu.PLAN_CACHE_SIZE
        assert len(engine_graph._ENTRIES) <= engine_graph._ENTRIES_MAX
        # The oldest plans went first; an evicted shape just compiles again.
        with collect() as stats:
            (Tensor(np.ones(1)) * 2.0 + 1.0).numpy()
            (Tensor(np.ones(1000)) * 2.0 + 1.0).numpy()
        assert (stats.plan_compiles, stats.plan_hits) == (1, 1)

    def test_eviction_is_safe_under_threads(self, monkeypatch):
        monkeypatch.setattr(engine_cpu, "PLAN_CACHE_SIZE", 4)
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
        assert len(get_device()._plans) <= 4

    def test_spmd_ranks_share_the_cache_and_match_single_rank_bits(self):
        def rank(comm=None):
            return _train(_mlp, steps=3)[2]

        single = rank()
        n_plans = len(get_device()._plans)
        with collect() as stats:
            per_rank = run_spmd(rank, 2)
        assert stats.plan_compiles == 0         # both ranks replayed
        assert len(get_device()._plans) == n_plans
        for weights in per_rank:
            for name in single:
                assert np.array_equal(_bits(single[name]),
                                      _bits(weights[name])), name

    def test_devices_price_their_own_plans(self):
        def graph():
            return (Tensor(np.ones((32, 32))) * 2.0).tanh().sum()

        key = _key(graph())
        cpu, gpu = get_device("cpu"), get_device("sim-gpu")
        gpu.reset_clock()
        graph().numpy()
        with use_device("sim-gpu"):
            on_gpu = graph().numpy()
        assert float(on_gpu) == float(graph().numpy())
        cost_ps = lambda dev: [kernel.cost_ps for kernel in dev._plans[key]]
        assert cost_ps(cpu) != cost_ps(gpu)
        assert cpu._time_ps == 2 * sum(cost_ps(cpu))
        assert gpu._time_ps == sum(cost_ps(gpu))

    def test_register_device_overwrite_starts_cold(self):
        def run():
            with collect() as stats:
                (Tensor(np.ones(5)) * 3.0).numpy()
            return stats.plan_compiles

        assert run() == 1 and run() == 0
        class SlowDispatch(CpuDevice):
            DISPATCH_S = 1e-6

        register_device("cpu", SlowDispatch)
        assert get_device("cpu")._plans == {}
        assert run() == 1
        (kernel,), = get_device("cpu")._plans.values()
        assert kernel.cost_ps >= 1_000_000      # priced by the new device
