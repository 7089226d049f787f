"""The lazy tensor engine: graph recording, fusion, devices, stats.

Covers the machinery under ``ENGINE=lazy`` — :class:`LazyExpr` recording
and realization, the fuser's chain-collapsing rules, the shared fused
executor's buffer reuse, the device registry and both backend cost
models, engine counters and per-kernel telemetry spans.  Bit-identity of
lazy vs eager *outputs* is pinned in ``test_perf_regression_pins.py``;
here we test the engine's own contracts.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.ml import engine
from repro.ml.engine import (LazyExpr, collect, engine_mode, get_device,
                             schedule, set_engine, use_device)
from repro.ml.engine.cpu import CpuDevice
from repro.ml.engine.ops import OPS
from repro.ml.tensor import Tensor


@pytest.fixture(autouse=True)
def _eager_after():
    yield
    set_engine("eager")


class TestModeSwitch:
    def test_default_is_eager(self):
        assert engine_mode() == "eager"

    def test_context_manager_restores(self):
        with engine.engine("lazy"):
            assert engine_mode() == "lazy"
        assert engine_mode() == "eager"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            set_engine("jit")

    def test_env_var_validation(self):
        from repro.ml.engine import _mode_from_env
        import os
        os.environ["ENGINE"] = "bogus"
        try:
            with pytest.raises(ValueError):
                _mode_from_env()
        finally:
            del os.environ["ENGINE"]


class TestLazyExpr:
    def test_ops_stay_unrealized_until_demanded(self):
        with engine.engine("lazy"):
            x = Tensor(np.ones((4, 4)))
            y = (x * 2.0 + 1.0).tanh()
            assert not y.realized
            assert y.shape == (4, 4)          # shape known without bytes
            assert y.dtype == np.float64
            _ = y.data
            assert y.realized

    def test_shape_and_dtype_inference(self):
        with engine.engine("lazy"):
            a = Tensor(np.ones((3, 1), dtype=np.float32))
            b = Tensor(np.ones((1, 5)))
            assert (a + b).shape == (3, 5)
            assert (a + b).dtype == np.float64
            assert (a * 2.0).dtype == np.float32
            assert a.sum(axis=0).shape == (1,)
            assert a.sum(axis=0, keepdims=True).shape == (1, 1)
            m = Tensor(np.ones((2, 3, 4)))
            assert (m @ Tensor(np.ones((4, 5)))).shape == (2, 3, 5)
            assert m.transpose(2, 0, 1).shape == (4, 2, 3)
            assert m.reshape(6, -1).shape == (6, 4)

    def test_leaf_is_born_realized(self):
        leaf = LazyExpr.leaf(np.ones(3))
        assert leaf.result is not None
        assert leaf.shape == (3,)

    def test_realize_is_cached(self):
        with engine.engine("lazy"):
            x = Tensor(np.ones(8))
            y = x * 2.0
            first = y.data
            assert y.data is first


class TestFuser:
    def _graph(self, n=8):
        x = Tensor(np.ones((n, n)))
        w = Tensor(np.ones((n, n)))
        return ((x @ w + 1.0) * 2.0).relu().sum()

    def test_elementwise_chain_fuses_into_one_kernel(self):
        with engine.engine("lazy"):
            y = self._graph()
            kernels = schedule(y._payload())
        # matmul is its own kernel; add+mul+relu+sum fuse.
        assert len(kernels) == 2
        assert kernels[0].name == "matmul"
        assert kernels[1].name == "add+mul+relu+sum"

    def test_multi_consumer_node_is_not_fused(self):
        with engine.engine("lazy"):
            x = Tensor(np.ones(16))
            h = x * 2.0                        # two consumers
            y = (h + 1.0) * (h - 3.0)
            kernels = schedule(y._payload())
        names = [k.name for k in kernels]
        # h stands alone (its kernel runs first); neither consumer chain
        # swallowed it.
        assert names[0] == "mul"
        assert all(not n.startswith("mul+") for n in names)

    def test_kernels_execute_in_dependency_order(self):
        with engine.engine("lazy"):
            y = self._graph(4)
            assert float(y.data) == float(
                (((np.ones((4, 4)) @ np.ones((4, 4))) + 1.0) * 2.0).sum())

    def test_fused_interior_is_saved_for_backward(self):
        with engine.engine("lazy"):
            x = Tensor(np.full((8,), 0.3), requires_grad=True)
            y = (x * 2.0).tanh().sum()
            with collect() as stats:
                y.backward()
            # tanh's backward reads its output: the mul+tanh+sum kernel
            # kept it as a second output instead of recomputing it.
            assert stats.recomputes == 0
            assert stats.kernels == 1 and stats.realizes == 1
            ref = 2.0 * (1.0 - np.tanh(np.full((8,), 0.3) * 2.0) ** 2)
            np.testing.assert_array_equal(x.grad, ref)

    def test_unsaved_interior_still_recomputes_on_demand(self):
        with engine.engine("lazy"):
            x = Tensor(np.full((8,), 0.3))
            h = x * 2.0                        # nothing marks it
            y = h.tanh().sum()
            with collect() as stats:
                y.realize()
                np.testing.assert_array_equal(h.data, np.full((8,), 0.6))
            assert stats.recomputes == 1

    def test_kernel_accounting(self):
        with engine.engine("lazy"):
            y = self._graph(8)
            kernels = schedule(y._payload())
        fused = kernels[1]
        assert fused.n_ops == 4
        assert fused.flops > 0
        assert fused.bytes_moved > 0


class TestExecutorBufferReuse:
    def test_chain_allocates_once_per_kernel_output(self):
        with engine.engine("lazy"):
            with collect() as stats:
                x = Tensor(np.ones((64, 64)))
                ((x * 2.0 + 1.0).tanh().relu()).data
            # 4 fused elementwise ops, 1 materialized buffer.
            assert stats.kernels == 1
            assert stats.kernel_allocs == 1

    def test_leaf_buffers_never_reused(self):
        with engine.engine("lazy"):
            arr = np.ones(32)
            x = Tensor(arr)
            (x * 3.0 + 1.0).data
            np.testing.assert_array_equal(arr, np.ones(32))

    def test_mixed_dtype_chain_does_not_reuse_mismatched_buffer(self):
        with engine.engine("lazy"):
            a = Tensor(np.ones(16, dtype=np.float32))
            b = Tensor(np.ones(16))
            out = ((a * 2.0) + b).data        # f32 temp, f64 output
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, np.full(16, 3.0))

    def test_scalar_reduction_output_is_ndarray(self):
        with engine.engine("lazy"):
            x = Tensor(np.ones(8))
            total = (x.sum() * 2.0 + 1.0)
            assert isinstance(total.data, np.ndarray)
            assert float(total.data) == 17.0


class TestPowExecutor:
    @pytest.mark.parametrize("mode", engine.MODES)
    @pytest.mark.parametrize("exponent",
                             [2, 2.0, 0.5, 3, -1.5, np.float64(2.0)])
    def test_bits_and_dtype_of_the_numpy_operator(self, mode, exponent):
        """``x ** e`` hands 2 and 0.5 to square/sqrt and lets an
        ``np.float64`` exponent promote float32; the one ``pow`` executor
        does the same on both engines, alone and as an ``out=`` step
        inside a fused kernel."""
        x = np.linspace(0.0, 2.0, 9, dtype=np.float32)
        x[0] = -0.0
        with np.errstate(divide="ignore"), engine.engine(mode):
            alone = (Tensor(x) ** exponent).data
            fused = ((Tensor(x) * 1.0) ** exponent * 1.0).data
            ref = x ** exponent
        for got in (alone, fused):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


class TestDevices:
    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            get_device("tpu")

    def test_use_device_restores_previous(self):
        before = get_device()
        with use_device("sim-gpu") as dev:
            assert get_device() is dev is get_device("sim-gpu")
        assert get_device() is before

    def test_register_custom_backend(self):
        class Half(CpuDevice):
            name = "cpu-half"

        engine.register_device("cpu-half", Half)
        assert isinstance(get_device("cpu-half"), Half)

    def test_cpu_clock_advances_per_kernel(self):
        dev = CpuDevice()
        with engine.engine("lazy"):
            x = Tensor(np.ones((32, 32)))
            expr = ((x * 2.0).tanh().sum())._payload()
            with collect() as stats:
                dev.realize(expr)
        assert stats.kernels == 1
        assert dev.sim_time_s > 0

    def test_simgpu_charges_roofline_per_fused_kernel(self):
        from repro.distributed.perfmodel import KernelCostModel

        dev = get_device("sim-gpu")
        cm = dev.cost_model
        assert isinstance(cm, KernelCostModel)
        t = dev.kernel_time_s(1e9, 10**6, 3)
        assert t == pytest.approx(cm.kernel_time(1e9, 10**6))
        # Launch overhead dominates tiny kernels: fusing N ops into one
        # kernel beats N launches.
        tiny = dev.kernel_time_s(100.0, 800, 1)
        assert 3 * tiny > dev.kernel_time_s(300.0, 2400, 3)

    def test_v100_slower_than_a100(self):
        a100 = get_device("sim-gpu")
        v100 = get_device("sim-gpu:v100")
        flops, nbytes = 1e10, 10**8
        assert v100.kernel_time_s(flops, nbytes, 1) \
            > a100.kernel_time_s(flops, nbytes, 1)

    def test_unfused_counterfactual_is_slower(self):
        dev = get_device("sim-gpu")
        with engine.engine("lazy"):
            x = Tensor(np.ones((64, 64)))
            y = (x * 2.0 + 1.0).tanh().sum()
            kernels = schedule(y._payload())
        fused = sum(dev.kernel_time_s(k.flops, k.bytes_moved, k.n_ops)
                    for k in kernels)
        unfused = sum(dev.unfused_time_s(k) for k in kernels)
        assert unfused > fused


class TestStatsAndTelemetry:
    def test_eager_path_counts_ops(self):
        with collect() as stats:
            x = Tensor(np.ones(8))
            ((x * 2.0) + 1.0).data
        assert stats.eager_ops == 2
        assert stats.eager_alloc_bytes == 2 * 8 * 8

    def test_disabled_stats_cost_nothing(self):
        from repro.ml.engine.stats import STATS
        x = Tensor(np.ones(8))
        before = STATS.eager_ops
        (x * 2.0).data
        assert STATS.eager_ops == before

    def test_fused_kernels_emit_spans(self):
        with telemetry.capture() as (tracer, _):
            with engine.engine("lazy"):
                x = Tensor(np.ones((16, 16)))
                ((x * 2.0 + 1.0).tanh().sum()).data
        spans = [s for s in tracer.spans if s.name.startswith("kernel:")]
        assert len(spans) == 1
        span = spans[0]
        assert span.name == "kernel:mul+add+tanh+sum"
        attrs = span.attr_dict()
        assert attrs["ops"] == 4
        assert attrs["flops"] > 0
        assert attrs["bytes"] > 0
        assert span.duration_s > 0
        assert span.track == "engine"


class TestRegisterDeviceRestore:
    def test_registry_survives_custom_registration(self):
        # Re-registering cpu with the stock factory must stay valid.
        engine.register_device("cpu", CpuDevice)
        assert isinstance(get_device("cpu"), CpuDevice)
