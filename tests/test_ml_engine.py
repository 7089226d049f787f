"""The lazy tensor engine: graph recording, the executor, stats.

Covers the machinery under ``ENGINE=lazy`` — :class:`LazyExpr` recording
and realization, the op-by-op executor and its buffers, the one device
name it accepts, and the engine counters.  Bit-identity of lazy vs eager *outputs* is pinned in
``test_perf_regression_pins.py``; here we test the engine's own
contracts.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.ml import engine
from repro.ml.engine import (LazyExpr, collect, engine_mode, set_device,
                             set_engine)
from repro.ml.engine.cpu import schedule
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
            assert y._data is None
            assert y.shape == (4, 4)          # shape known without bytes
            assert y.dtype == np.float64
            _ = y.data
            assert y._data is not None

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
        leaf = LazyExpr(np.ones(3))
        assert leaf.result is not None
        assert leaf.shape == (3,)

    def test_realize_is_cached(self):
        with engine.engine("lazy"):
            x = Tensor(np.ones(8))
            y = x * 2.0
            first = y.data
            assert y.data is first


class TestOpByOp:
    """A realize runs each pending node's executor once, parents first,
    and caches every result (one kernel per op)."""

    def _graph(self, n=8):
        x = Tensor(np.ones((n, n)))
        w = Tensor(np.ones((n, n)))
        return ((x @ w + 1.0) * 2.0).relu().sum()

    def test_kernels_execute_in_dependency_order(self):
        with engine.engine("lazy"):
            y = self._graph(4)
            assert [node.op for node in schedule(y._lazy)] == [
                "matmul", "add", "mul", "relu", "sum"]
            assert float(y.data) == float(
                (((np.ones((4, 4)) @ np.ones((4, 4))) + 1.0) * 2.0).sum())

    def test_kernel_accounting(self):
        with engine.engine("lazy"):
            x = Tensor(np.full((8,), 0.3), requires_grad=True)
            h = x * 2.0
            y = h.tanh().sum()
            with collect() as stats:
                y.backward()
                h.data                          # cached, not run again
            assert (stats.kernels, stats.realizes) == (3, 1)
            assert stats.fused_ops == stats.kernels
            assert stats.recomputes == 0
            ref = 2.0 * (1.0 - np.tanh(np.full((8,), 0.3) * 2.0) ** 2)
            np.testing.assert_array_equal(x.grad, ref)


class TestExecutorBufferReuse:
    """Executors write into no buffer they did not allocate."""

    def test_chain_allocates_once_per_kernel_output(self):
        with engine.engine("lazy"):
            with collect() as stats:
                x = Tensor(np.ones((64, 64)))
                ((x * 2.0 + 1.0).tanh().relu()).data
            # 4 elementwise ops, one kernel and one buffer each.
            assert stats.kernels == 4
            assert stats.kernel_allocs == 4
            assert stats.kernel_alloc_bytes == 4 * 64 * 64 * 8

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
        does the same on both engines, alone and inside a chain."""
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
    """Lazy graphs run on NumPy: ``cpu`` is the one device name."""

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            set_device("tpu")

    def test_sim_gpu_is_not_a_device(self):
        set_device("cpu")
        with pytest.raises(ValueError, match="sim-gpu"):
            set_device("sim-gpu")


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

    def test_fused_kernels_record_no_span(self):
        """The engine keeps no clock, so a kernel is not a trace span: a
        traced lazy step records what the layers around it record."""
        with telemetry.capture() as (tracer, _):
            with engine.engine("lazy"):
                x = Tensor(np.ones((16, 16)))
                ((x * 2.0 + 1.0).tanh().sum()).data
        assert tracer.spans == []
