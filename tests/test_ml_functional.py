"""Functional ops: convolution/pooling gradient checks, softmax identities."""

import numpy as np
import pytest

from repro.ml import Tensor
from repro.ml import functional as F
from repro.ml.tensor import _node
from tests.test_ml_tensor import check_grad, numeric_grad

rng = np.random.default_rng(7)


class TestConv2d:
    def test_output_shape(self):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        assert F.conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (2, 5, 6, 6)

    def test_matches_manual_convolution(self):
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        # Manual valid correlation at (0, 0).
        manual = (x[0, 0, :3, :3] * w[0, 0]).sum()
        assert out[0, 0, 0, 0] == pytest.approx(manual)

    def test_gradients(self):
        check_grad(
            lambda x, w, b: (F.conv2d(x, w, b, stride=2, padding=1) ** 2).sum(),
            rng.normal(size=(2, 2, 5, 5)),
            rng.normal(size=(3, 2, 3, 3)),
            rng.normal(size=(3,)),
            atol=1e-4,
        )
        # A pad wider than the taps reach into: every padding cell's
        # gradient is dropped, every interior cell's kept.
        check_grad(
            lambda x, w: (F.conv2d(x, w, stride=1, padding=2) ** 2).sum(),
            rng.normal(size=(1, 2, 3, 3)),
            rng.normal(size=(2, 2, 3, 3)),
            atol=1e-4,
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.ones((1, 2, 4, 4))),
                     Tensor(np.ones((1, 3, 3, 3))))

    def test_constant_conv_beside_a_trainable_operand(self):
        """A conv none of whose inputs needs a gradient is a graph leaf:
        backward through a sibling operand must not visit it."""
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        p = Tensor(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
        conv = F.conv2d(x, w)
        assert conv._prev == () and not conv.requires_grad
        (conv + p).sum().backward()
        np.testing.assert_array_equal(p.grad, np.ones(p.shape))


class TestConv1d:
    def test_output_shape(self):
        x = Tensor(rng.normal(size=(2, 3, 10)))
        w = Tensor(rng.normal(size=(4, 3, 5)))
        b = Tensor(np.zeros(4))
        assert F.conv1d(x, w, b).shape == (2, 4, 10)  # "same" padding

    def test_gradients(self):
        check_grad(
            lambda x, w: (F.conv1d(x, w, Tensor(np.zeros(3))) ** 2).sum(),
            rng.normal(size=(2, 2, 6)),
            rng.normal(size=(3, 2, 3)),
            atol=1e-4,
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_pad_then_conv_bit_for_bit(self, k, dtype):
        """The pad folded into conv2d's gather index changes no bit of the
        output or of the x, w and b gradients, odd kernels or even."""
        data = np.random.default_rng([k, np.dtype(dtype).itemsize])
        arrays = [data.normal(size=s).astype(dtype)
                  for s in ((3, 2, 9), (4, 2, k), (4,))]
        arrays[0][data.random(arrays[0].shape) < 0.1] = -0.0
        runs = []
        for conv in (F.conv1d, _conv1d_reference):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = conv(x, w, b)
            assert out.shape == (3, 4, 9 + 1 - k % 2)
            upstream = np.random.default_rng(1).normal(size=out.shape)
            (out * Tensor(upstream.astype(dtype))).sum().backward()
            runs.append((out.data, x.grad, w.grad, b.grad))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _conv1d_reference(x, weight, bias):
    """``conv1d`` before its pad moved into conv2d: a separate zero-pad
    node (``np.pad`` forward, a slice of the consumer's gradient
    backward), then an unpadded conv2d."""
    pad = weight.shape[2] // 2
    if pad:
        inner = x

        def backward(out) -> None:
            inner._accumulate(out.grad[:, :, pad:-pad])

        x = _node(np.pad(inner.data, [(0, 0), (0, 0), (pad, pad)]),
                  (inner,), backward)
    n, c, l = x.shape
    out_c, in_c, k = weight.shape
    out = F.conv2d(x.reshape(n, c, 1, l), weight.reshape(out_c, in_c, 1, k),
                   bias=bias)
    return out.reshape(out.shape[0], out.shape[1], out.shape[3])


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x)).data
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradients(self):
        x = rng.normal(size=(2, 2, 6, 6))
        check_grad(lambda a: (F.max_pool2d(a) ** 2).sum(), x, atol=1e-4)

    @pytest.mark.parametrize("pool", [F.max_pool2d])
    def test_constant_pool_beside_a_trainable_operand(self, pool):
        """Like conv2d above: a pool of inputs that need no gradient
        joins no graph (holds no input alive), and a trainable sibling
        still backpropagates past it."""
        pooled = pool(Tensor(rng.normal(size=(1, 2, 4, 4))))
        assert pooled._prev == () and not pooled.requires_grad
        p = Tensor(rng.normal(size=(1, 2, 2, 2)), requires_grad=True)
        (pooled + p).sum().backward()
        np.testing.assert_array_equal(p.grad, np.ones(p.shape))

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 1.0)


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        probs = F.log_softmax(x).exp().data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-10)
        assert (probs >= 0).all()

    def test_log_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1001.0, 999.0]]))
        logp = F.log_softmax(x).data
        assert np.isfinite(logp).all()

    def test_log_softmax_shift_invariant(self):
        x = rng.normal(size=(3, 4))
        a = F.log_softmax(Tensor(x)).data
        b = F.log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_softmax_gradient(self):
        check_grad(lambda a: (F.log_softmax(a) * Tensor(np.eye(3))).sum(),
                   rng.normal(size=(3, 3)))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_train_mode_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, np.random.default_rng(0), training=True)
        assert out.data.mean() == pytest.approx(1.0, rel=0.05)

    def test_zeroed_fraction(self):
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.4, np.random.default_rng(1), training=True)
        assert (out.data == 0).mean() == pytest.approx(0.4, abs=0.03)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))


class TestOneHot:
    def test_encoding(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
