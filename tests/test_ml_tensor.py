"""Autograd engine: numerical gradient checks and algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import Tensor
from repro.ml.tensor import unbroadcast


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. array x (in place)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        x[i] += eps
        fp = f()
        x[i] -= 2 * eps
        fm = f()
        x[i] += eps
        g[i] = (fp - fm) / (2 * eps)
    return g


def check_grad(build, *params, atol=1e-5):
    """build(*tensors) -> scalar Tensor; verifies every param's gradient."""
    tensors = [Tensor(p, requires_grad=True) for p in params]
    out = build(*tensors)
    out.backward()
    for t in tensors:
        ref = numeric_grad(
            lambda: float(build(*[Tensor(u.data) for u in tensors]).data),
            t.data)
        np.testing.assert_allclose(t.grad, ref, atol=atol)


rng = np.random.default_rng(42)


class TestElementwiseGrads:
    def test_add_broadcast(self):
        check_grad(lambda a, b: (a + b).sum(),
                   rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_mul_broadcast(self):
        check_grad(lambda a, b: (a * b).sum(),
                   rng.normal(size=(2, 3)), rng.normal(size=(2, 1)))

    def test_sub_div(self):
        check_grad(lambda a, b: (a / b - b).sum(),
                   rng.normal(size=(3,)), rng.uniform(1.0, 2.0, size=(3,)))

    def test_pow(self):
        check_grad(lambda a: (a ** 3).sum(), rng.uniform(0.5, 2.0, size=(4,)))

    def test_exp_log(self):
        check_grad(lambda a: (a.exp().log() * a).sum(),
                   rng.uniform(0.5, 1.5, size=(5,)))

    def test_tanh_sigmoid(self):
        check_grad(lambda a: (a.tanh() + a.sigmoid()).sum(),
                   rng.normal(size=(6,)))

    def test_relu(self):
        # Keep values away from the kink for finite differences.
        x = rng.normal(size=(10,))
        x[np.abs(x) < 0.05] = 0.5
        check_grad(lambda a: (a.relu() * a).sum(), x)

    def test_abs(self):
        x = rng.normal(size=(8,))
        x[np.abs(x) < 0.05] = 0.3
        check_grad(lambda a: a.abs().sum(), x)

    def test_radd_rmul(self):
        check_grad(lambda a: ((3.0 * a) + (1.0 + a)).sum(),
                   rng.uniform(0.5, 1.5, size=(4,)))


class TestMatmulGrads:
    def test_2d(self):
        check_grad(lambda a, b: (a @ b).sum(),
                   rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))

    def test_batched(self):
        check_grad(lambda a, b: ((a @ b) ** 2).sum(),
                   rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2)))

    def test_broadcast_batch(self):
        check_grad(lambda a, b: (a @ b).sum(),
                   rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)))

    def test_vec_mat(self):
        check_grad(lambda a, b: (a @ b).sum(),
                   rng.normal(size=(4,)), rng.normal(size=(4, 3)))

    def test_mat_vec(self):
        check_grad(lambda a, b: (a @ b).sum(),
                   rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_vec_vec(self):
        check_grad(lambda a, b: a @ b,
                   rng.normal(size=(5,)), rng.normal(size=(5,)))

    def test_batched_mat_vec(self):
        check_grad(lambda a, b: ((a @ b) ** 2).sum(),
                   rng.normal(size=(2, 3, 4)), rng.normal(size=(4,)))

    def test_1d_values_match_numpy(self):
        v = rng.normal(size=(4,))
        m = rng.normal(size=(4, 3))
        np.testing.assert_array_equal((Tensor(v) @ Tensor(m)).numpy(), v @ m)
        np.testing.assert_array_equal((Tensor(m).transpose() @ Tensor(v)).numpy(),
                                      m.T @ v)
        assert (Tensor(v) @ Tensor(v)).shape == ()
        np.testing.assert_allclose((Tensor(v) @ Tensor(v)).item(), v @ v)

    def test_scalar_operand_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(2.0)


class TestReductionGrads:
    def test_sum_axis(self):
        check_grad(lambda a: (a.sum(axis=0) ** 2).sum(),
                   rng.normal(size=(3, 4)))

    def test_sum_keepdims(self):
        check_grad(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(),
                   rng.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda a: (a.mean(axis=(1, 2)) ** 2).sum(),
                   rng.normal(size=(2, 3, 4)))

    def test_max(self):
        x = rng.normal(size=(4, 5))
        check_grad(lambda a: a.max().sum(), x)


class TestShapeGrads:
    def test_reshape(self):
        check_grad(lambda a: (a.reshape(6) ** 2).sum(), rng.normal(size=(2, 3)))

    def test_transpose(self):
        check_grad(lambda a: (a.transpose(1, 0, 2) ** 2).sum(),
                   rng.normal(size=(2, 3, 4)))

    def test_getitem_slice(self):
        check_grad(lambda a: (a[1:, :2] ** 2).sum(), rng.normal(size=(3, 4)))

    def test_getitem_sequence_axis(self):
        check_grad(lambda a: (a[:, 2, :] ** 2).sum(), rng.normal(size=(2, 4, 3)))

    def test_stack(self):
        check_grad(lambda a, b: (Tensor.stack([a, b]) ** 2).sum(),
                   rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))


class TestEngine:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * a + a            # d/da = 2a + 1 = 5
        out.backward()
        assert a.grad[0] == pytest.approx(5.0)

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2
        c = a * 3
        (b + c).backward()
        assert a.grad[0] == pytest.approx(5.0)

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x * 1.0001
        x.backward()
        assert a.grad is not None

    def test_detach_stops_gradient(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        (a.detach() * a).backward()
        assert a.grad[0] == pytest.approx(2.0)   # only the live branch

    def test_no_grad_tracking_without_flag(self):
        a = Tensor(np.ones(3))
        out = (a * 2).sum()
        out.backward()
        assert a.grad is None

    def test_zero_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a.sum()).backward()
        a.zero_grad()
        assert a.grad is None

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_item_and_len_and_repr(self):
        assert Tensor(5.0).item() == 5.0


class TestDtypePropagation:
    """float32 stays float32 end-to-end; mixed-dtype ops follow NumPy."""

    def test_float32_input_preserved(self):
        assert Tensor(np.ones((2, 2), dtype=np.float32)).dtype == np.float32

    def test_python_scalar_does_not_upcast(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        assert (x * 0.5).dtype == np.float32
        assert (x + 1).dtype == np.float32
        assert (x ** 2).dtype == np.float32
        assert (x ** 0.5).dtype == np.float32

    def test_mixed_dtype_broadcast_promotes(self):
        a = Tensor(np.ones((3, 1), dtype=np.float32))
        b = Tensor(np.ones((1, 4), dtype=np.float64))
        for out in (a + b, a * b, a / b, b - a):
            assert out.dtype == np.float64
            assert out.shape == (3, 4)

    def test_unary_chain_preserves_float32(self):
        x = Tensor(np.full((4,), 0.5, dtype=np.float32))
        y = x.tanh().sigmoid().relu().exp().abs()
        assert y.dtype == np.float32
        assert y.sum().dtype == np.float32

    def test_matmul_mixed(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32))
        b = Tensor(np.ones((3, 2), dtype=np.float64))
        assert (a @ b).dtype == np.float64
        assert (a @ Tensor(np.ones((3, 2), dtype=np.float32))).dtype \
            == np.float32

    def test_grad_matches_data_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.dtype == np.float32


class TestUnbroadcast:
    @given(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip_shape(self, shape):
        big = np.broadcast_shapes(shape, (2,) + shape)
        grad = np.ones(big)
        assert unbroadcast(grad, shape).shape == shape

    def test_sums_broadcast_axes(self):
        grad = np.ones((5, 3, 4))
        out = unbroadcast(grad, (3, 1))
        assert out.shape == (3, 1)
        assert out[0, 0] == 20.0


@given(
    a=hnp.arrays(np.float64, (3, 3),
                 elements=st.floats(-10, 10, allow_nan=False)),
    b=hnp.arrays(np.float64, (3, 3),
                 elements=st.floats(-10, 10, allow_nan=False)),
)
@settings(max_examples=60, deadline=None)
def test_property_addition_gradient_is_ones(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta + tb).sum().backward()
    np.testing.assert_array_equal(ta.grad, np.ones((3, 3)))
    np.testing.assert_array_equal(tb.grad, np.ones((3, 3)))


@given(
    a=hnp.arrays(np.float64, (4,), elements=st.floats(-5, 5, allow_nan=False)),
)
@settings(max_examples=60, deadline=None)
def test_property_mul_gradient_is_other_operand(a):
    b = np.arange(4.0) + 1
    ta = Tensor(a, requires_grad=True)
    (ta * Tensor(b)).sum().backward()
    np.testing.assert_allclose(ta.grad, b)
