"""Gradient ownership in the autograd core (DESIGN §13).

A tensor's ``.grad`` is absent, borrowed (an interior node reading its
consumer's finished gradient) or owned (a private array it adds into);
producers hand over fresh temporaries, a basic-index slice adds straight
into its parent's buffer, and leaves always end up with a private,
writable array.  These tests pin who may alias whom, the state
transitions, the slice scatter, and — against the pre-change
``_accumulate``, ``__getitem__``, GRU cell, BatchNorm and convolution
kept below as the reference — that every gradient keeps its bits, signed
zeros included.

Nothing here selects an engine: CI runs the file under ``ENGINE=eager``
and ``ENGINE=lazy``, and the rule must hold on both.
"""

import math
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.functional as functional_module
from repro.distributed import DistributedOptimizer, broadcast_parameters
from repro.ml import engine
from repro.ml import functional as F
from repro.ml.layers import BN_EPS, BN_MOMENTUM, BatchNorm
from repro.ml.losses import cross_entropy, l2_regularisation, mae
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.ml.optim import SGD
from repro.ml.rnn import GRUCell
from repro.ml.tensor import Tensor
from repro.mpi import run_spmd

# The module itself, whatever ``repro.ml`` binds under its name.
tensor_module = sys.modules["repro.ml.tensor"]


# -- the pre-change implementation, kept as the reference ---------------------

def _old_accumulate(self, grad, fresh=False):
    if self.grad is None:
        self.grad = np.array(grad, copy=True)
    else:
        self.grad += grad


def _old_getitem(self, idx):
    rg = self.requires_grad
    out = Tensor(self.data[idx], requires_grad=rg,
                 _prev=(self,) if rg else ())
    if rg:
        def backward(out):
            g = np.zeros_like(self.data)
            np.add.at(g, idx, out.grad)
            self._accumulate(g)

        out._backward = backward
    return out


def _old_gru_cell_forward(self, x, h_prev):
    """The pre-change ``GRUCell.forward``: 21 nodes per step.  ``1.0 - z``
    is spelled as the retired ``__rsub__`` built it."""
    hsz = self.hidden_size
    gates_x = x @ self.W + self.b         # (N, 3h)
    gates_h = h_prev @ self.U             # (N, 3h)
    z = (gates_x[:, :hsz] + gates_h[:, :hsz]).sigmoid()
    r = (gates_x[:, hsz:2 * hsz] + gates_h[:, hsz:2 * hsz]).sigmoid()
    h_cand = (gates_x[:, 2 * hsz:] + r * gates_h[:, 2 * hsz:]).tanh()
    return z * h_prev + (z._coerce(1.0) + (-z)) * h_cand


def _old_batchnorm_forward(self, x):
    """The pre-change ``BatchNorm.forward``: ~16 nodes per training call.
    ``x.mean(axis, keepdims=True)`` is spelled as the retired ``keepdims``
    parameter of ``Tensor.mean`` built it."""
    axes = tuple(i for i in range(x.ndim) if i != 1)
    shape = tuple(self.num_features if i == 1 else 1 for i in range(x.ndim))

    def mean(t):
        count = math.prod([t.shape[a] for a in axes])
        return t.sum(axis=axes, keepdims=True) * (1.0 / float(count))

    if self.training:
        mu = mean(x)
        var = mean((x - mu) ** 2)
        m = BN_MOMENTUM
        rm, rv = self._buffers["running_mean"], self._buffers["running_var"]
        rm *= m
        rm += (1 - m) * mu.data.reshape(-1)
        rv *= m
        rv += (1 - m) * var.data.reshape(-1)
        x_hat = (x - mu) / ((var + BN_EPS) ** 0.5)
    else:   # the statistics in x's dtype: float64 ones made a float32
        # x's output float64; on a float64 x the cast changes nothing
        mu = Tensor(self.running_mean.reshape(shape).astype(x.dtype))
        var = Tensor(self.running_var.reshape(shape).astype(x.dtype))
        x_hat = (x - mu) / ((var + BN_EPS) ** 0.5)
    return x_hat * self.gamma.reshape(shape) + self.beta.reshape(shape)


def _old_max_pool2d_grad(xd, out_grad, kernel, stride):
    n, c, h, w = xd.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s0, s1, s2, s3 = xd.strides
    patches = np.lib.stride_tricks.as_strided(
        xd, shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3))
    arg = patches.reshape(n, c, out_h, out_w, kernel * kernel).argmax(axis=4)
    grad = np.zeros_like(xd)
    ii, jj = np.unravel_index(arg, (kernel, kernel))
    ni, ci, oi, oj = np.indices((n, c, out_h, out_w))
    np.add.at(grad, (ni, ci, oi * stride + ii, oj * stride + jj), out_grad)
    return grad


@contextmanager
def _pre_change_autograd():
    new = Tensor._accumulate, Tensor.__getitem__
    Tensor._accumulate, Tensor.__getitem__ = _old_accumulate, _old_getitem
    try:
        yield
    finally:
        Tensor._accumulate, Tensor.__getitem__ = new


def _both(fn):
    """``fn()`` under the reference and under the code in ``src/``."""
    with _pre_change_autograd():
        old = fn()
    return old, fn()


def _bits(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _backprop(out, upstream):
    """Send ``upstream`` back from ``out``: it is the gradient of
    ``(out * upstream).sum()`` with respect to ``out``."""
    (out * Tensor(upstream)).sum().backward()


# -- a NumPy stand-in that counts scatters ------------------------------------

class _CountingNumpy:
    """``np`` as the autograd modules see it, counting ``np.add.at`` and
    ``np.zeros_like`` calls (``np.add.at`` itself is read-only, so the
    modules' ``np`` global is what a test can replace)."""

    class _Add:
        def __init__(self, owner):
            self.owner = owner

        def __call__(self, *args, **kwargs):
            return np.add(*args, **kwargs)

        def at(self, *args, **kwargs):
            self.owner.add_at_calls += 1
            if self.owner.forbid_add_at:
                raise AssertionError("np.add.at called")
            return np.add.at(*args, **kwargs)

    def __init__(self, forbid_add_at=False):
        self.add_at_calls = 0
        self.zeros_like_calls = 0
        self.forbid_add_at = forbid_add_at
        self.add = self._Add(self)

    def zeros_like(self, *args, **kwargs):
        self.zeros_like_calls += 1
        return np.zeros_like(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def counting_numpy(monkeypatch):
    def install(**kwargs):
        fake = _CountingNumpy(**kwargs)
        monkeypatch.setattr(tensor_module, "np", fake)
        monkeypatch.setattr(functional_module, "np", fake)
        return fake
    return install


# -- the three models of the e2e training workloads, small --------------------

def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(16, 12)), rng.integers(0, 3, size=16)
    model = MLP([12, 16, 3], seed=seed)
    return model, lambda: cross_entropy(model(Tensor(X)), y)


def _gru(seed=0):
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(8, 6, 5)), rng.normal(size=(8,))
    model = GruForecaster(5, hidden=8, seed=seed)
    return model, lambda: (
        mae(model(Tensor(X)), y)
        + l2_regularisation(model.regularised_parameters(), 1e-5))


def _resnet(seed=0):
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(4, 3, 8, 8)), rng.integers(0, 4, size=4)
    model = resnet_small(in_channels=3, n_classes=4, seed=seed)
    return model, lambda: cross_entropy(model(Tensor(X)), y)


MODELS = pytest.mark.parametrize("build", [_mlp, _gru, _resnet],
                                 ids=["mlp", "gru", "resnet"])


def _graph(root):
    """Every tensor the loss was computed from, inputs and parameters
    included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node._prev)
    return seen


# -- (a) aliasing -------------------------------------------------------------

class TestLeafGradientsArePrivate:
    @MODELS
    def test_no_gradient_shares_memory_with_anything(self, build):
        model, loss_fn = build()
        loss = loss_fn()
        nodes = _graph(loss)
        loss.backward()
        params = model.parameters()
        grads = [p.grad for p in params]
        assert all(g is not None and g.flags.writeable for g in grads)
        for i, g in enumerate(grads):
            assert g.shape == params[i].shape
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)
            assert not np.shares_memory(g, loss.grad)
            for node in nodes:
                assert not np.shares_memory(g, node.data)

    @MODELS
    def test_clipping_the_gradients_changes_nothing_else(self, build):
        model, loss_fn = build()
        loss = loss_fn()
        nodes = list(_graph(loss))
        loss.backward()
        params = model.parameters()
        before = [n.data.copy() for n in nodes]
        grads_before = [p.grad.copy() for p in params]
        # Clip to a global norm of 1e-3 in place, through each leaf's .grad.
        norm = sum(float((p.grad ** 2).sum()) for p in params) ** 0.5
        assert norm > 1e-3
        scale = 1e-3 / (norm + 1e-12)
        for p in params:
            p.grad *= scale
        for n, data in zip(nodes, before):
            assert n.data.tobytes() == data.tobytes()
        for p, g in zip(params, grads_before):
            assert p.grad.tobytes() == (g * scale).tobytes()

    @MODELS
    def test_gradients_keep_the_pre_change_bits(self, build):
        def grads():
            model, loss_fn = build()
            loss_fn().backward()
            return _bits(p.grad for p in model.parameters())

        old, new = _both(grads)
        assert old == new

    def test_a_leaf_copies_what_an_interior_node_borrows(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        root = x.reshape(3, 2)
        upstream = np.ones((3, 2))
        _backprop(root, upstream)
        assert not np.shares_memory(x.grad, upstream)
        assert x.grad.flags.writeable


# -- (b) state transitions ----------------------------------------------------

def _spy(t):
    """Record ``t``'s gradient and its ownership state at the moment its
    backward function runs (afterwards an interior ``.grad`` is gone)."""
    seen = {}
    inner = t._backward

    def backward(out):
        seen["grad"], seen["state"] = out.grad, out._grad_state
        inner(out)

    t._backward = backward
    return seen


class TestStateTransitions:
    @pytest.mark.parametrize("consumers", [1, 2, 3])
    def test_borrowed_then_owned_then_in_place(self, consumers):
        rng = np.random.default_rng(consumers)
        data, shift = rng.normal(size=(2, 3, 4))
        weights = rng.normal(size=(consumers, 3, 4))

        def run():
            x = Tensor(data, requires_grad=True)
            h = x * 2.0                                  # interior
            users = [h + Tensor(shift) for _ in weights]  # add passes
            loss = None                                   # out.grad on
            for u, w in zip(users, weights):
                term = (u * Tensor(w)).sum()
                loss = term if loss is None else loss + term
            seen_h, seen_users = _spy(h), [_spy(u) for u in users]
            with engine.collect() as stats:
                loss.backward()
            assert h.grad is None and all(u.grad is None for u in users)
            assert loss.grad is not None        # the root keeps its own
            return x.grad, seen_h, seen_users, stats.grad_copies

        (old_grad, old_h, _, _), (grad, seen_h, seen_users, copies) = \
            _both(run)
        assert grad.tobytes() == old_grad.tobytes()
        assert seen_h["grad"].tobytes() == old_h["grad"].tobytes()
        np.testing.assert_allclose(seen_h["grad"], weights.sum(axis=0))
        if consumers == 1:
            assert seen_h["state"] == tensor_module._BORROWED
            assert seen_h["grad"] is seen_users[0]["grad"]     # zero-copy
            assert copies == 0
        else:
            assert seen_h["state"] == tensor_module._OWNED
            for s in seen_users:
                assert not np.shares_memory(seen_h["grad"], s["grad"])
            assert copies == 1               # promoted once, then ``+=``

    @pytest.mark.parametrize("interior", [False, True])
    def test_x_plus_x(self, interior):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * 1.0 if interior else x
        w = np.array([0.5, -1.5, 2.0])
        ((h + h) * Tensor(w)).sum().backward()
        assert x.grad.tobytes() == (w + w).tobytes()

    def test_x_times_x(self):
        data = np.array([1.0, -2.0, 3.0])
        x = Tensor(data, requires_grad=True)
        with engine.collect() as stats:
            (x * x).sum().backward()
        assert x.grad.tobytes() == (data + data).tobytes()
        assert stats.grad_copies == 0          # both temporaries handed over

    def test_diamond(self):
        data = np.array([[1.0, -2.0], [0.5, 4.0]])
        x = Tensor(data, requires_grad=True)
        a, b = x * 2.0, x * 3.0
        c = a + b
        seen_a, seen_b, seen_c = _spy(a), _spy(b), _spy(c)
        (c * c).sum().backward()
        assert seen_a["grad"] is seen_c["grad"] is seen_b["grad"]
        dc = 2.0 * (data * 2.0 + data * 3.0)
        expected = dc * 3.0
        expected += dc * 2.0
        assert x.grad.tobytes() == expected.tobytes()
        assert a.grad is b.grad is c.grad is None

    def test_zero_dimensional_gradients_stay_arrays(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        h = x * 2.0
        (h * h + h).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == ()
        assert x.grad == 2.0 * (2.0 * 6.0 + 1.0)

    def test_stack_lends_views_and_a_leaf_still_gets_its_own(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        inner = Tensor(np.ones(3), requires_grad=True) * 2.0
        out = Tensor.stack([leaf, inner])
        seen_inner, seen_out = _spy(inner), _spy(out)
        (out * out).sum().backward()
        assert np.shares_memory(seen_inner["grad"], seen_out["grad"])
        assert not np.shares_memory(leaf.grad, seen_out["grad"])
        assert leaf.grad.tolist() == [2.0, 2.0, 2.0]

    def test_sum_hands_over_one_private_copy(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with engine.collect() as stats:
            _backprop(x.sum(axis=0), np.array([1.0, 2.0, 3.0]))
        assert stats.grad_copies == 0
        assert x.grad.flags.writeable and x.grad.flags.c_contiguous
        assert x.grad.tolist() == [[1.0, 2.0, 3.0]] * 2


class TestRepeatedBackward:
    def test_second_backward_over_the_same_graph_does_not_double_count(self):
        x = Tensor(np.ones(3), requires_grad=True)
        z = (x * 2).sum()
        z.backward()
        z.backward()
        assert x.grad.tolist() == [4.0, 4.0, 4.0]      # 6 before the fix

    def test_a_leaf_accumulates_across_two_graphs_without_zero_grad(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()
        first = x.grad
        (x * 3.0)[1:].sum().backward()
        assert x.grad is first                          # added in place
        assert x.grad.tolist() == [2.0, 7.0, 9.0]


# -- (c) indexing --------------------------------------------------------------

BASIC = {
    "disjoint": [np.s_[:2], np.s_[2:]],
    "overlapping": [np.s_[:3], np.s_[1:], np.s_[1:3, 2:]],
    "int": [np.s_[1], np.s_[-1, 2], np.s_[np.int64(0)]],
    "negative-step": [np.s_[::-1], np.s_[:, ::-2], np.s_[3:0:-2, 1:]],
    "none-ellipsis": [np.s_[None, ..., 1:], np.s_[..., None], np.s_[...],
                      np.s_[1:, None, 2]],
}
ADVANCED = {
    "duplicates": [np.s_[[0, 0, 2]], np.s_[[1, 1], [0, 0]]],
    "mixed": [np.s_[[3, 3], 1:], np.s_[:2]],
    "mask": [np.s_[np.arange(20).reshape(4, 5) % 3 == 0]],
}


def _slice_grads(indices, dtype, interior):
    """Gradient of ``sum_k (p[idx_k] * w_k).sum()`` w.r.t. the leaf; with
    ``interior`` the sliced parent is a relu under a negative weight, so
    its gradient holds ``-0.0`` before the slices arrive."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 5)).astype(dtype), requires_grad=True)
    p = x.relu() if interior else x
    loss = (p * Tensor(np.full((4, 5), -1.0, dtype=dtype))).sum() \
        if interior else None
    for idx in indices:
        part = p[idx]
        w = Tensor(rng.choice([-1.5, -0.0, 0.0, 2.0],
                              size=part.shape).astype(dtype))
        term = (part * w).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    return x.grad


class TestIndexing:
    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(BASIC))
    def test_basic_index_adds_in_place(self, case, dtype, interior,
                                       counting_numpy):
        with _pre_change_autograd():
            old = _slice_grads(BASIC[case], dtype, interior)
        fake = counting_numpy(forbid_add_at=True)
        new = _slice_grads(BASIC[case], dtype, interior)
        assert new.dtype == old.dtype == dtype
        assert new.tobytes() == old.tobytes()
        # One zeros buffer per sliced parent at most, not one per slice.
        assert fake.zeros_like_calls <= 1

    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("case", sorted(ADVANCED))
    def test_advanced_index_still_scatters_with_add_at(self, case, interior,
                                                       counting_numpy):
        with _pre_change_autograd():
            old = _slice_grads(ADVANCED[case], np.float64, interior)
        fake = counting_numpy()
        new = _slice_grads(ADVANCED[case], np.float64, interior)
        assert new.tobytes() == old.tobytes()
        advanced = sum(not tensor_module._is_basic_index(i)
                       for i in ADVANCED[case])
        assert fake.add_at_calls == advanced > 0

    def test_duplicate_rows_are_each_counted(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        x[[0, 0, 2]].sum().backward()
        assert x.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]

    def test_negative_zero_upstream_lands_as_positive_zero(self):
        """What ``np.add.at`` on zeros did: 0.0 + -0.0 = +0.0."""
        x = Tensor(np.ones(4), requires_grad=True)
        _backprop(x[1:3], np.array([-0.0, -0.0]))
        assert not np.signbit(x.grad).any()

    def test_a_leaf_gradient_replaced_from_outside_is_not_trusted(self):
        """Horovod swaps pooled arrays into ``p.grad`` between passes: a
        leaf that grew its buffer from zeros last time cannot assume the
        array it finds now holds no ``-0.0``."""
        def grads():
            x = Tensor(np.ones(3), requires_grad=True)
            x[0:2].sum().backward()
            x.grad = np.array([-0.0, -0.0, -0.0])
            x[0:1].sum().backward()
            return _bits([x.grad])

        old, new = _both(grads)
        assert old == new == _bits([np.array([1.0, 0.0, 0.0])])

    def test_mixed_precision_rounds_through_the_parent_dtype(self):
        def grads():
            x = Tensor(np.linspace(0, 1, 6, dtype=np.float32),
                       requires_grad=True)
            wide = Tensor(np.linspace(1, 2, 3) / 3.0)          # float64
            ((x[:3] * wide).sum() + (x[1:4] * wide).sum()).backward()
            return _bits([x.grad])

        old, new = _both(grads)
        assert old == new

    def test_a_bool_is_not_a_basic_index(self):
        assert not tensor_module._is_basic_index(True)
        assert not tensor_module._is_basic_index((0, np.True_))
        assert tensor_module._is_basic_index((0, slice(None), None, ...))


# -- (d) the oracle ------------------------------------------------------------

VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0]
SHAPE = (3, 4)


def _index_strategy(shape):
    per_axis = [st.one_of(st.slices(n), st.integers(-n, n - 1)) if n
                else st.slices(n) for n in shape]
    return st.tuples(*per_axis)


@st.composite
def programs(draw):
    """Leaves plus a chain of ops, each reading earlier tensors by
    position; binary ops pair a tensor with an earlier one of its shape
    (itself if there is none, which is the ``x + x`` / ``x * x`` case)."""
    n_leaves = draw(st.integers(1, 3))
    leaves = [(draw(st.sampled_from([np.float64, np.float32])),
               draw(st.lists(st.sampled_from(VALUES), min_size=12,
                             max_size=12)))
              for _ in range(n_leaves)]
    shapes = [SHAPE] * n_leaves
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ["add", "mul", "relu", "neg", "slice", "slice", "gather"]))
        i = draw(st.integers(0, len(shapes) - 1))
        if kind in ("add", "mul"):
            j = draw(st.integers(0, len(shapes) - 1))
            ops.append((kind, i, j))
            shapes.append(shapes[i])
        elif kind == "slice" and shapes[i]:
            idx = draw(_index_strategy(shapes[i]))
            ops.append((kind, i, idx))
            shapes.append(np.empty(shapes[i])[idx].shape)
        elif kind == "gather" and shapes[i] and shapes[i][0]:
            rows = draw(st.lists(st.integers(0, shapes[i][0] - 1),
                                 min_size=1, max_size=4))
            ops.append((kind, i, rows))
            shapes.append((len(rows),) + shapes[i][1:])
        else:                  # also an index drawn for a 0-d or empty tensor
            ops.append(("neg" if kind == "neg" else "relu", i))
            shapes.append(shapes[i])
    # ``None``: the tensor does not enter the loss directly, so a full
    # ``+=`` does not wash out what the slices left in its gradient.
    weights = [draw(st.sampled_from([None, None, -1.0, 1.0, 0.5, -0.0]))
               for _ in shapes[:-1]] + [draw(st.sampled_from([-1.0, 2.0]))]
    return leaves, ops, weights


def _run_program(program):
    leaves, ops, weights = program
    pool = [Tensor(np.array(values, dtype=dtype).reshape(SHAPE),
                   requires_grad=True) for dtype, values in leaves]
    for op in ops:
        kind, i = op[0], op[1]
        a = pool[i]
        if kind in ("add", "mul"):
            b = pool[op[2]] if pool[op[2]].shape == a.shape else a
            pool.append(a + b if kind == "add" else a * b)
        elif kind in ("slice", "gather"):
            pool.append(a[op[2]])
        elif kind == "relu":
            pool.append(a.relu())
        else:
            pool.append(-a)
    loss = None
    for t, w in zip(pool, weights):
        if w is not None:
            term = (t * w).sum()
            loss = term if loss is None else loss + term
    loss.backward()
    return [t.grad if t.grad is None else _bits([t.grad])
            for t in pool[:len(leaves)]]


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_every_leaf_gradient_matches_the_pre_change_bits(self, program):
        old, new = _both(lambda: _run_program(program))
        assert old == new

    def test_comparing_bytes_sees_what_assignment_would_break(self):
        upstream = np.array([-0.0, 1.0])

        def grads():
            x = Tensor(np.ones(3), requires_grad=True)
            _backprop(x[0:2], upstream)
            return x.grad

        old, new = _both(grads)
        assigned = np.zeros(3)
        assigned[0:2] = upstream
        assert np.array_equal(assigned, new)         # equal as numbers
        assert _bits([old]) == _bits([new]) != _bits([assigned])


# -- (e) the GRU step scatters nothing ------------------------------------------

class TestGruStepScatter:
    def test_no_add_at_and_one_zeros_buffer_per_sliced_parent(
            self, counting_numpy, monkeypatch):
        model, loss_fn = _gru()
        sliced = []
        getitem = Tensor.__getitem__

        def recording_getitem(self, idx):
            if self.requires_grad:
                sliced.append(self)
            return getitem(self, idx)

        monkeypatch.setattr(Tensor, "__getitem__", recording_getitem)
        fake = counting_numpy(forbid_add_at=True)
        loss = loss_fn()
        opt = SGD(model.parameters(), lr=0.01)
        opt.zero_grad()
        baseline = fake.zeros_like_calls         # forward allocates none
        loss.backward()
        opt.step()
        assert fake.add_at_calls == 0
        # A cell step is one node and slices no gates, and the first
        # layer's input needs no gradient: only the second layer's input,
        # one slice per time step, is scattered into, through one buffer.
        assert len(sliced) == 6
        assert fake.zeros_like_calls - baseline == len(set(sliced)) == 1


# -- (e') the GRU cell: one fused node, the per-op graph's bits -------------------

@st.composite
def _gru_cases(draw):
    return (draw(st.integers(1, 4)), draw(st.integers(1, 4)),   # N, D
            draw(st.integers(1, 5)), draw(st.integers(1, 4)),   # H, T
            draw(st.sampled_from([np.float32, np.float64])),
            draw(st.booleans()), draw(st.booleans()),   # x, h_prev need grad
            draw(st.booleans()),        # leaves already hold a gradient
            draw(st.booleans()),        # every step's output, or the last
            draw(st.integers(0, 2 ** 32 - 1)))


def _run_gru_cell(case):
    """T cell steps from a leaf state over leaf inputs; the output and
    every leaf's gradient."""
    n, d, h, t, dtype, x_grad, h_grad, pooled, sequences, seed = case
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = rng.normal(size=shape).astype(dtype)
        a[rng.random(shape) < 0.15] = -0.0
        return a

    cell = GRUCell(d, h, rng=rng)
    cell.b.data = draw(3 * h)
    params = [cell.W, cell.U, cell.b]
    for p in params[:2]:
        p.data = p.data.astype(dtype)
    xs = [Tensor(draw(n, d), requires_grad=x_grad) for _ in range(t)]
    h0 = Tensor(draw(n, h), requires_grad=h_grad)
    leaves = [p for p in params + xs + [h0] if p.requires_grad]
    if pooled:                  # the Horovod pool: ``+=`` into what is there
        for p in leaves:
            p.grad = draw(*p.shape)
    states = [h0]
    for x in xs:
        states.append(cell(x, states[-1]))
    out = Tensor.stack(states[1:]) if sequences else states[-1]
    _backprop(out, draw(*out.shape))
    return [out.data] + [p.grad for p in leaves]


def _check_against_old_gru_cell(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GRUCell, "forward", _old_gru_cell_forward)
        expected = _run_gru_cell(case)
    got = _run_gru_cell(case)
    assert _bits(got) == _bits(expected)
    assert [a.strides for a in got] == [a.strides for a in expected]


class TestGruCellOracle:
    """``GRUCell.forward`` is one node whose backward reruns the per-op
    graph's ufuncs; against that graph, kept above, the output and every
    gradient keep bytes, dtype and strides — signed zeros, float32
    rounding and the order of ``h_prev``'s contributions included."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_gru_cases())
    def test_matches_the_pre_change_cell(self, case):
        _check_against_old_gru_cell(case)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(_gru_cases())
    def test_matches_the_pre_change_cell_sweep(self, case):
        _check_against_old_gru_cell(case)

    def test_one_step_adds_one_node(self):
        rng = np.random.default_rng(0)
        cell = GRUCell(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h1 = cell(x, Tensor(np.zeros((2, 4))))
        h2 = cell(x, h1)
        assert h2._prev == (x, h1, cell.W, cell.U, cell.b)
        assert _graph(h2) == _graph(h1) | {h2}


# -- (e'') BatchNorm: one fused node, the per-op graph's bits -----------------

@st.composite
def _bn_cases(draw):
    ndim = draw(st.integers(2, 4))
    return (tuple(draw(st.integers(1, 4)) for _ in range(ndim)),  # N, C, ...
            draw(st.sampled_from([np.float32, np.float64])),      # x
            draw(st.sampled_from([np.float32, np.float64])),      # gamma, beta
            draw(st.booleans()),        # training (else eval)
            draw(st.booleans()),        # x is a leaf (else interior)
            draw(st.booleans()),        # x has a second consumer
            draw(st.booleans()),        # leaves already hold a gradient
            draw(st.integers(0, 2 ** 32 - 1)))


def _run_batchnorm(case):
    """Two forward calls (the running statistics move twice) and one
    backward; the output, every leaf's gradient and both statistics."""
    shape, dtype, pdtype, training, leaf, second, pooled, seed = case
    rng = np.random.default_rng(seed)

    def draw(*shape, dt=dtype):
        a = (rng.normal(size=shape) * 3.0 + 1.0).astype(dt)
        a[rng.random(shape) < 0.1] = -0.0
        return a

    bn = BatchNorm(shape[1])
    bn.gamma.data, bn.beta.data = draw(shape[1], dt=pdtype), draw(
        shape[1], dt=pdtype)
    bn.running_mean[:] = rng.normal(size=shape[1])
    bn.running_var[:] = rng.random(shape[1]) + 0.5
    if not training:
        bn.eval()
    x0 = Tensor(draw(*shape), requires_grad=True)
    x = x0 if leaf else x0 * Tensor(draw(*shape))
    leaves = [x0, bn.gamma, bn.beta]
    if pooled:                  # the Horovod pool: ``+=`` into what is there
        for p in leaves:
            p.grad = draw(*p.shape, dt=p.dtype)
    bn(x)
    out = bn(x)
    if second:
        out = out + x * Tensor(draw(*shape))
    _backprop(out, draw(*out.shape))
    return [out.data] + [p.grad for p in leaves] + [bn.running_mean,
                                                    bn.running_var]


def _check_against_old_batchnorm(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BatchNorm, "forward", _old_batchnorm_forward)
        expected = _run_batchnorm(case)
    got = _run_batchnorm(case)
    assert _bits(got) == _bits(expected)
    assert [a.strides for a in got] == [a.strides for a in expected]


class TestBatchNormOracle:
    """A training ``BatchNorm.forward`` is one node whose forward and
    backward rerun the per-op graph's ufuncs; against that graph, kept
    above, the output, every gradient and both running statistics keep
    bytes, dtype and strides — signed zeros, float32 rounding, mixed
    parameter dtypes and the order of x's three contributions included."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_bn_cases())
    def test_matches_the_pre_change_norm(self, case):
        _check_against_old_batchnorm(case)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(_bn_cases())
    def test_matches_the_pre_change_norm_sweep(self, case):
        _check_against_old_batchnorm(case)

    def test_one_call_adds_one_node(self):
        bn = BatchNorm(3)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 2, 2)),
                   requires_grad=True)
        y1 = bn(x)
        y2 = bn(y1)
        assert y2._prev == (y1, bn.gamma, bn.beta)
        assert _graph(y2) == _graph(y1) | {y2}

    def test_a_frozen_input_and_parameters_still_get_gradients(self):
        """The node adds into x, gamma and beta unconditionally, as the
        GRU cell does for its weights: a frozen one gets a ``.grad``."""
        bn = BatchNorm(2)
        bn.beta.requires_grad = False
        x = Tensor(np.arange(8.0).reshape(4, 2))
        bn(x).sum().backward()
        assert x.grad.shape == (4, 2) and bn.beta.grad.shape == (2,)


# -- (f) Horovod's pooled gradients ----------------------------------------------

class TestHorovodPool:
    def test_backward_without_zero_grad_adds_into_the_pooled_arrays(self):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(16, 4)), rng.integers(0, 2, size=16)

        def fn(comm):
            model = MLP([4, 6, 2], seed=1)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.1), comm)
            xb, yb = X[comm.rank::2], y[comm.rank::2]
            cross_entropy(model(Tensor(xb)), yb).backward()
            opt.step()
            params = model.parameters()
            pooled = [p.grad for p in params]
            assert all(p.grad is buf for p, buf in
                       zip(params, opt._grad_pool))
            averaged = [g.copy() for g in pooled]
            # No zero_grad: the next backward adds onto the averaged
            # gradients, in the pool's own arrays.
            cross_entropy(model(Tensor(xb)), yb).backward()
            assert all(p.grad is buf for p, buf in zip(params, pooled))
            twin = MLP([4, 6, 2], seed=1)
            twin.load_state_dict(model.state_dict())
            cross_entropy(twin(Tensor(xb)), yb).backward()
            for p, before, q in zip(params, averaged, twin.parameters()):
                before += q.grad
                assert p.grad.tobytes() == before.tobytes()
            return True

        assert run_spmd(fn, 2) == [True, True]


# -- max pooling: the precomputed scatter index -----------------------------------

class TestMaxPoolBackward:
    @pytest.mark.parametrize("kernel,stride", [(F.POOL, F.POOL)])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_matches_the_pre_change_scatter(self, kernel, stride,
                                            channels_last, counting_numpy):
        rng = np.random.default_rng(kernel * 10 + stride)
        data = rng.normal(size=(2, 3, 7, 7)).round(1)      # ties included
        if channels_last:                  # the layout conv2d hands on
            data = np.ascontiguousarray(
                data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        fake = counting_numpy()
        x = Tensor(data, requires_grad=True)
        out = F.max_pool2d(x)                    # stride = kernel
        upstream = rng.choice([-1.0, -0.0, 0.5, 2.0], size=out.shape)
        _backprop(out, upstream)
        expected = _old_max_pool2d_grad(data, upstream, kernel, stride)
        assert x.grad.tobytes() == expected.tobytes()
        assert x.grad.strides == expected.strides
        assert x.grad.flags.writeable
        assert fake.add_at_calls == 0


# -- convolution: the cached patch indices ----------------------------------------

def _old_im2col(x, kh, kw, stride):
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3))
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(
        n, out_h, out_w, c * kh * kw)
    return np.ascontiguousarray(cols)


def _old_col2im(cols, x_shape, kh, kw, stride):
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    grad = np.zeros(x_shape, dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            grad[:, :, i:i + stride * out_h:stride,
                 j:j + stride * out_w:stride] += cols6[:, :, :, :, i, j]
    return grad


def _old_conv2d(xd, wd, bd, stride, padding, upstream):
    """The pre-change ``conv2d`` and its backward on plain arrays:
    ``np.pad``, the strided im2col and the per-tap col2im loop.  Returns
    the output and the x, w, b gradients as leaves would keep them."""
    xp = xd
    if padding:
        xp = np.pad(xd, [(0, 0), (0, 0), (padding, padding),
                         (padding, padding)])
    out_c, _, kh, kw = wd.shape
    cols = _old_im2col(xp, kh, kw, stride)
    wmat = wd.reshape(out_c, -1)
    out = (cols @ wmat.T).transpose(0, 3, 1, 2) + bd.reshape(1, -1, 1, 1)
    g = upstream.transpose(0, 2, 3, 1)
    gw = np.tensordot(g, cols, axes=([0, 1, 2], [0, 1, 2])).reshape(wd.shape)
    gx = _old_col2im(g @ wmat, xp.shape, kh, kw, stride)
    if padding:     # the pad's backward handed a view on; the leaf copied it
        gx = np.array(gx[:, :, padding:-padding, padding:-padding], copy=True)
    return out, gx, gw, upstream.sum(axis=(0, 2, 3))


@st.composite
def _conv_cases(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    lo = max(1, k - 2 * padding)                 # at least one output cell
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(lo, lo + 5)), draw(st.integers(lo, lo + 5)))
    dtypes = (draw(st.sampled_from([np.float32, np.float64])),
              draw(st.sampled_from([np.float32, np.float64])))
    return (shape, k, stride, padding, dtypes, draw(st.booleans()),
            draw(st.integers(0, 2 ** 32 - 1)))


def _no_pad(*args, **kwargs):
    raise AssertionError("np.pad called")


def _no_tensordot(*args, **kwargs):
    raise AssertionError("np.tensordot called")


def _check_against_old_conv2d(case):
    (n, c, h, w), k, stride, padding, (xdt, wdt), channels_last, seed = case
    rng = np.random.default_rng(seed)
    out_c = int(rng.integers(1, 4))
    xd = rng.normal(size=(n, c, h, w)).astype(xdt)
    xd[rng.random(xd.shape) < 0.1] = -0.0
    if channels_last:                  # the layout conv2d hands on
        xd = np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    wd = rng.normal(size=(out_c, c, k, k)).astype(wdt)
    bd = rng.normal(size=out_c).astype(wdt)
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    upstream = rng.normal(size=(n, out_c, out_h, out_w)).astype(
        np.result_type(xdt, wdt))
    upstream[rng.random(upstream.shape) < 0.2] = -0.0
    expected = _old_conv2d(xd, wd, bd, stride, padding, upstream)
    x, weight, bias = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "pad", _no_pad)
        out = F.conv2d(x, weight, bias, stride=stride, padding=padding)
        _backprop(out, upstream)
    for got, want in zip((out.data, x.grad, weight.grad, bias.grad), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # The output is C-order NCHW (the old one was channels-last in memory);
    # every gradient keeps the old strides.
    assert out.data.flags.c_contiguous
    assert [a.strides for a in (x.grad, weight.grad, bias.grad)] == [
        a.strides for a in expected[1:]]


def _check_tap_index_inverts_the_gather_index(case):
    (_, c, h, w), k, stride, padding, *_ = case
    geometry = (c, h, w, k, k, stride, (padding, padding))
    gather = F._gather_index(*geometry).ravel()
    taps = F._tap_index(*geometry)
    assert taps.shape == (k * k, c * h * w) and taps.dtype == np.intp
    assert taps.flags.c_contiguous          # ``take`` would copy it per call
    assert taps.min() >= 0 and taps.max() <= gather.size   # the sentinel
    named = taps[taps < gather.size]
    # Every gather cell that reads the input is named exactly once ...
    assert np.array_equal(np.sort(named), np.flatnonzero(gather < c * h * w))
    # ... in its own tap's row and the column of the element it reads.
    rows, elements = np.nonzero(taps < gather.size)
    assert np.array_equal(named % (k * k), rows)
    assert np.array_equal(gather[named], elements)


def _check_phases_partition_the_tap_index(case):
    (_, c, h, w), k, stride, padding, *_ = case
    geometry = (c, h, w, k, k, stride, (padding, padding))
    sentinel = F._gather_index(*geometry).size
    taps = F._tap_index(*geometry).reshape(k * k, c, h, w)
    covered = np.zeros((c, h, w), dtype=bool)
    for a, b, index in F._phase_index(*geometry):
        mine = taps[:, :, a::stride, b::stride]
        assert index.dtype == np.intp and index.flags.c_contiguous
        assert index.shape[1:] == mine.shape[1:] and mine.size
        assert len(index) <= math.ceil(k / stride) ** 2  # taps that reach it
        assert not covered[:, a::stride, b::stride].any()
        covered[:, a::stride, b::stride] = True
        # Each element of the phase: the same cells, in the same (i, j) order.
        for got, want in zip(index.reshape(len(index), -1).T,
                             mine.reshape(k * k, -1).T):
            assert got[got < sentinel].tolist() == want[want < sentinel].tolist()
    assert (taps[:, ~covered] == sentinel).all()   # no tap reaches the rest


class TestConv2dIndices:
    """``conv2d`` gathers its patches through a cached index and each input
    element's taps through the index's inverse, per stride phase; against
    the pre-change ``np.pad`` + im2col + per-tap col2im, the output and
    every gradient keep bytes (signed zeros and float32 rounding
    included), the gradients their strides, and the output is C-order."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_conv_cases())
    def test_matches_the_pre_change_conv2d(self, case):
        _check_against_old_conv2d(case)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(_conv_cases())
    def test_matches_the_pre_change_conv2d_sweep(self, case):
        _check_against_old_conv2d(case)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_conv_cases())
    def test_tap_index_inverts_the_gather_index(self, case):
        _check_tap_index_inverts_the_gather_index(case)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(_conv_cases())
    def test_tap_index_inverts_the_gather_index_sweep(self, case):
        _check_tap_index_inverts_the_gather_index(case)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_conv_cases())
    def test_phases_partition_the_tap_index(self, case):
        _check_phases_partition_the_tap_index(case)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(_conv_cases())
    def test_phases_partition_the_tap_index_sweep(self, case):
        _check_phases_partition_the_tap_index(case)

    def test_only_an_input_that_needs_grad_builds_a_scatter_index(
            self, monkeypatch):
        """The indices that carry patch gradients back to the input (the
        tap index and its per-phase split) are built only for an input
        that needs a gradient, once per geometry: a second batch size
        reuses them."""
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        built = []
        tap_index = F._tap_index
        monkeypatch.setattr(F, "_tap_index",
                            lambda *g: built.append(g) or tap_index(*g))
        for stride in (1, 2):
            F._phase_index.cache_clear()
            built.clear()
            o = (5 + 2 - 3) // stride + 1
            _backprop(F.conv2d(Tensor(rng.normal(size=(2, 3, 5, 5))), w,
                               stride=stride, padding=1),
                      rng.normal(size=(2, 4, o, o)))
            assert w.grad is not None
            assert F._phase_index.cache_info().currsize == 0 and built == []
            for n in (2, 2, 5):
                x = Tensor(rng.normal(size=(n, 3, 5, 5)), requires_grad=True)
                _backprop(F.conv2d(x, w, stride=stride, padding=1),
                          rng.normal(size=(n, 4, o, o)))
            info = F._phase_index.cache_info()
            assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
            assert built == [(3, 5, 5, 3, 3, stride, (1, 1))]

    def test_backward_calls_neither_add_at_nor_tensordot(self, counting_numpy):
        rng = np.random.default_rng(3)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((2, 3, 6, 6), (4, 3, 3, 3), (4,)))
        fake = counting_numpy(forbid_add_at=True)
        fake.tensordot = _no_tensordot
        out = F.conv2d(x, w, b, stride=2, padding=1)
        _backprop(out, rng.normal(size=out.shape))
        assert fake.add_at_calls == 0
        assert all(t.grad is not None for t in (x, w, b))


# -- convolution: the lent scratch slots --------------------------------------------

#: ResNet-small's 3x3 convolutions that pass a gradient to their input, on
#: the e2e workloads' 8x8 patches at batch 20: (in, out, side, stride).
RESNET_CONVS = [(8, 8, 8, 1), (8, 16, 8, 2), (16, 16, 4, 1)]


def _conv_sequence(cases):
    """Each case checked against the old conv in turn, in one thread: every
    call reuses the slots the one before left, whatever their geometry
    and dtype."""
    for case in cases:
        _check_against_old_conv2d(case)


def _conv_bytes(c, out_c, side, stride, seed):
    """A conv's output and both gradients as bytes."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, c, side, side)), requires_grad=True)
    w = Tensor(rng.normal(size=(out_c, c, 3, 3)), requires_grad=True)
    out = F.conv2d(x, w, stride=stride, padding=1)
    _backprop(out, rng.normal(size=out.shape))
    return [a.tobytes() for a in (out.data, x.grad, w.grad)]


class TestConv2dScratch:
    """``conv2d`` takes its patch-sized temporaries (the padded copy, the
    patch gradient and each phase's tap gather) from byte slots that only
    grow, lent to one call at a time: the steady-state backward allocates
    less than the patch matrix, the bits hold whatever geometry and dtype
    used a slot before, a call that finds the slots lent to another
    thread keeps the bits, and no slot reaches a ``.grad``."""

    @pytest.mark.parametrize("c,out_c,side,stride", RESNET_CONVS)
    def test_steady_backward_allocates_less_than_the_patch_matrix(
            self, c, out_c, side, stride):
        rng = np.random.default_rng(1)
        peaks = []
        for _ in range(2):                 # the first call grows the slots
            x = Tensor(rng.normal(size=(20, c, side, side)),
                       requires_grad=True)
            w = Tensor(rng.normal(size=(out_c, c, 3, 3)), requires_grad=True)
            out = F.conv2d(x, w, stride=stride, padding=1)
            out.grad = rng.normal(size=out.shape)
            tracemalloc.start()
            try:
                out._backward(out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert x.grad is not None and w.grad is not None
        o = (side + 2 - 3) // stride + 1
        patch_bytes = 20 * o * o * c * 9 * 8
        assert peaks[1] < patch_bytes

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(_conv_cases(), min_size=2, max_size=4))
    def test_reused_slots_keep_the_pre_change_bits(self, cases):
        _conv_sequence(cases)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_conv_cases(), min_size=2, max_size=6))
    def test_reused_slots_keep_the_pre_change_bits_sweep(self, cases):
        _conv_sequence(cases)

    def test_threads_running_other_geometries_keep_the_bits(self):
        """Four threads, each its own geometry on repeat, with a short
        switch interval: every result equals the single-threaded run."""
        geometries = [(2, 3, 6, 1), (3, 2, 9, 2), (4, 4, 5, 1), (1, 5, 7, 2)]
        want = [_conv_bytes(*g, seed=i) for i, g in enumerate(geometries)]
        got = [[] for _ in geometries]

        def work(i):
            for _ in range(30):
                got[i].append(_conv_bytes(*geometries[i], seed=i))

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(geometries))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 30 for w in want]

    def test_no_gradient_lives_in_a_slot(self):
        rng = np.random.default_rng(5)
        x, w = (Tensor(rng.normal(size=s), requires_grad=True)
                for s in ((4, 3, 6, 6), (5, 3, 3, 3)))
        out = F.conv2d(x, w, padding=1)    # stride 1: the tap sum is x.grad
        _backprop(out, rng.normal(size=out.shape))
        kept = [a.copy() for a in (out.data, x.grad, w.grad)]
        # A later, smaller conv writes over the front of every slot.
        y, v = (Tensor(rng.normal(size=s), requires_grad=True)
                for s in ((2, 3, 5, 5), (5, 3, 3, 3)))
        later = F.conv2d(y, v, stride=2, padding=1)
        _backprop(later, rng.normal(size=later.shape))
        slots = list(F._SLOTS.values())
        assert len(slots) == 2
        for a in (out.data, x.grad, w.grad, later.data, y.grad, v.grad):
            assert not any(np.shares_memory(a, slot) for slot in slots)
        assert [a.tobytes() for a in (out.data, x.grad, w.grad)] == [
            a.tobytes() for a in kept]


# -- one memory layout ------------------------------------------------------------

class TestOneLayout:
    def test_a_resnet_step_is_c_order_throughout(self):
        """``conv2d`` hands on C-order NCHW, so every activation of a
        ResNet-small step and every gradient its backward passes on or
        leaves behind is C-contiguous: nothing downstream mixes layouts."""
        rng = np.random.default_rng(0)
        model = resnet_small(in_channels=12, n_classes=4, seed=0)
        loss = cross_entropy(model(Tensor(rng.normal(size=(20, 12, 8, 8)))),
                             rng.integers(0, 4, size=20))
        nodes = _graph(loss)
        grads = []
        for node in nodes:
            if node._prev:      # record the gradient each node passes on
                def backward(out, inner=node._backward):
                    grads.append(out.grad)
                    inner(out)
                node._backward = backward
        loss.backward()
        grads += [p.grad for p in model.parameters()]
        assert len(grads) == len([n for n in nodes if n._prev]) + 20
        assert all(n.data.flags.c_contiguous for n in nodes)
        assert all(g.flags.c_contiguous for g in grads)
