"""Gradient ownership in the autograd core (DESIGN §13).

A tensor's ``.grad`` is absent, borrowed (an interior node reading its
consumer's finished gradient) or owned (a private array it adds into);
producers hand over fresh temporaries, a basic-index slice adds straight
into its parent's buffer, and leaves always end up with a private,
writable array.  These tests pin who may alias whom, the state
transitions, the slice scatter, and — against the pre-change
``_accumulate`` and ``__getitem__`` kept below as the reference — that
every gradient keeps its bits, signed zeros included.

Nothing here selects an engine: CI runs the file under ``ENGINE=eager``
and ``ENGINE=lazy``, and the rule must hold on both.
"""

import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.functional as functional_module
from repro.distributed import DistributedOptimizer, broadcast_parameters
from repro.ml import engine
from repro.ml import functional as F
from repro.ml.losses import cross_entropy, l2_regularisation, mae
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.ml.optim import SGD
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
        # gates_x and gates_h of every cell step, three slices each, and
        # the first layer's output sequence, one slice per time step.
        assert len(sliced) == 2 * 6 * 2 * 3 + 6
        assert fake.zeros_like_calls - baseline == len(set(sliced)) == 25


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
