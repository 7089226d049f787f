"""Reverse-mode autodiff on NumPy arrays, over a lazy execution engine.

The DL substrate of this reproduction (the paper's TensorFlow/Keras and
pyTorch stand-in).  A :class:`Tensor` wraps either a realized ``ndarray``
or a recorded :class:`~repro.ml.engine.graph.LazyExpr`; operations build
a DAG of closures and :meth:`Tensor.backward` runs reverse topological
accumulation.  All arithmetic is broadcasting-aware: gradients are summed
back over broadcast dimensions (:func:`unbroadcast`).

Execution modes (``ENGINE=eager|lazy``, see :mod:`repro.ml.engine`):

* **eager** (default) — every op runs its executor immediately;
* **lazy** — primitive ops record graph nodes; demanding bytes
  (``.data``, ``.item()``, ``backward()``, a boundary op such as conv2d)
  runs every pending node's executor once, in topological order, and
  caches its result (:mod:`repro.ml.engine.cpu`).

Both modes are bit-identical by construction: every primitive goes
through :func:`_apply`, whose two branches run the same
:data:`~repro.ml.engine.ops.OPS` executor on the same arguments — now,
or when a realize reaches the recorded node.  Dtypes are preserved —
float32 stays float32 end-to-end; integer inputs promote to float64
(gradients need a float domain); a python scalar operand adopts the
tensor's dtype (weak promotion), so ``x * 0.5`` never silently upcasts a
float32 model.

Everything is vectorised NumPy, no Python loops inside kernels; the im2col
convolutions (:mod:`repro.ml.functional`), the GRU cell (:mod:`repro.ml.rnn`)
and a training BatchNorm (:mod:`repro.ml.layers`), each one fused node per
call as cuDNN's are, are eager boundary ops.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.ml.engine import state as _engine_state
from repro.ml.engine.graph import LazyExpr
from repro.ml.engine.ops import MOVEMENT, OPS
from repro.ml.engine.stats import STATS as _STATS

ArrayLike = Union["Tensor", np.ndarray, float, int, list]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _no_backward(out: "Tensor") -> None:
    """Backward of a tensor no op produced."""


#: What a tensor may do with the array in its ``.grad`` (DESIGN §13).
_BORROWED = 0      # a consumer's finished gradient or a view of it: read-only
_OWNED = 1         # a private array: ``+=`` allowed
_ZERO_GROWN = 2    # private, grown from ``np.zeros`` by ``+=``: holds no -0.0


def _count_grad_copy() -> None:
    """A tensor had to make a private array out of a gradient it could
    neither take over nor borrow (``grad_copies_per_step`` in the bench)."""
    if _STATS.enabled:
        _STATS.grad_copies += 1


def _is_basic_index(idx) -> bool:
    """Ints, slices, ``None`` and ``Ellipsis`` only: the index selects a
    view, so no element is addressed twice."""
    return all(
        i is None or i is Ellipsis or isinstance(i, slice)
        or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
        for i in (idx if isinstance(idx, tuple) else (idx,)))


def _node(data, parents: tuple["Tensor", ...], backward) -> "Tensor":
    """The result of a differentiable op over ``parents``: it joins the
    autograd graph (keeps ``parents`` and ``backward``) only if a parent
    requires grad, so an inference pass holds no input alive."""
    for p in parents:
        if p.requires_grad:
            out = Tensor(data, True, parents)
            out._backward = backward
            return out
    return Tensor(data)


def _apply(op: str, parents: tuple["Tensor", ...], backward,
           **kwargs) -> "Tensor":
    """The one path of every primitive: run or record ``OPS[op]`` over
    ``parents``, then build the node as :func:`_node` does.

    Eager runs the executor a lazy realize runs later, counting the op
    and its output buffer when stats are on.
    """
    if _engine_state.lazy:
        # Every primitive has one or two parents.
        a = parents[0]._lazy or parents[0]._payload()
        data = LazyExpr.make(op, (a,) if len(parents) == 1 else
                             (a, parents[1]._lazy or parents[1]._payload()),
                             kwargs)
    else:
        spec = OPS[op]
        args = []
        for p in parents:           # ``p.data``, minus the property call
            d = p._data
            args.append(d if d is not None else p.data)
        data = spec.execute(args, kwargs)
        if _STATS.enabled and spec.kind != MOVEMENT:
            _STATS.eager_ops += 1
            _STATS.eager_alloc_bytes += data.nbytes
    # :func:`_node`, spelled out: the hot path stays two frames per op.
    for p in parents:
        if p.requires_grad:
            out = Tensor(data, True, parents)
            out._backward = backward
            return out
    return Tensor(data)


class Tensor:
    """A differentiable array (realized or lazily recorded)."""

    __slots__ = ("_data", "_lazy", "grad", "_grad_state", "requires_grad",
                 "_backward", "_prev")
    __array_priority__ = 100  # numpy defers binary ops to us

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
    ) -> None:
        if isinstance(data, Tensor):
            data = data._lazy if data._data is None else data._data
        if isinstance(data, LazyExpr):
            self._data: Optional[np.ndarray] = None
            self._lazy: Optional[LazyExpr] = data
        else:
            arr = np.asarray(data)
            if arr.dtype.kind != "f":
                # Integers/bools promote (gradients live in a float
                # domain); float32/float16 are preserved as-is.
                arr = arr.astype(np.float64)
            self._data = arr
            self._lazy = None
        self.grad: Optional[np.ndarray] = None
        self._grad_state = _BORROWED
        self.requires_grad = requires_grad
        # Called as ``t._backward(t)``: a backward function takes its own
        # output as the argument instead of closing over it, so storing it
        # here makes no reference cycle and a step's graph — activations
        # included — dies with the loss rather than waiting for the GC.
        self._backward: Callable[["Tensor"], None] = _no_backward
        self._prev = _prev

    # -- lazy plumbing ---------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The realized ndarray (forces lazy evaluation on demand)."""
        d = self._data
        if d is None:
            d = self._lazy.result
            if d is None:
                d = self._lazy.realize()
            self._data = d
        return d

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._lazy = None          # any recorded expr is stale now

    def _payload(self) -> LazyExpr:
        """This realized tensor as a lazy-graph input: a leaf, memoized
        (:func:`_apply` takes a recorded tensor's ``_lazy`` itself)."""
        lz = self._lazy = LazyExpr(self._data)
        return lz

    # -- introspection --------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        d = self._data
        return d.shape if d is not None else self._lazy.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        d = self._data
        return d.size if d is not None else self._lazy.size

    @property
    def dtype(self):
        d = self._data
        return d.dtype if d is not None else self._lazy.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self._lazy if self._data is None else self._data,
                      requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- autograd engine -------------------------------------------------------
    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add one contribution to ``.grad`` without copying it twice.

        ``fresh`` means the caller computed ``grad`` as a temporary that
        nothing else references: it becomes this tensor's own array.
        Otherwise it is a consumer's finished ``out.grad`` or a view of
        it, which an interior node borrows read-only and a leaf copies —
        optimizers and the Horovod/DeepSpeed buffers write through a
        leaf's ``.grad``, so that one aliases nothing.
        """
        g = self.grad
        if g is None:
            if fresh:
                # A 0-d ufunc result is a NumPy scalar, not an array.
                self.grad = grad if grad.ndim else np.asarray(grad)
                self._grad_state = _OWNED
            elif self._prev:
                self.grad = grad
                self._grad_state = _BORROWED
            else:
                _count_grad_copy()
                self.grad = np.array(grad, copy=True)
                self._grad_state = _OWNED
        elif self._grad_state or not self._prev:
            g += grad
        else:
            # Copy-then-``+=`` in one pass, laid out as the copy would be.
            _count_grad_copy()
            self.grad = np.add(g, grad, out=np.empty_like(g))
            self._grad_state = _OWNED

    def _scatter_buffer(self) -> np.ndarray:
        """``.grad`` as a private array a basic-index ``+=`` may add into.

        The sum must carry the bits of accumulating a zeros array with
        the slice scattered into it (what an advanced index still does):
        adding a zeros-based array turns every ``-0.0`` already in
        ``.grad`` into ``+0.0``, so an array that did not grow from zeros
        gets ``+ 0.0`` once.  Only an interior node's state is trusted
        (its ``.grad`` lives inside one backward pass; a leaf's can be
        replaced from outside between passes).
        """
        g = self.grad
        if g is None:
            g = np.zeros_like(self.data)
        elif self._grad_state == _ZERO_GROWN and self._prev:
            return g
        elif self._grad_state or not self._prev:
            g += 0.0
        else:
            _count_grad_copy()
            g = np.add(g, 0.0, out=np.empty_like(g))
        self.grad = g
        self._grad_state = _ZERO_GROWN
        return g

    def backward(self) -> None:
        """Reverse-mode accumulation from this scalar tensor (a loss).

        Gradients land in the leaves; an interior node's ``.grad`` is
        dropped as soon as it has been propagated, so a second call over
        the same graph starts clean.  This tensor keeps its own.
        """
        if self.size != 1:
            raise ValueError("backward() requires a scalar output")
        grad = np.ones_like(self.data)
        # Iterative post-order walk; ``None`` on the stack says the entry
        # under it has had its inputs pushed and is finished.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[Optional[Tensor]] = [self]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            if node is None:
                topo.append(pop())
                continue
            if node in visited:
                continue
            visited.add(node)
            push(node)
            push(None)
            for parent in node._prev:
                # A node no op produced has nothing to propagate.
                if parent._prev and parent not in visited:
                    push(parent)
        self.grad = np.asarray(grad, dtype=self.data.dtype).reshape(self.shape)
        self._grad_state = _BORROWED
        for node in reversed(topo):
            node._backward(node)
            if node is not self:
                node.grad = None

    @staticmethod
    def as_tensor(x: ArrayLike) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _coerce(self, x: ArrayLike) -> "Tensor":
        """Like :meth:`as_tensor`, but a python/0-d numeric scalar adopts
        this tensor's float dtype (weak promotion — a literal constant
        must not upcast a float32 graph to float64)."""
        if isinstance(x, Tensor):
            return x
        arr = np.asarray(x)
        if arr.ndim == 0 and arr.dtype.kind in "bif" and self.dtype.kind == "f":
            return Tensor(arr.astype(self.dtype))
        return Tensor(arr)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(out) -> None:
            # Same shape: pass out.grad on; broadcast: a fresh sum.
            g = out.grad
            for t in (self, other):
                if t.requires_grad:
                    gt = unbroadcast(g, t.shape)
                    t._accumulate(gt, fresh=gt is not g)

        return _apply("add", (self, other), backward)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(out) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(out.grad * other.data,
                                             self.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(unbroadcast(out.grad * self.data,
                                              other.shape), fresh=True)

        return _apply("mul", (self, other), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Tensor":
        def backward(out) -> None:
            self._accumulate(-out.grad, fresh=True)

        return _apply("neg", (self,), backward)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(out) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(out.grad / other.data,
                                             self.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(unbroadcast(
                    -out.grad * self.data / (other.data ** 2),
                    other.shape), fresh=True)

        return _apply("div", (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(out) -> None:
            self._accumulate(out.grad * exponent
                             * self.data ** (exponent - 1), fresh=True)

        return _apply("pow", (self,), backward, exponent=exponent)

    __radd__ = __add__
    __rmul__ = __mul__

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)
        if self.ndim == 0 or other.ndim == 0:
            raise ValueError("matmul does not support 0-d operands")
        # NumPy semantics for 1-D operands: lift, contract, squeeze.  The
        # lift runs through autograd reshapes, so unbroadcast gradients
        # come out right for vec·mat, mat·vec and vec·vec for free.
        a = self.reshape(1, self.shape[0]) if self.ndim == 1 else self
        b = other.reshape(other.shape[0], 1) if other.ndim == 1 else other
        out = a._matmul2d(b)
        if self.ndim == 1 and other.ndim == 1:
            return out.reshape(())
        if self.ndim == 1:
            return out.reshape(out.shape[:-2] + out.shape[-1:])
        if other.ndim == 1:
            return out.reshape(out.shape[:-1])
        return out

    def _matmul2d(self, other: "Tensor") -> "Tensor":
        """Batched matmul, both operands of ndim >= 2."""
        def backward(out) -> None:
            g = out.grad
            a, b = self.data, other.data
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                self._accumulate(unbroadcast(ga, a.shape), fresh=True)
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ g
                other._accumulate(unbroadcast(gb, b.shape), fresh=True)

        return _apply("matmul", (self, other), backward)

    # -- elementwise nonlinearities ------------------------------------------------
    def _unary(self, op: str, grad_fn) -> "Tensor":
        """An elementwise op whose gradient is ``grad_fn(self, out)``."""
        def backward(out) -> None:
            self._accumulate(grad_fn(self, out), fresh=True)

        return _apply(op, (self,), backward)

    def exp(self) -> "Tensor":
        return self._unary("exp", lambda t, out: out.grad * out.data)

    def log(self) -> "Tensor":
        return self._unary("log", lambda t, out: out.grad / t.data)

    def tanh(self) -> "Tensor":
        return self._unary("tanh",
                           lambda t, out: out.grad * (1.0 - out.data ** 2))

    def sigmoid(self) -> "Tensor":
        return self._unary(
            "sigmoid",
            lambda t, out: out.grad * out.data * (1.0 - out.data))

    def relu(self) -> "Tensor":
        return self._unary("relu", lambda t, out: out.grad * (t.data > 0))

    def abs(self) -> "Tensor":
        return self._unary("abs",
                           lambda t, out: out.grad * np.sign(t.data))

    # -- reductions -------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(out) -> None:
            g = out.grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                shape = [1 if i in axes else s
                         for i, s in enumerate(self.shape)]
                g = g.reshape(shape)
            # A C-order array, not the zero-stride view: a different
            # layout reaches BLAS with different strides.
            full = np.empty(self.shape, dtype=g.dtype)
            full[...] = g
            self._accumulate(full, fresh=True)

        return _apply("sum", (self,), backward, axis=axis, keepdims=keepdims)

    def mean(self, axis=None) -> "Tensor":
        count = self.size if axis is None else (
            math.prod([self.shape[a % self.ndim] for a in
                       (axis if isinstance(axis, tuple) else (axis,))])
        )
        return self.sum(axis=axis) * (1.0 / float(count))

    def max(self) -> "Tensor":
        """The maximum over the last axis, which is kept (size 1)."""
        def backward(out) -> None:
            mask = (self.data == out.data)
            # Split gradient evenly among ties (rare but keeps sums exact).
            counts = mask.sum(axis=-1, keepdims=True)
            self._accumulate(mask * out.grad / counts, fresh=True)

        return _apply("max", (self,), backward, axis=-1, keepdims=True)

    # -- shape manipulation -----------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out) -> None:
            self._accumulate(out.grad.reshape(self.shape))

        return _apply("reshape", (self,), backward, shape=shape)

    def transpose(self, *axes) -> "Tensor":
        axes = axes or tuple(reversed(range(self.ndim)))
        axes = tuple(a % self.ndim for a in axes)
        inverse = np.argsort(axes)

        def backward(out) -> None:
            self._accumulate(out.grad.transpose(inverse))

        return _apply("transpose", (self,), backward, axes=axes)

    def __getitem__(self, idx) -> "Tensor":
        # Boundary op: arbitrary indexing shapes are data-dependent, so
        # this realizes its input rather than recording a lazy node.
        data = self.data[idx]
        dtype = data.dtype

        def backward(out) -> None:
            if _is_basic_index(idx):
                # ``+=``, never assignment: 0.0 + -0.0 is +0.0, as
                # np.add.at on zeros made it; rounded through the
                # parent's dtype, as np.add.at's zeros were.
                self._scatter_buffer()[idx] += out.grad.astype(
                    dtype, copy=False)
            else:
                g = np.zeros_like(self.data)
                np.add.at(g, idx, out.grad)
                self._accumulate(g, fresh=True)

        return _node(data, (self,), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"]) -> "Tensor":
        """Stack along a new axis 1 (a sequence's time steps)."""
        tensors = tuple([Tensor.as_tensor(t) for t in tensors])

        def backward(out) -> None:
            for i, t in enumerate(tensors):
                if t.requires_grad:
                    t._accumulate(out.grad[:, i])

        return _node(np.stack([t.data for t in tensors], axis=1),
                     tensors, backward)
