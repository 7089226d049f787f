"""Reverse-mode autodiff on NumPy arrays, over a lazy execution engine.

The DL substrate of this reproduction (the paper's TensorFlow/Keras and
pyTorch stand-in).  A :class:`Tensor` wraps either a realized ``ndarray``
or a recorded :class:`~repro.ml.engine.graph.LazyExpr`; operations build
a DAG of closures and :meth:`Tensor.backward` runs reverse topological
accumulation.  All arithmetic is broadcasting-aware: gradients are summed
back over broadcast dimensions (:func:`unbroadcast`).

Execution modes (``ENGINE=eager|lazy``, see :mod:`repro.ml.engine`):

* **eager** (default) — every op calls NumPy immediately, exactly the
  original op-by-op path;
* **lazy** — primitive ops record graph nodes; demanding bytes
  (``.data``, ``.item()``, ``backward()``, a boundary op such as conv2d)
  finds the pending subgraph's compiled plan (or schedules it through
  the fuser, once) and replays its fused kernels on the current device
  (``cpu`` or ``sim-gpu``).  Each op marks what its backward closure
  will read (:data:`_BACKWARD_READS`), the fuser keeps those values as
  kernel outputs, and ``backward()`` therefore recomputes nothing.

Both modes are bit-identical by construction: fused kernels replay the
same ufunc sequence in the same order, only eliding intermediate buffer
allocations.  Dtypes are preserved — float32 stays float32 end-to-end;
integer inputs promote to float64 (gradients need a float domain); a
python scalar operand adopts the tensor's dtype (weak promotion), so
``x * 0.5`` never silently upcasts a float32 model.

Everything is vectorised NumPy — per the optimisation guides, no Python
loops inside kernels; convolutions (in :mod:`repro.ml.functional`) lower
to im2col matmuls and act as (eager) boundary ops for the lazy graph.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.ml.engine import state as _engine_state
from repro.ml.engine.graph import LazyExpr
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


def _eager(arr: np.ndarray) -> np.ndarray:
    """Count one eager op + its output allocation when stats are on."""
    st = _STATS
    if st.enabled:
        st.eager_ops += 1
        st.eager_alloc_bytes += arr.nbytes
    return arr


#: The values (shapes are free) each primitive's backward closure reads,
#: per grad-requiring operand: operand positions, ``-1`` = the op's output.
#: ``add``/``neg``/``sum`` and the movement ops read none.
_BACKWARD_READS: dict[str, tuple[tuple[int, ...], ...]] = {
    "mul": ((1,), (0,)),            # d/da reads b, d/db reads a
    "div": ((1,), (0, 1)),
    "matmul": ((1,), (0,)),
    "pow": ((0,),), "log": ((0,),), "relu": ((0,),), "abs": ((0,),),
    "clip": ((0,),),
    "exp": ((-1,),), "tanh": ((-1,),), "sigmoid": ((-1,),),
    "max": ((0, -1),),
}


class Tensor:
    """A differentiable array (realized or lazily recorded)."""

    __slots__ = ("_data", "_lazy", "grad", "_grad_state", "requires_grad",
                 "_backward", "_prev", "name")
    __array_priority__ = 100  # numpy defers binary ops to us

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
        name: str = "",
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
        self.name = name

    # -- lazy plumbing ---------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The realized ndarray (forces lazy evaluation on demand)."""
        d = self._data
        if d is None:
            d = self._lazy.realize()
            self._data = d
        return d

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._lazy = None          # any recorded expr is stale now

    def _payload(self) -> LazyExpr:
        """This tensor as a lazy-graph input (memoized leaf if realized)."""
        lz = self._lazy
        if lz is None:
            lz = LazyExpr.leaf(self._data)
            self._lazy = lz
        return lz

    @property
    def realized(self) -> bool:
        return self._data is not None

    def realize(self) -> "Tensor":
        """Force materialization (no-op in eager mode)."""
        _ = self.data
        return self

    def _fwd(self, op: str, *others: "Tensor", **kwargs) -> object:
        """Forward payload for a primitive op: LazyExpr (lazy) or None
        (eager — caller computes the ndarray inline).  Under lazy, what
        the op's backward closure will read is marked ``saved`` so fusion
        keeps it materialized."""
        if not _engine_state.lazy:
            return None
        operands = (self, *others)
        nodes = tuple([t._payload() for t in operands])
        node = LazyExpr.make(op, nodes, **kwargs)
        reads = _BACKWARD_READS.get(op)
        if reads is not None:
            nodes += (node,)
            for t, values in zip(operands, reads):
                if t.requires_grad:
                    for i in values:
                        nodes[i].saved = True
        return node

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

    def __len__(self) -> int:
        shape = self.shape
        if not shape:
            raise TypeError("len() of unsized object")
        return shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

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
        optimizers, ``clip_grad_norm`` and the Horovod/DeepSpeed buffers
        write through a leaf's ``.grad``, so that one aliases nothing.
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

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode accumulation from this tensor.

        Gradients land in the leaves; an interior node's ``.grad`` is
        dropped as soon as it has been propagated, so a second call over
        the same graph starts clean.  This tensor keeps its own.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
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
        self._grad_state = _BORROWED       # possibly the caller's array
        for node in reversed(topo):
            node._backward(node)
            if node is not self:
                node.grad = None

    @staticmethod
    def _needs_grad(*tensors: "Tensor") -> bool:
        return any(t.requires_grad for t in tensors)

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
        rg = self.requires_grad or other.requires_grad
        data = self._fwd("add", other)
        if data is None:
            data = _eager(self.data + other.data)
        out = Tensor(data, requires_grad=rg,
                     _prev=(self, other) if rg else ())
        if rg:
            def backward(out) -> None:
                # Same shape: pass out.grad on; broadcast: a fresh sum.
                g = out.grad
                if self.requires_grad:
                    ga = unbroadcast(g, self.shape)
                    self._accumulate(ga, fresh=ga is not g)
                if other.requires_grad:
                    gb = unbroadcast(g, other.shape)
                    other._accumulate(gb, fresh=gb is not g)

            out._backward = backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        rg = self.requires_grad or other.requires_grad
        data = self._fwd("mul", other)
        if data is None:
            data = _eager(self.data * other.data)
        out = Tensor(data, requires_grad=rg,
                     _prev=(self, other) if rg else ())
        if rg:
            def backward(out) -> None:
                if self.requires_grad:
                    self._accumulate(unbroadcast(out.grad * other.data,
                                                 self.shape), fresh=True)
                if other.requires_grad:
                    other._accumulate(unbroadcast(out.grad * self.data,
                                                  other.shape), fresh=True)

            out._backward = backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Tensor":
        rg = self.requires_grad
        data = self._fwd("neg")
        if data is None:
            data = _eager(-self.data)
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            def backward(out) -> None:
                self._accumulate(-out.grad, fresh=True)

            out._backward = backward
        return out

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        rg = self.requires_grad or other.requires_grad
        data = self._fwd("div", other)
        if data is None:
            data = _eager(self.data / other.data)
        out = Tensor(data, requires_grad=rg,
                     _prev=(self, other) if rg else ())
        if rg:
            def backward(out) -> None:
                if self.requires_grad:
                    self._accumulate(unbroadcast(out.grad / other.data,
                                                 self.shape), fresh=True)
                if other.requires_grad:
                    other._accumulate(unbroadcast(
                        -out.grad * self.data / (other.data ** 2),
                        other.shape), fresh=True)

            out._backward = backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        rg = self.requires_grad
        data = self._fwd("pow", exponent=exponent)
        if data is None:
            data = _eager(self.data ** exponent)
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            def backward(out) -> None:
                self._accumulate(out.grad * exponent
                                 * self.data ** (exponent - 1), fresh=True)

            out._backward = backward
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) - self

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

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
        rg = self.requires_grad or other.requires_grad
        data = self._fwd("matmul", other)
        if data is None:
            data = _eager(self.data @ other.data)
        out = Tensor(data, requires_grad=rg,
                     _prev=(self, other) if rg else ())
        if rg:
            def backward(out) -> None:
                g = out.grad
                a, b = self.data, other.data
                if self.requires_grad:
                    ga = g @ np.swapaxes(b, -1, -2)
                    self._accumulate(unbroadcast(ga, a.shape), fresh=True)
                if other.requires_grad:
                    gb = np.swapaxes(a, -1, -2) @ g
                    other._accumulate(unbroadcast(gb, b.shape), fresh=True)

            out._backward = backward
        return out

    # -- elementwise nonlinearities ------------------------------------------------
    def _unary(self, op: str, eager_fn, backward_fn, **kwargs) -> "Tensor":
        """Shared scaffold: forward via engine or ``eager_fn(ndarray)``,
        backward via ``backward_fn(self, out)`` (deferred — nothing reads
        ``.data`` until gradients actually flow)."""
        rg = self.requires_grad
        data = self._fwd(op, **kwargs)
        if data is None:
            data = _eager(eager_fn(self.data))
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            def backward(out) -> None:
                self._accumulate(backward_fn(self, out), fresh=True)

            out._backward = backward
        return out

    def exp(self) -> "Tensor":
        return self._unary("exp", np.exp,
                           lambda t, out: out.grad * out.data)

    def log(self) -> "Tensor":
        return self._unary("log", np.log,
                           lambda t, out: out.grad / t.data)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        return self._unary("tanh", np.tanh,
                           lambda t, out: out.grad * (1.0 - out.data ** 2))

    def sigmoid(self) -> "Tensor":
        return self._unary(
            "sigmoid", lambda d: 1.0 / (1.0 + np.exp(-d)),
            lambda t, out: out.grad * out.data * (1.0 - out.data))

    def relu(self) -> "Tensor":
        return self._unary("relu", lambda d: d * (d > 0),
                           lambda t, out: out.grad * (t.data > 0))

    def abs(self) -> "Tensor":
        return self._unary("abs", np.abs,
                           lambda t, out: out.grad * np.sign(t.data))

    def clip(self, lo: float, hi: float) -> "Tensor":
        return self._unary(
            "clip", lambda d: np.clip(d, lo, hi),
            lambda t, out: out.grad * ((t.data >= lo) & (t.data <= hi)),
            lo=lo, hi=hi)

    # -- reductions -------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        rg = self.requires_grad
        data = self._fwd("sum", axis=axis, keepdims=keepdims)
        if data is None:
            data = _eager(self.data.sum(axis=axis, keepdims=keepdims))
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            def backward(out) -> None:
                g = out.grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    shape = [1 if i in axes else s
                             for i, s in enumerate(self.shape)]
                    g = g.reshape(shape)
                # A copy, not the zero-stride view: NumPy lays an
                # elementwise result out after its operands, and a
                # different layout reaches BLAS with different strides.
                self._accumulate(np.broadcast_to(g, self.shape).copy(),
                                 fresh=True)

            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else (
            np.prod([self.shape[a % self.ndim] for a in
                     (axis if isinstance(axis, tuple) else (axis,))])
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        rg = self.requires_grad
        data = self._fwd("max", axis=axis, keepdims=keepdims)
        if data is None:
            data = _eager(self.data.max(axis=axis, keepdims=keepdims))
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            def backward(out) -> None:
                g = out.grad
                ref = out.data
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    shape = [1 if i in axes else s
                             for i, s in enumerate(self.shape)]
                    g = g.reshape(shape)
                    ref = ref.reshape(shape)
                mask = (self.data == ref)
                # Split gradient evenly among ties (rare but keeps sums exact).
                counts = mask.sum(axis=axis, keepdims=True) \
                    if axis is not None else mask.sum()
                self._accumulate(mask * g / counts, fresh=True)

            out._backward = backward
        return out

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) ** 2
        return sq.mean(axis=axis, keepdims=keepdims)

    # -- shape manipulation -----------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        rg = self.requires_grad
        data = self._fwd("reshape", shape=shape)
        if data is None:
            data = self.data.reshape(shape)
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            def backward(out) -> None:
                self._accumulate(out.grad.reshape(self.shape))

            out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = axes or tuple(reversed(range(self.ndim)))
        axes = tuple(a % self.ndim for a in axes)
        rg = self.requires_grad
        data = self._fwd("transpose", axes=axes)
        if data is None:
            data = self.data.transpose(axes)
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        inverse = np.argsort(axes)
        if rg:
            def backward(out) -> None:
                self._accumulate(out.grad.transpose(inverse))

            out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        # Boundary op: arbitrary indexing shapes are data-dependent, so
        # this realizes its input rather than recording a lazy node.
        rg = self.requires_grad
        data = self.data[idx]
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            basic = _is_basic_index(idx)
            dtype = data.dtype

            def backward(out) -> None:
                if basic:
                    # ``+=``, never assignment: 0.0 + -0.0 is +0.0, as
                    # np.add.at on zeros made it; rounded through the
                    # parent's dtype, as np.add.at's zeros were.
                    self._scatter_buffer()[idx] += out.grad.astype(
                        dtype, copy=False)
                else:
                    g = np.zeros_like(self.data)
                    np.add.at(g, idx, out.grad)
                    self._accumulate(g, fresh=True)

            out._backward = backward
        return out

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.as_tensor(t) for t in tensors]
        rg = any(t.requires_grad for t in tensors)
        out = Tensor(
            np.concatenate([t.data for t in tensors], axis=axis),
            requires_grad=rg,
            _prev=tuple(tensors) if rg else (),
        )
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        if rg:
            def backward(out) -> None:
                for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                    if t.requires_grad:
                        sl = [slice(None)] * out.ndim
                        sl[axis] = slice(int(start), int(stop))
                        t._accumulate(out.grad[tuple(sl)])

            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.as_tensor(t) for t in tensors]
        rg = any(t.requires_grad for t in tensors)
        out = Tensor(
            np.stack([t.data for t in tensors], axis=axis),
            requires_grad=rg,
            _prev=tuple(tensors) if rg else (),
        )

        if rg:
            lead = (slice(None),) * (axis % out.ndim)

            def backward(out) -> None:
                for i, t in enumerate(tensors):
                    if t.requires_grad:
                        t._accumulate(out.grad[lead + (i,)])

            out._backward = backward
        return out

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two axes symmetrically (NCHW images)."""
        if pad == 0:
            return self
        rg = self.requires_grad
        data = self._fwd("pad2d", pad=pad)
        if data is None:
            widths = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
            data = _eager(np.pad(self.data, widths))
        out = Tensor(data, requires_grad=rg, _prev=(self,) if rg else ())
        if rg:
            def backward(out) -> None:
                sl = tuple([slice(None)] * (self.ndim - 2)
                           + [slice(pad, -pad), slice(pad, -pad)])
                self._accumulate(out.grad[sl])

            out._backward = backward
        return out


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Factory mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False, dtype=np.float64) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False, dtype=np.float64) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)
