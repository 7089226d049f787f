"""The lazy op graph: :class:`LazyExpr` nodes recorded behind ``Tensor``.

Under ``ENGINE=lazy`` every primitive Tensor op appends a node here
instead of calling NumPy.  Nothing executes until someone demands bytes
(``Tensor.data``, ``.item()``, ``backward()``, a functional boundary op
like conv2d) — at that point the fuser schedules the reachable subgraph
into fused kernels and the current device runs them.

Realization caches results only at kernel *outputs*: interior nodes of a
fused chain stay unmaterialized, which is where the allocation savings
come from.  The interiors autograd will need are known when they are
recorded — ``Tensor`` marks exactly what each backward closure reads as
``saved`` — and a saved interior is an additional output of its kernel,
so ``backward()`` finds it materialized.  Demanding any *other* interior
afterwards re-schedules it from its nearest materialized ancestors,
counted in :data:`~repro.ml.engine.stats` as ``recomputes`` (0 in a
training step).

:func:`pending` is the walk every realize starts with: one pass over the
pending subgraph yields its topo order, its realized inputs and a
*structural key* under which the device caches the compiled plan.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

import repro.ml.engine.device as _device   # cycle: bound by name, used at call time
from repro.ml.engine.ops import LEAF, OPS

#: ``(sig, (shape, dtype) per input) -> (kind, shape, dtype)``: an op's
#: inference is a pure function of these, and a training loop asks the
#: same few hundred questions every step.
_INFERRED: dict[tuple, tuple[str, tuple[int, ...], np.dtype]] = {}
_INFERRED_MAX = 4096


class LazyExpr:
    """One node of the lazy graph.

    ``inputs`` are other :class:`LazyExpr` instances (leaves wrap realized
    ndarrays).  ``result`` is the cached ndarray once this node has been
    materialized; leaves are born realized.
    """

    __slots__ = ("op", "kind", "inputs", "kwargs", "shape", "dtype",
                 "result", "fused_away", "saved", "sig")

    def __init__(self, op: str, kind: str,
                 inputs: tuple["LazyExpr", ...],
                 kwargs: dict[str, Any],
                 shape: tuple[int, ...], dtype: np.dtype,
                 result: Optional[np.ndarray] = None,
                 sig: tuple = ("leaf", ())) -> None:
        self.op = op
        self.kind = kind
        self.inputs = inputs
        self.kwargs = kwargs
        self.shape = shape
        self.dtype = dtype
        self.result = result
        #: ``(op, kwargs by type and value)`` — this node's part of a
        #: plan key (see :func:`pending`).
        self.sig = sig
        #: Set once a kernel executed *through* this node without caching
        #: it; a later realize() of this node is a recompute.
        self.fused_away = False
        #: Set by ``Tensor`` when a backward closure will read this value:
        #: a kernel that fuses through the node keeps it as an extra output.
        self.saved = False

    # -- constructors --------------------------------------------------------
    @classmethod
    def leaf(cls, arr: np.ndarray) -> "LazyExpr":
        return cls("leaf", LEAF, (), {}, arr.shape, arr.dtype, result=arr)

    @classmethod
    def make(cls, op: str, inputs: tuple["LazyExpr", ...],
             **kwargs: Any) -> "LazyExpr":
        # Type beside value: NumPy tells ``2.0`` from ``np.float64(2.0)``
        # (the latter upcasts a float32 base) though they compare equal.
        sig = (op, tuple([(k, v.__class__, v) for k, v in kwargs.items()]))
        key = (sig, *[(i.shape, i.dtype) for i in inputs])
        try:
            inferred = _INFERRED.get(key)
        except TypeError:               # unhashable kwarg (an array bound):
            sig = (op, object())        # a sig equal to no other, so this
            key = inferred = None       # node's graphs never share a plan
        if inferred is None:
            spec = OPS[op]
            shape, dtype = spec.infer(tuple(i.shape for i in inputs),
                                      tuple(i.dtype for i in inputs), kwargs)
            inferred = spec.kind, tuple(shape), np.dtype(dtype)
            if key is not None:
                if len(_INFERRED) >= _INFERRED_MAX:
                    _INFERRED.clear()
                _INFERRED[key] = inferred
        kind, shape, dtype = inferred
        return cls(op, kind, inputs, kwargs, shape, dtype, None, sig)

    # -- introspection -------------------------------------------------------
    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def realized(self) -> bool:
        return self.result is not None

    # -- realization ---------------------------------------------------------
    def realize(self) -> np.ndarray:
        """Materialize this node (scheduling + running fused kernels)."""
        if self.result is None:
            _device.get_device().realize(self)
        return self.result


def pending(root: LazyExpr) -> tuple[list[LazyExpr], list[LazyExpr], tuple]:
    """Walk the pending subgraph of ``root`` once.

    Returns ``(topo, external, key)``: the unrealized nodes reachable from
    ``root`` (parents before children, ``root`` last), the realized nodes
    they read (leaves and earlier kernel outputs, first use first), and
    the subgraph's structural key.  The key holds, per pending node, its
    ``sig``, its ``saved`` flag and where each input comes from (``i`` =
    ``topo[i]``, ``~s`` = ``external[s]``), and per external its shape and
    dtype — everything fusion, buffer reuse and kernel cost depend on, and
    no array: ``x*x`` and ``x*y``, a realized and a pending ancestor, a
    kept and a dropped interior, one batch size and another all key
    differently; two steps of one training loop do not.
    """
    topo: list[LazyExpr] = []
    visited: set[int] = set()
    stack: list[tuple[LazyExpr, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for src in node.inputs:
            if src.result is None and id(src) not in visited:
                stack.append((src, False))
    where = {id(node): i for i, node in enumerate(topo)}
    external: list[LazyExpr] = []
    key = []
    for node in topo:
        for src in node.inputs:
            if id(src) not in where:
                where[id(src)] = ~len(external)
                external.append(src)
        key.append((node.sig, node.saved,
                    *[where[id(src)] for src in node.inputs]))
    return topo, external, (tuple(key),
                            tuple([(e.shape, e.dtype) for e in external]))
