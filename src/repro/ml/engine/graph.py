"""The lazy op graph: :class:`LazyExpr` nodes recorded behind ``Tensor``.

Under ``ENGINE=lazy`` every primitive Tensor op appends a node here
instead of calling NumPy.  Nothing executes until someone demands bytes
(``Tensor.data``, ``.item()``, ``backward()``, a boundary op like
conv2d); then the device runs the reachable subgraph as fused kernels,
caching results only at kernel outputs.  What backward closures read is
marked ``saved`` when recorded and kept as an extra kernel output; any
other interior demanded later is recomputed (``recomputes``, 0 in a
training step).

Each node is recorded under an :class:`Entry` (:meth:`LazyExpr.make`),
whose :class:`Binding` s let a realize find its plan without a walk
(:func:`bind`); :func:`pending` is the walk a realize falls back to.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Any, NamedTuple, Optional

import numpy as np

import repro.ml.engine.device as _device   # cycle: bound by name, used at call time
from repro.ml.engine.ops import LEAF, OPS


class Binding(NamedTuple):
    """How one realize found its registers: kept on its root's entry, so
    the next realize of a node under that entry needs no walk
    (:func:`bind`)."""

    device: object      #: the plan's device (its kernel costs)
    plan: tuple
    root_saved: bool
    #: Per pending node but the root, last first: ``(i, j, k, saved)`` —
    #: ``topo[i]`` is ``topo[j].inputs[k]``; then per edge into a realized
    #: input ``(s, j, k)`` — ``external[s]`` is ``topo[j].inputs[k]``.
    topo: tuple[tuple[int, int, int, bool], ...]
    external: tuple[tuple[int, int, int], ...]


class Entry:
    """What every node recorded under one key shares: the inferred
    ``kind``/``shape``/``dtype`` and the binding of the last realize
    rooted at such a node that walked.  The key
    (:meth:`LazyExpr.make`) holds, per input, ``(entry, distance)`` for a
    pending one — distance = ops its thread recorded since — or ``(shape,
    dtype)`` for a realized one, so an entry stands for one pending
    ancestry, and holds no node or array.
    """

    __slots__ = ("kind", "shape", "dtype", "binding")

    def __init__(self, kind: str, shape: tuple[int, ...],
                 dtype: np.dtype) -> None:
        self.kind, self.shape, self.dtype = kind, shape, dtype
        self.binding: Optional[Binding] = None


#: Key -> :class:`Entry`; cleared when full (a live node keeps its entry).
_ENTRIES: dict[tuple, Entry] = {}
_ENTRIES_MAX = 8192


class _Counter(threading.local):
    """Ops recorded on this thread; each thread counts in its own range."""

    _ranges = itertools.count()

    def __init__(self) -> None:
        self.seq = next(self._ranges) << 40


_counter = _Counter()
_new = object.__new__


class LazyExpr:
    """One node of the lazy graph.

    ``inputs`` are other :class:`LazyExpr` instances (leaves wrap realized
    ndarrays).  ``result`` is the cached ndarray once this node has been
    materialized; leaves are born realized.  ``entry`` and ``seq`` are the
    :class:`Entry` a recorded node is under and its place in its thread's
    recording.  ``fused_away`` is set once a kernel executed *through* the
    node without caching it (a later realize() of it is a recompute);
    ``saved`` by ``Tensor`` when a backward closure will read the value, so
    a kernel that fuses through the node keeps it as an extra output.
    """

    __slots__ = ("op", "kind", "inputs", "kwargs", "shape", "dtype",
                 "result", "fused_away", "saved", "entry", "seq")

    def __init__(self, arr: np.ndarray) -> None:
        """A leaf (every other node comes from :meth:`make`)."""
        self.op = "leaf"
        self.kind = LEAF
        self.inputs = ()
        self.kwargs = {}
        self.shape = arr.shape
        self.dtype = arr.dtype
        self.result = arr
        self.entry = None
        self.seq = 0
        self.fused_away = self.saved = False

    @classmethod
    def make(cls, op: str, inputs: tuple["LazyExpr", ...],
             kwargs: dict[str, Any]) -> "LazyExpr":
        # Type beside value: NumPy tells ``2.0`` from ``np.float64(2.0)``
        # (the latter upcasts a float32 base) though they compare equal.
        kw = tuple([(k, v.__class__, v) for k, v in kwargs.items()]
                   ) if kwargs else ()
        counter = _counter
        seq = counter.seq
        counter.seq = seq + 1
        a = inputs[0]                   # every op takes one or two inputs
        if a.result is None:
            a1, a2 = a.entry, seq - a.seq
        else:
            a1, a2 = a.shape, a.dtype
        if len(inputs) == 1:
            key = (op, kw, a1, a2)
        elif inputs[1].result is None:
            key = (op, kw, a1, a2, inputs[1].entry, seq - inputs[1].seq)
        else:
            key = (op, kw, a1, a2, inputs[1].shape, inputs[1].dtype)
        try:
            entry = _ENTRIES.get(key)
        except TypeError:
            # An unhashable kwarg (a 0-d array size): an entry of its own,
            # so this node's graphs never share a plan.
            key = entry = None
        if entry is None:
            spec = OPS[op]
            shape, dtype = spec.infer(tuple(i.shape for i in inputs),
                                      tuple(i.dtype for i in inputs), kwargs)
            entry = Entry(spec.kind, tuple(shape), np.dtype(dtype))
            if key is not None:
                if len(_ENTRIES) >= _ENTRIES_MAX:
                    _ENTRIES.clear()
                _ENTRIES[key] = entry
        node = _new(cls)                # built inline: one frame less per op
        node.op = op
        node.kind = entry.kind
        node.inputs = inputs
        node.kwargs = kwargs
        node.shape = entry.shape
        node.dtype = entry.dtype
        node.result = None
        node.entry = entry
        node.seq = seq
        node.fused_away = node.saved = False
        return node

    # -- introspection -------------------------------------------------------
    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    # -- realization ---------------------------------------------------------
    def realize(self) -> np.ndarray:
        """Materialize this pending node (scheduling + running fused
        kernels)."""
        return _device.get_device().realize(self)


def pending(root: LazyExpr) -> tuple[list[LazyExpr], list[LazyExpr],
                                     tuple]:
    """Walk the pending subgraph of ``root`` once: ``(topo, external,
    edges)`` — the unrealized nodes reachable from ``root`` (parents
    first, ``root`` last), the realized nodes they read (first use first),
    and the edges a :class:`Binding` finds them along (DESIGN §12).
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
    found, edges = [None] * len(topo), []
    for j, node in enumerate(topo):
        for k, src in enumerate(node.inputs):
            i = where.get(id(src))
            if i is None:
                i = where[id(src)] = ~len(external)
                external.append(src)
            if i < 0:
                edges.append((~i, j, k))
            elif found[i] is None:
                found[i] = (i, j, k, src.saved)
    return topo, external, (tuple(reversed(found[:-1])), tuple(edges))


def bind(root: LazyExpr, b: Binding
         ) -> Optional[tuple[list[LazyExpr], list[LazyExpr]]]:
    """``(topo, external)`` of ``root`` as :func:`pending` returns them,
    found along ``b``'s edges — or None when the pending subgraph is not
    the recorded one.  ``root``'s entry fixes every ancestor that was
    pending when recorded, and which node feeds which (distances make two
    nodes one exactly when they were); what is checked here is what can
    still differ: what was realized since, ``saved`` marks, and which
    realized arrays are read.
    """
    if root.saved is not b.root_saved:
        return None
    topo = [root] * (len(b.topo) + 1)
    for i, j, k, saved in b.topo:
        node = topo[j].inputs[k]
        if node.result is not None or node.saved is not saved:
            return None
        topo[i] = node
    external: list[LazyExpr] = []
    for s, j, k in b.external:
        node = topo[j].inputs[k]
        if s == len(external):
            if node.result is None:
                return None
            external.append(node)
        elif external[s] is not node:
            return None
    if len(set(map(id, external))) != len(external):
        return None
    return topo, external
