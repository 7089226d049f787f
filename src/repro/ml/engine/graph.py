"""The lazy op graph: :class:`LazyExpr` nodes recorded behind ``Tensor``.

Under ``ENGINE=lazy`` every primitive Tensor op appends a node here
instead of calling NumPy.  Nothing executes until someone demands bytes
(``Tensor.data``, ``.item()``, ``backward()``, a boundary op like
conv2d); then :mod:`~repro.ml.engine.cpu` runs each pending node of the
reachable subgraph once, in topological order, and caches its result.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.ml.engine.ops import OPS

_new = object.__new__


class LazyExpr:
    """One node of the lazy graph.

    ``inputs`` are other :class:`LazyExpr` instances (leaves wrap realized
    ndarrays).  ``result`` is the cached ndarray once this node has been
    materialized; leaves are born realized.
    """

    __slots__ = ("op", "inputs", "kwargs", "shape", "dtype", "result")

    def __init__(self, arr: np.ndarray) -> None:
        """A leaf (every other node comes from :meth:`make`)."""
        self.op = "leaf"
        self.inputs = ()
        self.kwargs = {}
        self.shape = arr.shape
        self.dtype = arr.dtype
        self.result = arr

    @classmethod
    def make(cls, op: str, inputs: tuple["LazyExpr", ...],
             kwargs: dict[str, Any]) -> "LazyExpr":
        shape, dtype = OPS[op].infer(tuple([i.shape for i in inputs]),
                                     tuple([i.dtype for i in inputs]), kwargs)
        node = _new(cls)                # built inline: one frame less per op
        node.op = op
        node.inputs = inputs
        node.kwargs = kwargs
        node.shape = tuple(shape)
        node.dtype = np.dtype(dtype)
        node.result = None
        return node

    # -- introspection -------------------------------------------------------
    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    # -- realization ---------------------------------------------------------
    def realize(self) -> np.ndarray:
        """Materialize this pending node and every pending node it reads."""
        return _cpu.DEVICE.realize(self)


# Last, for the cycle: ``cpu`` imports this module's names, and
# :meth:`LazyExpr.realize` looks ``_cpu.DEVICE`` up at call time.
import repro.ml.engine.cpu as _cpu  # noqa: E402
