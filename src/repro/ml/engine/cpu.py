"""Op-by-op execution on NumPy: the lazy engine's one device.

:meth:`Device.realize` runs what was recorded: :func:`schedule` walks
the pending subgraph of the root into execution order, then each node's
executor — the one eager :func:`~repro.ml.tensor._apply` calls, with the
same arguments — runs once and its result is cached on the node.  So a
lazy realize computes what eager would, ufunc for ufunc, and a node that
was realized is never computed again.
"""

from __future__ import annotations

import numpy as np

from repro.ml.engine.ops import MOVEMENT, OPS
from repro.ml.engine.stats import STATS


def schedule(root) -> list:
    """The unrealized nodes reachable from ``root`` (a
    :class:`~repro.ml.engine.graph.LazyExpr`), parents first, ``root``
    last: the order :meth:`Device.realize` runs them in."""
    order = []
    visited: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for src in node.inputs:
            if src.result is None and id(src) not in visited:
                stack.append((src, False))
    return order


class Device:
    """Where recorded ops run: :meth:`realize` executes the pending
    subgraph of a node on NumPy, one op at a time."""

    def realize(self, root) -> np.ndarray:
        stats = STATS if STATS.enabled else None
        for node in schedule(root):
            spec = OPS[node.op]
            value = spec.execute([src.result for src in node.inputs],
                                 node.kwargs)
            if not isinstance(value, np.ndarray):
                # Ufuncs/reductions over 0-d operands hand back numpy
                # scalars; keep every cached result an ndarray.
                value = np.asarray(value)
            node.result = value
            node.inputs = ()            # nothing reads them again
            if stats is not None:
                fresh = spec.kind != MOVEMENT   # a view allocates nothing
                stats.kernels += 1
                stats.kernel_allocs += fresh
                stats.kernel_alloc_bytes += fresh * value.nbytes
        if stats is not None:
            stats.realizes += 1
        return root.result


#: The instance every realize goes through (:meth:`LazyExpr.realize`).
DEVICE = Device()
