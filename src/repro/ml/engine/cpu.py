"""Fused-kernel execution on NumPy: the lazy engine's one device.

:meth:`Device.realize` is the engine's executor: *match or compile, then
replay* (DESIGN §12).  A binding recorded on the root's entry
(:func:`~repro.ml.engine.graph.bind`) hands over the plan and its
registers without a walk; otherwise the realize walks the pending
subgraph (:func:`~repro.ml.engine.graph.pending`),
:func:`~repro.ml.engine.fuser.schedule` runs once and its kernels are
flattened into per-op steps with each kernel's counters worked out
ahead; the new binding keeps that plan.

A plan replays the exact eager ufunc sequence of each kernel in topo
order, retargeting a dying temp the kernel allocated itself as the
``out=`` buffer of the next elementwise op on exact shape/dtype matches
only — where ``ufunc(..., out=buf)`` gives bit-identical values.  It
holds indices and numbers, never an array or a graph node.  Buffers are
not pooled across replays: a kernel output escapes into a ``Tensor``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.ml.engine.fuser import schedule
from repro.ml.engine.graph import Binding, LazyExpr, bind, pending
from repro.ml.engine.ops import ELEMENTWISE_KINDS, MOVEMENT, OPS
from repro.ml.engine.stats import STATS


class PlannedKernel(NamedTuple):
    """One fused kernel of a plan — registers and numbers, nothing live."""

    #: Per op: ``(execute, argument register, second argument register or
    #: None, out= register, destination)`` — every op takes one or two.
    steps: tuple[tuple[Callable, int, Optional[int], Optional[int], int],
                 ...]
    outs: tuple[int, ...]       #: cached on their nodes: saved interiors, output
    interior: tuple[int, ...]   #: executed through and dropped
    n_ops: int
    allocs: int
    alloc_bytes: int


class Device:
    """Where fused kernels run: :meth:`realize` finds or compiles the plan
    of the pending subgraph and replays it on NumPy."""

    def _compile(self, root: LazyExpr, topo: list[LazyExpr],
                 external: list[LazyExpr]) -> tuple[PlannedKernel, ...]:
        """Schedule ``root`` and flatten its kernels into a plan over the
        registers ``topo + external``."""
        reg = {id(node): i for i, node in enumerate(topo + external)}
        plan = []
        for kernel in schedule(root):
            inside = {id(node) for node in kernel.nodes}
            steps = []
            allocs = alloc_bytes = 0
            for node in kernel.nodes:
                spec = OPS[node.op]
                # Every non-final node of a kernel is elementwise, feeds
                # this one consumer and sits in a buffer the kernel
                # allocated: unless it is saved for backward, an
                # in-kernel input is a dying, owned temp.
                reuse = None
                if node.kind in ELEMENTWISE_KINDS:
                    for src in node.inputs:
                        if (id(src) in inside and not src.saved
                                and src.shape == node.shape
                                and src.dtype == node.dtype):
                            reuse = reg[id(src)]
                            break
                if node.kind != MOVEMENT and reuse is None:
                    allocs += 1
                    alloc_bytes += node.nbytes
                args = [reg[id(src)] for src in node.inputs]
                steps.append((spec.execute, args[0],
                              args[1] if len(args) > 1 else None,
                              reuse, reg[id(node)]))
            plan.append(PlannedKernel(
                tuple(steps),
                tuple(reg[id(node)] for node in kernel.outputs),
                tuple(reg[id(node)] for node in kernel.nodes[:-1]
                      if not node.saved),
                kernel.n_ops, allocs, alloc_bytes))
        return tuple(plan)

    def realize(self, root: LazyExpr) -> np.ndarray:
        stats = STATS if STATS.enabled else None
        b = root.entry.binding
        bound = bind(root, b) if b is not None else None
        if bound is not None:
            topo, external = bound
            plan = b.plan
        else:
            topo, external, edges = pending(root)
            plan = self._compile(root, topo, external)
            root.entry.binding = Binding(plan, root.saved, *edges)
            if stats is not None:
                stats.graph_walks += 1
        if stats is not None:
            stats.realizes += 1
            stats.recomputes += root.fused_away
        regs = [None] * len(topo)
        regs.extend([src.result for src in external])
        for kernel in plan:
            for execute, i, j, reuse, dst in kernel.steps:
                value = execute([regs[i]] if j is None else [regs[i], regs[j]],
                                topo[dst].kwargs,
                                None if reuse is None else regs[reuse])
                if not isinstance(value, np.ndarray):
                    # Ufuncs/reductions over 0-d operands hand back numpy
                    # scalars; keep every value an ndarray so it can be
                    # cached as a result or retargeted as an out= buffer.
                    value = np.asarray(value)
                regs[dst] = value
            for i in kernel.outs:
                topo[i].result = regs[i]
            for i in kernel.interior:   # executed through, not kept
                topo[i].fused_away = True
                regs[i] = None
            if stats is not None:
                stats.kernels += 1
                stats.fused_ops += kernel.n_ops
                stats.kernel_allocs += kernel.allocs
                stats.kernel_alloc_bytes += kernel.alloc_bytes
        return root.result


#: The instance every realize goes through (:meth:`LazyExpr.realize`).
DEVICE = Device()
