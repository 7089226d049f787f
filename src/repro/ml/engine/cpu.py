"""Fused-kernel execution on NumPy and the ``cpu`` device.

:meth:`Device.realize` is the one executor every backend shares: *match
or compile, then replay* (DESIGN §12).  A binding recorded on the root's
entry (:func:`~repro.ml.engine.graph.bind`) hands over the plan and its
registers without a walk; otherwise the realize walks the pending
subgraph (:func:`~repro.ml.engine.graph.pending`),
:func:`~repro.ml.engine.fuser.schedule` runs once and its kernels are
flattened into per-op steps with each kernel's cost, counters and span
attributes worked out ahead; the new binding keeps that plan.

A plan replays the exact eager ufunc sequence of each kernel in topo
order, retargeting a dying temp the kernel allocated itself as the
``out=`` buffer of the next elementwise op on exact shape/dtype matches
only — where ``ufunc(..., out=buf)`` gives bit-identical values.  It
holds indices and numbers, never an array or a graph node.  Buffers are
not pooled across replays: a kernel output escapes into a ``Tensor``.

:class:`CpuDevice` prices kernels with a deterministic nominal cost
model (so CPU runs produce telemetry spans on a simulated clock too) —
the simulated-GPU device in :mod:`repro.ml.engine.simgpu` swaps in the
V100/A100 roofline from :mod:`repro.distributed.perfmodel` instead.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from repro import telemetry
from repro.ml.engine.fuser import Kernel, schedule
from repro.ml.engine.graph import Binding, LazyExpr, bind, pending
from repro.ml.engine.ops import ELEMENTWISE_KINDS, OPS
from repro.ml.engine.stats import STATS


class PlannedKernel(NamedTuple):
    """One fused kernel of a plan — registers and numbers, nothing live."""

    #: Per op: ``(execute, argument register, second argument register or
    #: None, out= register, destination)`` — every op takes one or two.
    steps: tuple[tuple[Callable, int, Optional[int], Optional[int], int],
                 ...]
    outs: tuple[int, ...]       #: cached on their nodes: saved interiors, output
    interior: tuple[int, ...]   #: executed through and dropped
    name: str                   #: of the telemetry span
    n_ops: int
    flops: float
    bytes_moved: int
    cost_ps: int
    allocs: int
    alloc_bytes: int


class Device:
    """A place fused kernels run.

    Concrete devices define :meth:`kernel_time_s`; :meth:`realize` finds
    or compiles the plan of the pending subgraph, replays it on NumPy,
    advances the device's deterministic clock and emits one telemetry
    span per fused kernel.  Plans carry this device's kernel costs, so a
    binding names its device: another device — or the fresh instance a
    ``register_device`` overwrite creates — compiles its own.
    """

    name = "abstract"

    def __init__(self) -> None:
        # Picoseconds on an integer clock: accumulation order cannot
        # perturb the total, so device time is deterministic even under
        # SPMD rank threads.
        self._time_ps = 0

    # -- clock ---------------------------------------------------------------
    @property
    def sim_time_s(self) -> float:
        return self._time_ps / 1e12

    def reset_clock(self) -> None:
        self._time_ps = 0

    # -- cost ------------------------------------------------------------------
    def kernel_time_s(self, flops: float, bytes_moved: int, n_ops: int) -> float:
        raise NotImplementedError

    def unfused_time_s(self, kernel: Kernel) -> float:
        """What the same nodes would cost launched one kernel per op."""
        total = 0.0
        for node in kernel.nodes:
            in_bytes = sum(src.nbytes for src in node.inputs)
            total += self.kernel_time_s(Kernel.node_flops(node),
                                        in_bytes + node.nbytes, 1)
        return total

    # -- execution ---------------------------------------------------------------
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
                if spec.allocates and reuse is None:
                    allocs += 1
                    alloc_bytes += node.nbytes
                args = [reg[id(src)] for src in node.inputs]
                steps.append((spec.execute, args[0],
                              args[1] if len(args) > 1 else None,
                              reuse, reg[id(node)]))
            flops, nbytes = kernel.flops, kernel.bytes_moved
            cost = self.kernel_time_s(flops, nbytes, kernel.n_ops)
            plan.append(PlannedKernel(
                tuple(steps),
                tuple(reg[id(node)] for node in kernel.outputs),
                tuple(reg[id(node)] for node in kernel.nodes[:-1]
                      if not node.saved),
                f"kernel:{kernel.name}", kernel.n_ops, flops, nbytes,
                int(round(cost * 1e12)), allocs, alloc_bytes))
        return tuple(plan)

    def realize(self, root: LazyExpr) -> np.ndarray:
        stats = STATS if STATS.enabled else None
        b = root.entry.binding
        bound = (bind(root, b) if b is not None and b.device is self
                 else None)
        if bound is not None:
            topo, external = bound
            plan = b.plan
        else:
            topo, external, edges = pending(root)
            plan = self._compile(root, topo, external)
            root.entry.binding = Binding(self, plan, root.saved, *edges)
            if stats is not None:
                stats.graph_walks += 1
        if stats is not None:
            stats.realizes += 1
            stats.recomputes += root.fused_away
        regs = [None] * len(topo)
        regs.extend([src.result for src in external])
        tracer = telemetry.get_tracer()
        tracing = tracer.enabled
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
            start_ps = self._time_ps
            self._time_ps += kernel.cost_ps
            if stats is not None:
                stats.kernels += 1
                stats.fused_ops += kernel.n_ops
                stats.kernel_allocs += kernel.allocs
                stats.kernel_alloc_bytes += kernel.alloc_bytes
            if tracing:
                start = start_ps / 1e12
                tracer.record(kernel.name, "compute", start,
                              self.sim_time_s - start, track="engine",
                              lane=self.name, ops=kernel.n_ops,
                              flops=kernel.flops, bytes=kernel.bytes_moved)
        return root.result


class CpuDevice(Device):
    """NumPy execution with a nominal deterministic cost model.

    The constants are not calibrated to any host — they only need to be
    stable so CPU telemetry spans and bench sim-times are reproducible.
    """

    name = "cpu"
    FLOPS_PER_S = 5.0e10
    BYTES_PER_S = 2.0e10
    DISPATCH_S = 1.0e-7

    def kernel_time_s(self, flops: float, bytes_moved: int, n_ops: int) -> float:
        return (self.DISPATCH_S
                + flops / self.FLOPS_PER_S
                + bytes_moved / self.BYTES_PER_S)
