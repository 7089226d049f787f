"""Engine counters: the numbers the ``tensor`` bench area regresses on.

One process-wide :class:`EngineStats` instance collects, when enabled,

* eager-path op/allocation counts (``Tensor`` increments these so the
  bench can price the op-by-op dispatch the lazy engine removes),
* lazy-path kernel counts, fused-op totals, kernel buffer allocations and
  bytes, recompute events (interior values demanded after their chain
  was fused away), and how many realizes replayed a cached plan
  (``plan_hits``) versus scheduled and compiled one (``plan_compiles``),
  and how many realizes walked the graph (``graph_walks``) because no
  binding recorded on their root's entry matched,
* on either path, ``grad_copies``: how often backward had to make a
  private array out of a gradient it could neither take over nor borrow.

Disabled (the default) every site pays a single attribute check, the
same contract the telemetry layer uses.  All counters are integers, so
totals are order-independent and deterministic even when SPMD rank
threads share the instance.
"""

from __future__ import annotations

from contextlib import contextmanager


class EngineStats:
    """Integer counters for both execution paths."""

    __slots__ = ("enabled", "eager_ops", "eager_alloc_bytes",
                 "kernels", "fused_ops", "kernel_allocs",
                 "kernel_alloc_bytes", "realizes", "recomputes",
                 "plan_hits", "plan_compiles", "graph_walks", "grad_copies")

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.eager_ops = 0
        self.eager_alloc_bytes = 0
        self.kernels = 0
        self.fused_ops = 0
        self.kernel_allocs = 0
        self.kernel_alloc_bytes = 0
        self.realizes = 0
        self.recomputes = 0
        self.plan_hits = 0
        self.plan_compiles = 0
        self.graph_walks = 0
        self.grad_copies = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__
                if name != "enabled"}

    @property
    def total_allocs(self) -> int:
        """Buffer allocations regardless of path (eager ops each allocate)."""
        return self.eager_ops + self.kernel_allocs


#: The process-wide instance every engine site increments.
STATS = EngineStats()


@contextmanager
def collect():
    """Reset + enable the counters for one measured region.

    >>> with engine.collect() as stats:
    ...     loss = model(x).sum(); loss.backward()
    >>> stats.kernels, stats.kernel_allocs
    """
    STATS.reset()
    prev = STATS.enabled
    STATS.enabled = True
    try:
        yield STATS
    finally:
        STATS.enabled = prev
