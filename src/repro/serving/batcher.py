"""Dynamic micro-batching: one queue with size/timeout triggers.

GPU inference throughput is overwhelmingly batch-driven — one V100 forward
pass over 16 samples costs barely more than over one (the fixed host
overhead in :class:`~repro.distributed.perfmodel.InferencePerfModel`
dominates small batches).  The batcher therefore holds arriving requests
briefly to fill batches, governed by the two classic triggers:

* :data:`MAX_BATCH_REQUESTS` — dispatch immediately once the queue holds
  a full batch,
* :data:`MAX_WAIT_S` — never hold the queue head longer than this, however
  empty the batch (the latency cost of batching is bounded).

The engine serves one model, so one FIFO queue holds every request.  It
is a plain deterministic data structure — the engine drives it from
simulated events and asks two questions: "is a batch ready now?" and
"when must a timer fire?".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.serving.request import Request

#: Tolerance when comparing simulated times (timer fires exactly at the
#: deadline; float addition must not push it an ULP short).
_EPS = 1e-9


#: Requests in a full batch (the size trigger).
MAX_BATCH_REQUESTS = 8
#: Longest a queue head waits before its batch ships (the timeout trigger).
MAX_WAIT_S = 0.010


class MicroBatcher:
    """One FIFO queue under the size and timeout triggers."""

    def __init__(self) -> None:
        #: ``(enqueue time, request)``, head first.
        self._queue: deque[tuple[float, Request]] = deque()
        self._wait_stretch = 1.0

    @property
    def depth(self) -> int:
        """Requests queued (read on every arrival)."""
        return len(self._queue)

    def set_wait_stretch(self, factor: float) -> None:
        """Scale :data:`MAX_WAIT_S` by ``factor`` (brownout throughput mode).

        Stretching the window trades queueing latency for bigger batches —
        the mildest rung of the degradation ladder.  ``factor=1`` restores
        the configured window.
        """
        if factor < 1.0:
            raise ValueError("wait stretch must be >= 1")
        self._wait_stretch = factor

    @property
    def effective_wait_s(self) -> float:
        return MAX_WAIT_S * self._wait_stretch

    # -- enqueue ------------------------------------------------------------
    def enqueue(self, req: Request, now: float, front: bool = False) -> None:
        """Add a request; ``front=True`` re-queues drained failover work.

        Re-queued requests keep their *original* arrival as the enqueue
        time, so their wait already exceeds :data:`MAX_WAIT_S` and they ship in
        the very next batch rather than waiting out a fresh timer.
        """
        if front:
            self._queue.appendleft((req.arrival_s, req))
        else:
            self._queue.append((now, req))

    def requeue_front(self, requests: list[Request]) -> None:
        """Put drained requests back at the head, preserving their order."""
        for req in reversed(requests):
            self.enqueue(req, req.arrival_s, front=True)

    # -- inspection ---------------------------------------------------------
    def ready_model(self, now: float) -> bool:
        """Whether the queue should dispatch now: it holds a full batch or
        its head has waited out :data:`MAX_WAIT_S`.  (The name is the one
        ``benchmarks/e2e/layers.py:WRAPS`` times.)"""
        q = self._queue
        return bool(q) and (len(q) >= MAX_BATCH_REQUESTS
                            or now - q[0][0] >= self.effective_wait_s - _EPS)

    def next_deadline(self) -> Optional[float]:
        """When the queue head hits :data:`MAX_WAIT_S` (timer target)."""
        if not self._queue:
            return None
        return self._queue[0][0] + self.effective_wait_s

    # -- dispatch -----------------------------------------------------------
    def take(self) -> list[Request]:
        """Pop up to one batch from the queue, FIFO order."""
        q = self._queue
        if not q:
            raise ValueError("no queued requests")
        return [q.popleft()[1] for _ in range(min(len(q), MAX_BATCH_REQUESTS))]
