"""Dynamic micro-batching: per-model queues with size/timeout triggers.

GPU inference throughput is overwhelmingly batch-driven — one V100 forward
pass over 16 samples costs barely more than over one (the fixed host
overhead in :class:`~repro.distributed.perfmodel.InferencePerfModel`
dominates small batches).  The batcher therefore holds arriving requests
briefly to fill batches, governed by the two classic triggers:

* :data:`MAX_BATCH_REQUESTS` — dispatch immediately once a queue holds a
  full batch,
* :data:`MAX_WAIT_S` — never hold the queue head longer than this, however
  empty the batch (the latency cost of batching is bounded).

Queues are strictly per model: batches never mix models (different models
would need different weights resident on the replica).  Everything is a
plain deterministic data structure — the engine drives it from simulated
events and asks two questions: "is a batch ready now?" and "when must a
timer fire?".
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
    """Per-model FIFO queues under the size and timeout triggers."""

    def __init__(self) -> None:
        self._queues: dict[str, deque[tuple[float, Request]]] = {}
        #: Requests queued over all models (read on every arrival).
        self.depth = 0
        self._wait_stretch = 1.0

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
        q = self._queues.setdefault(req.model, deque())
        self.depth += 1
        if front:
            q.appendleft((req.arrival_s, req))
        else:
            q.append((now, req))

    def requeue_front(self, requests: list[Request]) -> None:
        """Put drained requests back at the head, preserving their order."""
        for req in reversed(requests):
            self.enqueue(req, req.arrival_s, front=True)

    # -- inspection ---------------------------------------------------------
    def ready_model(self, now: float) -> Optional[str]:
        """The model whose queue should dispatch now, or ``None``.

        A queue is ready when it holds a full batch or its head has waited
        out :data:`MAX_WAIT_S`.  Among ready queues the deepest wins (drain the
        biggest backlog first); ties break on head age, then model name —
        all deterministic.
        """
        best: Optional[tuple[int, float, str]] = None
        for model, q in self._queues.items():
            if not q:
                continue
            wait = now - q[0][0]
            if len(q) >= MAX_BATCH_REQUESTS \
                    or wait >= self.effective_wait_s - _EPS:
                cand = (-len(q), -wait, model)
                if best is None or cand < best:
                    best = cand
        return best[2] if best is not None else None

    def next_deadline(self) -> Optional[float]:
        """Earliest time a queue head hits :data:`MAX_WAIT_S` (timer target)."""
        heads = [q[0][0] for q in self._queues.values() if q]
        if not heads:
            return None
        return min(heads) + self.effective_wait_s

    # -- dispatch -----------------------------------------------------------
    def take(self, model: str) -> list[Request]:
        """Pop up to one batch from ``model``'s queue, FIFO order."""
        q = self._queues.get(model)
        if not q:
            raise ValueError(f"no queued requests for model {model!r}")
        n = min(len(q), MAX_BATCH_REQUESTS)
        self.depth -= n
        return [q.popleft()[1] for _ in range(n)]
