"""Dynamic micro-batching: per-model queues with size/timeout triggers.

GPU inference throughput is overwhelmingly batch-driven — one V100 forward
pass over 16 samples costs barely more than over one (the fixed host
overhead in :class:`~repro.distributed.perfmodel.InferencePerfModel`
dominates small batches).  The batcher therefore holds arriving requests
briefly to fill batches, governed by the two classic knobs:

* ``max_batch_requests`` — dispatch immediately once a queue holds a full
  batch,
* ``max_wait_s`` — never hold the queue head longer than this, however
  empty the batch (the latency cost of batching is bounded).

Queues are strictly per model: batches never mix models (different models
would need different weights resident on the replica).  Everything is a
plain deterministic data structure — the engine drives it from simulated
events and asks two questions: "is a batch ready now?" and "when must a
timer fire?".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.serving.request import Request

#: Tolerance when comparing simulated times (timer fires exactly at the
#: deadline; float addition must not push it an ULP short).
_EPS = 1e-9


@dataclass(frozen=True)
class BatchPolicy:
    """The two micro-batching knobs."""

    max_batch_requests: int = 8
    max_wait_s: float = 0.010

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")


class MicroBatcher:
    """Per-model FIFO queues under one :class:`BatchPolicy`."""

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self._queues: dict[str, deque[tuple[float, Request]]] = {}
        #: Requests queued over all models (read on every arrival).
        self.depth = 0
        self._wait_stretch = 1.0

    def set_wait_stretch(self, factor: float) -> None:
        """Scale ``max_wait_s`` by ``factor`` (brownout throughput mode).

        Stretching the window trades queueing latency for bigger batches —
        the mildest rung of the degradation ladder.  ``factor=1`` restores
        the configured window.
        """
        if factor < 1.0:
            raise ValueError("wait stretch must be >= 1")
        self._wait_stretch = factor

    @property
    def effective_wait_s(self) -> float:
        return self.policy.max_wait_s * self._wait_stretch

    # -- enqueue ------------------------------------------------------------
    def enqueue(self, req: Request, now: float, front: bool = False) -> None:
        """Add a request; ``front=True`` re-queues drained failover work.

        Re-queued requests keep their *original* arrival as the enqueue
        time, so their wait already exceeds ``max_wait_s`` and they ship in
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
    def depth_of(self, model: str) -> int:
        return len(self._queues.get(model, ()))

    def oldest_wait(self, model: str, now: float) -> float:
        q = self._queues.get(model)
        if not q:
            return 0.0
        return now - q[0][0]

    def ready_model(self, now: float) -> Optional[str]:
        """The model whose queue should dispatch now, or ``None``.

        A queue is ready when it holds a full batch or its head has waited
        out ``max_wait_s``.  Among ready queues the deepest wins (drain the
        biggest backlog first); ties break on head age, then model name —
        all deterministic.
        """
        best: Optional[tuple[int, float, str]] = None
        for model, q in self._queues.items():
            if not q:
                continue
            wait = now - q[0][0]
            if len(q) >= self.policy.max_batch_requests \
                    or wait >= self.effective_wait_s - _EPS:
                cand = (-len(q), -wait, model)
                if best is None or cand < best:
                    best = cand
        return best[2] if best is not None else None

    def next_deadline(self) -> Optional[float]:
        """Earliest time a queue head hits ``max_wait_s`` (timer target)."""
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
        n = min(len(q), self.policy.max_batch_requests)
        self.depth -= n
        return [q.popleft()[1] for _ in range(n)]
