"""Result cache with request coalescing.

Online RS serving re-classifies the same scene tiles over and over (every
downstream consumer asks for the hot disaster area), so a small LRU over
request keys converts a large fraction of the offered load into
sub-millisecond hits that never touch a replica.

Two distinct fast paths, counted separately:

* **hit** — the key's result is already cached; the request completes
  after a constant lookup latency,
* **coalesced** — the key is *being computed right now* by an in-flight
  batch; the request attaches to that computation and completes with it
  (single-flight semantics).  Without coalescing, a popularity spike on a
  cold key stampedes the replicas with duplicate work.

The cache is a plain deterministic data structure on the simulated clock:
same trace, same hits, byte-identical metrics.
"""

from __future__ import annotations

from collections import OrderedDict


class ResultCache:
    """LRU keyed by request key; ``capacity <= 0`` disables caching."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._store: OrderedDict[int, float] = OrderedDict()
        #: Keys currently being computed -> waiting request ids.
        self._inflight: dict[int, list[int]] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without new replica work."""
        total = self.hits + self.misses + self.coalesced
        return (self.hits + self.coalesced) / total if total else 0.0

    def contains(self, key: int) -> bool:
        """Pure membership probe: would ``key`` hit or coalesce right now?

        Unlike :meth:`lookup` this touches no counters, no LRU order and
        no in-flight registration — the cache-only brownout rung uses it
        to decide admission without perturbing cache statistics.
        """
        return self.enabled and (key in self._store or key in self._inflight)

    # -- lookup path --------------------------------------------------------
    def lookup(self, key: int, req_id: int) -> str:
        """Classify one admitted request: ``hit``/``coalesce``/``miss``.

        A miss registers the key as in-flight — the caller must later call
        :meth:`complete` (or :meth:`abandon` if the computation died with
        no retry) exactly once per missed key.
        """
        if not self.enabled:
            return "miss"
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return "hit"
        if key in self._inflight:
            self._inflight[key].append(req_id)
            self.coalesced += 1
            return "coalesce"
        self.misses += 1
        self._inflight[key] = []
        return "miss"

    # -- completion path ----------------------------------------------------
    def complete(self, key: int, now: float) -> list[int]:
        """The in-flight computation of ``key`` finished at ``now``.

        Inserts the result, evicting LRU entries beyond capacity, and
        returns the coalesced waiter request ids to complete alongside.
        """
        if not self.enabled:
            return []
        waiters = self._inflight.pop(key, [])
        self._store[key] = now
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
        return waiters

    def abandon(self, key: int) -> list[int]:
        """The computation of ``key`` was lost (replica crash, no result).

        Drops the in-flight registration and hands the waiters back to the
        caller — they must re-enter the queue with the crashed request.
        """
        if not self.enabled:
            return []
        return self._inflight.pop(key, [])
