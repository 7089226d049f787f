"""A mini Spark: lazy, partitioned, lineage-tracked RDDs.

Semantics follow Spark's: the transformation (``map``) is lazy and
builds a lineage DAG; actions (``collect``, ``count``,
``tree_aggregate``) trigger evaluation.  ``cache()`` materialises partitions
and charges their size to a :class:`~repro.storage.tiers.TieredStore`, so
the DAM-vs-cluster memory experiments (E5) can measure how much of a
working set stays in DRAM-class tiers.

Execution is deterministic, partition-at-a-time.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Optional

from repro.storage.tiers import TieredStore


def _sizeof(partitions: list[list]) -> int:
    """Rough in-memory footprint of materialised partitions."""
    total = 0
    for part in partitions:
        total += sys.getsizeof(part)
        for item in part[:64]:
            total += sys.getsizeof(item)
        if len(part) > 64:
            # Extrapolate from the sample to avoid O(n) sizeof on big data.
            sample = sum(sys.getsizeof(i) for i in part[:64]) / 64
            total += int(sample * (len(part) - 64))
    return total


class RDD:
    """A lazy, partitioned collection."""

    def __init__(self, ctx: "MiniSparkContext",
                 compute: Callable[[], list[list]],
                 name: str = "rdd",
                 parents: tuple["RDD", ...] = ()) -> None:
        self.ctx = ctx
        self._compute = compute
        self.name = name
        self.parents = parents
        self._cached: Optional[list[list]] = None
        self._cache_requested = False

    # -- evaluation -------------------------------------------------------
    def _partitions(self) -> list[list]:
        if self._cached is not None:
            self.ctx.cache_hits += 1
            return self._cached
        parts = self._compute()
        if self._cache_requested:
            self._cached = parts
            self.ctx._account_cache(self.name, parts)
        return parts

    def cache(self) -> "RDD":
        """Materialise on first evaluation; charge the memory tiers."""
        self._cache_requested = True
        return self

    # -- transformations (lazy) --------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        def compute():
            return [[fn(x) for x in part] for part in self._partitions()]
        return RDD(self.ctx, compute, name=f"{self.name}.map", parents=(self,))

    # -- actions ---------------------------------------------------------------------
    def collect(self) -> list:
        return [x for part in self._partitions() for x in part]

    def count(self) -> int:
        return sum(len(part) for part in self._partitions())

    def tree_aggregate(self, zero: Any, seq_op: Callable[[Any, Any], Any],
                       comb_op: Callable[[Any, Any], Any]) -> Any:
        """Per-partition fold + pairwise combine (Spark's treeAggregate)."""
        partials = []
        for part in self._partitions():
            acc = zero
            for x in part:
                acc = seq_op(acc, x)
            partials.append(acc)
        while len(partials) > 1:
            nxt = []
            for i in range(0, len(partials) - 1, 2):
                nxt.append(comb_op(partials[i], partials[i + 1]))
            if len(partials) % 2 == 1:
                nxt.append(partials[-1])
            partials = nxt
        return partials[0] if partials else zero


class MiniSparkContext:
    """Driver: creates RDDs and tracks cache-memory placement."""

    #: Partitions of every RDD.
    N_PARTITIONS = 4

    def __init__(self, memory: Optional[TieredStore] = None) -> None:
        self.memory = memory or TieredStore.dam_node()
        self.cache_hits = 0
        self._cached_names: set[str] = set()
        self._cache_seq = 0

    def parallelize(self, data: Iterable[Any], name: str = "data") -> RDD:
        items = list(data)
        n = self.N_PARTITIONS
        parts = [items[i::n] for i in range(n)]
        return RDD(self, lambda: [list(p) for p in parts], name=name)

    # -- cache accounting against the tier hierarchy -----------------------------
    def _account_cache(self, name: str, parts: list[list]) -> None:
        self._cache_seq += 1
        unique = f"{name}#{self._cache_seq}"
        self.memory.put(unique, _sizeof(parts))
        self._cached_names.add(unique)

    def cached_fast_fraction(self) -> float:
        """Fraction of cached bytes resident in DRAM-class tiers."""
        if not self._cached_names:
            return 1.0
        fracs = [
            self.memory.resident_fraction_fast(name)
            for name in self._cached_names
        ]
        return float(sum(fracs) / len(fracs))
