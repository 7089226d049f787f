"""A mini Spark: lazy, partitioned, lineage-tracked RDDs.

Semantics follow Spark's: transformations (``map``, ``filter``,
``flatMap``, ``mapPartitions``, ``reduceByKey``, ``join``, ``union``) are
lazy and build a lineage DAG; actions (``collect``, ``count``, ``reduce``,
``take``, ``sum``) trigger evaluation.  ``cache()`` materialises partitions
and charges their size to a :class:`~repro.storage.tiers.TieredStore`, so
the DAM-vs-cluster memory experiments (E5) can measure how much of a
working set stays in DRAM-class tiers.

Execution is deterministic, partition-at-a-time; hash partitioning drives
the shuffle for key-based operations.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Optional

from repro.storage.tiers import TieredStore


def _default_partitioner(key: Any, n: int) -> int:
    return hash(key) % n


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

    @property
    def n_partitions(self) -> int:
        return self.ctx.n_partitions

    # -- transformations (lazy) --------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        def compute():
            return [[fn(x) for x in part] for part in self._partitions()]
        return RDD(self.ctx, compute, name=f"{self.name}.map", parents=(self,))

    # -- shuffles --------------------------------------------------------------
    def _shuffle_by_key(self, parts: list[list]) -> list[list]:
        n = self.ctx.n_partitions
        out: list[list] = [[] for _ in range(n)]
        for part in parts:
            for kv in part:
                if not (isinstance(kv, tuple) and len(kv) == 2):
                    raise TypeError("key-based operations need (key, value) pairs")
                out[_default_partitioner(kv[0], n)].append(kv)
        return out

    def join(self, other: "RDD") -> "RDD":
        """Inner join on keys: (k, (v_self, v_other))."""
        if other.ctx is not self.ctx:
            raise ValueError("RDDs belong to different contexts")
        def compute():
            left = self._shuffle_by_key(self._partitions())
            right = other._shuffle_by_key(other._partitions())
            out = []
            for lp, rp in zip(left, right):
                lmap: dict = {}
                for k, v in lp:
                    lmap.setdefault(k, []).append(v)
                part = []
                for k, v in rp:
                    for lv in lmap.get(k, ()):
                        part.append((k, (lv, v)))
                out.append(sorted(part, key=lambda kv: repr(kv[0])))
            return out
        return RDD(self.ctx, compute, name=f"{self.name}.join",
                   parents=(self, other))

    # -- actions ---------------------------------------------------------------------
    def collect(self) -> list:
        return [x for part in self._partitions() for x in part]

    def count(self) -> int:
        return sum(len(part) for part in self._partitions())

    def take(self, k: int) -> list:
        out: list = []
        for part in self._partitions():
            for x in part:
                out.append(x)
                if len(out) == k:
                    return out
        return out

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        acc = None
        first = True
        for part in self._partitions():
            for x in part:
                acc = x if first else fn(acc, x)
                first = False
        if first:
            raise ValueError("reduce of empty RDD")
        return acc

    def sum(self) -> Any:
        return self.reduce(lambda a, b: a + b)

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

    def __init__(self, n_partitions: int = 4,
                 memory: Optional[TieredStore] = None) -> None:
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        self.memory = memory or TieredStore.dam_node()
        self.cache_hits = 0
        self._cached_names: set[str] = set()
        self._cache_seq = 0

    def parallelize(self, data: Iterable[Any], name: str = "data") -> RDD:
        items = list(data)
        n = self.n_partitions
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
