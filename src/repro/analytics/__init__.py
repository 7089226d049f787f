"""Spark-style data analytics for the DAM (Sec. III-B, Fig. 3 R).

The paper's DAM exists to run "big data analytics stacks like Apache Spark
that require a high amount of memory to work fast".  This package rebuilds
the needed slice of that stack:

* :mod:`repro.analytics.rdd` — a mini RDD engine: lazy, lineage-tracked,
  partitioned collections with map, tree-aggregation and
  memory-accounted caching against a :class:`~repro.storage.tiers.TieredStore`,
* :mod:`repro.analytics.mllib` — MLlib-like algorithms on RDDs: logistic
  regression (treeAggregate-style gradient aggregation) and the
  random-forest classifier the paper's footnote highlights.
"""

from repro.analytics.rdd import MiniSparkContext, RDD
from repro.analytics.mllib import (
    RddLogisticRegression,
    RandomForest,
    DecisionTree,
)

__all__ = [
    "MiniSparkContext",
    "RDD",
    "RddLogisticRegression",
    "RandomForest",
    "DecisionTree",
]
