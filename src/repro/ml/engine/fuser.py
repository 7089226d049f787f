"""Kernel scheduling: collapse lazy-graph chains into fused kernels.

The fusion rules are deliberately small:

* an **elementwise** node fuses into its consumer when it has exactly one
  consumer inside the scheduled subgraph and that consumer is itself
  elementwise or a reduce — i.e. ``elementwise→…→elementwise`` chains and
  ``elementwise→reduce`` epilogues become one kernel;
* **matmul** and **movement** nodes are always kernel roots of their own
  (matmul keeps BLAS untouched; movement is a view);
* a fused interior a backward closure will read (``saved``) stays in its
  kernel and becomes one more of the kernel's outputs.

Fusion changes *where* buffers are allocated, never *what* is computed:
each kernel replays the eager ufunc sequence in the same order, so fused
results are bit-identical to the eager path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ml.engine.graph import LazyExpr, pending
from repro.ml.engine.ops import ELEMENTWISE_KINDS, REDUCE


@dataclass
class Kernel:
    """One schedulable unit: a topo-ordered group ending in its output."""

    nodes: list[LazyExpr]            #: topo order; last entry is the output
    output: LazyExpr = field(init=False)

    def __post_init__(self) -> None:
        self.output = self.nodes[-1]

    @property
    def n_ops(self) -> int:
        return len(self.nodes)

    @property
    def outputs(self) -> list[LazyExpr]:
        """Nodes whose value outlives the kernel: the interiors a backward
        closure will read (``saved``), then the output."""
        return [n for n in self.nodes[:-1] if n.saved] + [self.output]


def schedule(root: LazyExpr) -> list[Kernel]:
    """Plan the fused kernels that materialize ``root``.

    Returns kernels in execution order; running them in order realizes
    every kernel output (and therefore ``root``).
    """
    topo = pending(root)[0]
    index = {id(n): i for i, n in enumerate(topo)}

    # Consumers of each pending node *within* the subgraph.
    consumers: dict[int, list[LazyExpr]] = {id(n): [] for n in topo}
    for node in topo:
        for src in node.inputs:
            if id(src) in consumers:
                consumers[id(src)].append(node)

    # Union nodes into groups, walking consumers-first so a chain joins
    # the group of its (already grouped) consumer.
    group_of: dict[int, int] = {}            # node id -> root node index
    for node in reversed(topo):
        nid = id(node)
        group_of[nid] = index[nid]           # starts its own group
        if node.kind not in ELEMENTWISE_KINDS or node is root:
            continue
        uses = consumers[nid]
        if len(uses) != 1:
            continue
        consumer = uses[0]
        ckind = consumer.kind
        if ckind in ELEMENTWISE_KINDS or ckind == REDUCE:
            group_of[nid] = group_of[id(consumer)]

    groups: dict[int, list[LazyExpr]] = {}
    for node in topo:                        # topo order within each group
        groups.setdefault(group_of[id(node)], []).append(node)

    return [Kernel(nodes=groups[gid]) for gid in sorted(groups)]
