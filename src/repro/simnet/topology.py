"""Interconnect topologies and the MSA network federation.

Each MSA module has its own fabric (fat-tree for the cluster/booster,
smaller trees for DAM) and the *network federation* bridges the module
fabrics (Fig. 1 of the paper).  Every fabric built here is a tree, so a
:class:`Topology` is a parent map whose hops carry
:class:`~repro.simnet.link.Link` costs, and every route is unique: up from
both ends to their lowest common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.simnet.link import Link, LinkKind


@dataclass
class Topology:
    """A tree-shaped interconnect, immutable once built.

    ``up[node]`` is ``(parent, link)``; the root maps to ``None``.  Nodes
    are arbitrary hashables (compute node ids, switch ids); the endpoints
    are the leaves.
    """

    up: dict
    name: str
    _routes: dict = field(default_factory=dict, repr=False)

    def path(self, src: Hashable, dst: Hashable) -> list:
        """The unique route: up from ``src`` to the lowest common ancestor,
        then down to ``dst``."""
        rise = [src]
        while self.up[rise[-1]] is not None:
            rise.append(self.up[rise[-1]][0])
        fall = [dst]
        while fall[-1] not in rise:
            fall.append(self.up[fall[-1]][0])
        return rise[:rise.index(fall[-1])] + fall[::-1]

    def _link(self, a: Hashable, b: Hashable) -> Link:
        """The link between adjacent nodes; the child of the two holds it."""
        hop = self.up[a]
        return hop[1] if hop is not None and hop[0] == b else self.up[b][1]

    def path_latency(self, src: Hashable, dst: Hashable) -> float:
        """Sum of per-hop latencies along the route, in path order."""
        p = self.path(src, dst)
        return sum(self._link(u, v).latency_s for u, v in zip(p, p[1:]))

    def path_bandwidth(self, src: Hashable, dst: Hashable) -> float:
        """Bottleneck bandwidth along the route (a node to itself has none)."""
        p = self.path(src, dst)
        return min((self._link(u, v).bandwidth_Bps for u, v in zip(p, p[1:])),
                   default=float("inf"))

    def transfer_time(self, src: Hashable, dst: Hashable,
                      nbytes: float) -> float:
        """Store-and-forward pipeline approximation: Σα + n/min(β).

        The tree never changes, so each pair's Σα and min(β) are computed
        once.  A node to itself has no hops: 0 + n/∞ = 0.
        """
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[src, dst] = (self.path_latency(src, dst),
                                              self.path_bandwidth(src, dst))
        return route[0] + nbytes / route[1]


# ---------------------------------------------------------------------------
# topology factories
# ---------------------------------------------------------------------------


#: Nodes per leaf switch of a :func:`fat_tree`.
RADIX = 16


def fat_tree(n_nodes: int, kind: LinkKind, name: str = "fat-tree") -> Topology:
    """Two-level fat-tree: leaf switches of :data:`RADIX` nodes under a
    spine.

    The JUWELS cluster and booster fabrics are InfiniBand fat-trees; two
    levels suffice for the node counts the experiments sweep, and the model
    only needs hop counts / bottleneck bandwidths to be right in shape.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    link = Link.of_kind(kind)
    # Fat-tree property: uplink capacity matches downlink aggregate.
    uplink = Link(kind=kind, latency_s=link.latency_s,
                  bandwidth_Bps=link.bandwidth_Bps * RADIX)
    up: dict = {("spine", 0): None}
    for leaf in range((n_nodes + RADIX - 1) // RADIX):
        up["leaf", leaf] = (("spine", 0), uplink)
    for i in range(n_nodes):
        up["node", i] = (("leaf", i // RADIX), link)
    return Topology(up, name)


def federated(modules: dict[str, Topology],
              name: str = "msa-federation") -> Topology:
    """Join per-module fabrics through a federation switch (the MSA NF).

    Each module contributes its tree with nodes prefixed by module name; its
    root (a fat-tree's spine) becomes the module's gateway, a child of the
    central federation switch.  This reproduces Fig. 1's 'high-performance
    federated network connecting module-specific interconnects'.
    """
    if not modules:
        raise ValueError("need at least one module")
    hub = ("federation", 0)
    fed_link = Link.of_kind(LinkKind.FEDERATION)
    up: dict = {hub: None}
    for mod_name, mod_topo in modules.items():
        for node, hop in mod_topo.up.items():
            up[mod_name, node] = ((hub, fed_link) if hop is None
                                  else ((mod_name, hop[0]), hop[1]))
    return Topology(up, name)
