"""Interconnect topologies and the MSA network federation.

Each MSA module has its own fabric (fat-tree for the cluster/booster,
smaller trees for DAM) and the *network federation* bridges the module
fabrics (Fig. 1 of the paper).  Topologies are :mod:`networkx` graphs whose
edges carry :class:`~repro.simnet.link.Link` attributes, wrapped in a
:class:`Topology` that provides routing and path-cost queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx

from repro.simnet.link import Link, LinkKind


@dataclass
class Topology:
    """A routed interconnect graph.

    Nodes are arbitrary hashables (compute node ids, switch ids); edges carry
    a ``link`` attribute.  Endpoint (non-switch) nodes carry ``terminal=True``.
    """

    graph: nx.Graph
    name: str = "topology"
    _path_cache: dict = field(default_factory=dict, repr=False)

    # -- construction helpers ---------------------------------------------
    def add_terminal(self, node: Hashable) -> None:
        self.graph.add_node(node, terminal=True)

    def add_switch(self, node: Hashable) -> None:
        self.graph.add_node(node, terminal=False)

    def connect(self, a: Hashable, b: Hashable, link: Link) -> None:
        self.graph.add_edge(a, b, link=link)
        self._path_cache.clear()

    # -- queries -----------------------------------------------------------
    def path(self, src: Hashable, dst: Hashable) -> list:
        """Latency-weighted shortest path (cached)."""
        key = (src, dst)
        if key not in self._path_cache:
            self._path_cache[key] = nx.shortest_path(
                self.graph, src, dst, weight=lambda u, v, d: d["link"].latency_s
            )
        return self._path_cache[key]

    def path_latency(self, src: Hashable, dst: Hashable) -> float:
        """Sum of per-hop latencies along the route."""
        p = self.path(src, dst)
        return sum(self.graph.edges[u, v]["link"].latency_s for u, v in zip(p, p[1:]))

    def path_bandwidth(self, src: Hashable, dst: Hashable) -> float:
        """Bottleneck bandwidth along the route."""
        p = self.path(src, dst)
        if len(p) < 2:
            return float("inf")
        return min(self.graph.edges[u, v]["link"].bandwidth_Bps for u, v in zip(p, p[1:]))

    def transfer_time(self, src: Hashable, dst: Hashable,
                      nbytes: float) -> float:
        """Store-and-forward pipeline approximation: Σα + n/min(β)."""
        if src == dst:
            return 0.0
        return (self.path_latency(src, dst)
                + nbytes / self.path_bandwidth(src, dst))


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
    radix = RADIX
    g = nx.Graph()
    topo = Topology(g, name=name)
    link = Link.of_kind(kind)
    n_leaves = (n_nodes + radix - 1) // radix
    topo.add_switch(("spine", 0))
    for leaf in range(n_leaves):
        topo.add_switch(("leaf", leaf))
        # Fat-tree property: uplink capacity matches downlink aggregate.
        uplink = Link(kind=kind, latency_s=link.latency_s,
                      bandwidth_Bps=link.bandwidth_Bps * radix)
        topo.connect(("leaf", leaf), ("spine", 0), uplink)
    for i in range(n_nodes):
        topo.add_terminal(("node", i))
        topo.connect(("node", i), ("leaf", i // radix), link)
    return topo


def federated(modules: dict[str, Topology],
              name: str = "msa-federation") -> Topology:
    """Join per-module fabrics through a federation switch (the MSA NF).

    Each module contributes its graph with nodes prefixed by module name; a
    central federation switch connects one gateway switch (or node) per
    module.  This reproduces Fig. 1's 'high-performance federated network
    connecting module-specific interconnects'.
    """
    if not modules:
        raise ValueError("need at least one module")
    g = nx.Graph()
    topo = Topology(g, name=name)
    fed_link = Link.of_kind(LinkKind.FEDERATION)
    topo.add_switch(("federation", 0))
    for mod_name, mod_topo in modules.items():
        for node, data in mod_topo.graph.nodes(data=True):
            g.add_node((mod_name, node), **data)
        for u, v, data in mod_topo.graph.edges(data=True):
            g.add_edge((mod_name, u), (mod_name, v), **data)
        # Gateway: prefer a switch, fall back to the first terminal.
        switches = [n for n, d in mod_topo.graph.nodes(data=True) if not d.get("terminal", True)]
        gateway = switches[0] if switches else sorted(mod_topo.graph.nodes, key=str)[0]
        topo.connect((mod_name, gateway), ("federation", 0), fed_link)
    topo._path_cache.clear()
    return topo
