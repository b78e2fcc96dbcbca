"""Hybrid vertex cut (HVC) — the paper's UVC-class policy (§5.2).

Following PowerLyra's hybrid cut: edges pointing at a *low* in-degree node
are placed with that node's master (like an incoming edge cut); edges
pointing at a *high* in-degree node are placed with the **source**'s master,
cutting the hub's in-edges across hosts.  The result is an unconstrained
vertex cut: a mirror may carry both in- and out-edges.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.partition.base import EdgeAssignment, Partitioner, _chunk_boundaries
from repro.partition.edge_cut import _block_owner
from repro.partition.strategy import PartitionStrategy


class HybridVertexCut(Partitioner):
    """HVC: in-degree-threshold hybrid of edge cut and source placement."""

    strategy = PartitionStrategy.UVC
    name = "hvc"

    def __init__(self, threshold_factor: float = 4.0) -> None:
        """Args:
        threshold_factor: nodes whose in-degree exceeds
            ``threshold_factor * average degree`` are treated as
            high-degree hubs.
        """
        if threshold_factor <= 0:
            raise ValueError(
                f"threshold_factor must be positive, got {threshold_factor}"
            )
        self.threshold_factor = threshold_factor

    def assign(self, edges: EdgeList, num_hosts: int) -> EdgeAssignment:
        in_degree = np.bincount(edges.dst, minlength=edges.num_nodes)
        avg_degree = edges.num_edges / max(edges.num_nodes, 1)
        threshold = max(1.0, self.threshold_factor * avg_degree)
        degree = np.bincount(edges.src, minlength=edges.num_nodes)
        degree += in_degree
        boundaries = _chunk_boundaries(degree, num_hosts)
        master_host = _block_owner(boundaries, np.arange(edges.num_nodes))
        # Pick each edge's placing endpoint, then gather its master once.
        hub = in_degree > threshold
        placing = np.where(hub[edges.dst], edges.src, edges.dst)
        return EdgeAssignment(num_hosts, master_host, master_host[placing])
