"""Cartesian (2-D) vertex cut — the CVC policy of §3.1 / §5.2.

Hosts are arranged in a ``pr x pc`` grid (as close to square as the host
count allows).  Nodes are blocked contiguously (edge-balanced) with block
``i`` owned by host ``i``.  Edge ``(u, v)`` is assigned to the host at grid
coordinates ``(row(owner(u)), col(owner(v)))``.

Invariant (checked by ``partition.metrics.verify_partition``): proxies of a
node ``u`` with *outgoing* edges lie on the grid row of ``u``'s master,
proxies with *incoming* edges lie on its grid column, so only the master —
the row/column intersection — can have both.  This is what lets Gluon
reduce from the column mirrors and broadcast to the row mirrors only
(§3.2), cutting communication partners from ``P-1`` to ``pr + pc - 2``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.partition.base import EdgeAssignment, Partitioner, _chunk_boundaries
from repro.partition.edge_cut import _block_owner
from repro.partition.strategy import PartitionStrategy


def grid_shape(num_hosts: int) -> Tuple[int, int]:
    """Factor ``num_hosts`` into the most-square ``(rows, cols)`` grid."""
    if num_hosts <= 0:
        raise ValueError(f"num_hosts must be >= 1, got {num_hosts}")
    rows = int(np.sqrt(num_hosts))
    while num_hosts % rows != 0:
        rows -= 1
    return rows, num_hosts // rows


class CartesianVertexCut(Partitioner):
    """CVC: 2-D blocked edge assignment over a host grid."""

    strategy = PartitionStrategy.CVC
    name = "cvc"

    def assign(self, edges: EdgeList, num_hosts: int) -> EdgeAssignment:
        rows, cols = grid_shape(num_hosts)
        # Block nodes contiguously, balancing total (in + out) degree so
        # both the row and column dimensions stay balanced.
        degree = np.bincount(edges.src, minlength=edges.num_nodes)
        degree += np.bincount(edges.dst, minlength=edges.num_nodes)
        boundaries = _chunk_boundaries(degree, num_hosts)
        master_host = _block_owner(boundaries, np.arange(edges.num_nodes))
        # Grid row start of the source's master plus the destination
        # master's column, each computed once per node, not per edge.
        column = master_host % cols
        edge_host = (master_host - column)[edges.src]
        edge_host += column[edges.dst]
        return EdgeAssignment(num_hosts, master_host, edge_host)
