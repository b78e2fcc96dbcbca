"""Gemini baseline (§5): a monolithic, edge-cut-only comparator system.

The paper characterizes Gemini [75] as the state-of-the-art distributed CPU
system that (a) supports only chunk-based edge-cut partitioning, (b) keeps
*dual* in/out edge representations per host (for its dense/sparse modes),
which inflates its replication factor to 4-25 at scale versus CVC's 2-8
(§5.2), and (c) ships (global-ID, value) pairs with no structural- or
temporal-invariant optimizations.

We model it as:

* :class:`GeminiPartitioner` — a chunked edge cut placing each edge with
  its source (push apps) or destination (pull apps), plus *dual-rep mirror
  proxies*: every host also materializes proxies for the endpoints of the
  edges its dual representation would hold.  Those extra mirrors carry no
  computation edges (the compute uses one representation) but participate
  in synchronization, reproducing Gemini's larger mirror sets and traffic.
* :class:`GeminiEngine` — a level-synchronous CPU engine.
* The system layer runs it at ``OptimizationLevel.UNOPT`` (gid+value
  gather-apply-scatter).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.base import VertexProgram
from repro.engines.base import Engine, RoundOutcome
from repro.graph.edgelist import EdgeList
from repro.partition.base import EdgeAssignment, Partitioner, _chunk_boundaries
from repro.partition.base import HostGroups, marked_nodes
from repro.partition.edge_cut import _block_owner
from repro.partition.strategy import PartitionStrategy
from repro.runtime.timing import ComputeCostParameters


class GeminiPartitioner(Partitioner):
    """Chunked edge cut with dual-representation mirror proxies."""

    strategy = PartitionStrategy.UVC  # dual-rep mirrors break OEC invariants
    name = "gemini"

    def __init__(self, mode: str = "push") -> None:
        """Args:
        mode: "push" homes edges with their source (sparse/out rep is
            primary); "pull" homes them with their destination.
        """
        if mode not in ("push", "pull"):
            raise ValueError(f"mode must be 'push' or 'pull', got {mode!r}")
        self.mode = mode

    def assign(self, edges: EdgeList, num_hosts: int) -> EdgeAssignment:
        degree = np.bincount(edges.src, minlength=edges.num_nodes).astype(
            np.int64
        )
        degree += np.bincount(edges.dst, minlength=edges.num_nodes)
        boundaries = _chunk_boundaries(degree, num_hosts)
        master_host = _block_owner(boundaries, np.arange(edges.num_nodes))
        if self.mode == "push":
            edge_host = master_host[edges.src]
            dual_host = master_host[edges.dst]
        else:
            edge_host = master_host[edges.dst]
            dual_host = master_host[edges.src]
        # Dual representation: host h also keeps proxies for the endpoints
        # of every edge its other-direction representation stores.
        dual_groups = HostGroups(dual_host, num_hosts)
        extra = [
            marked_nodes(edges.num_nodes, (edges.src[held], edges.dst[held])).astype(np.uint32)
            for held in map(dual_groups.of, range(num_hosts))
        ]
        return EdgeAssignment(
            num_hosts, master_host, edge_host, extra_proxies=extra
        )


class GeminiEngine(Engine):
    """Level-synchronous CPU engine with Gemini-like constants."""

    name = "gemini"
    is_gpu = False
    cost = ComputeCostParameters(
        per_edge_s=1.9e-9,
        per_node_s=3.5e-9,
        step_overhead_s=2.5e-5,
        translation_s=1.0e-8,
    )

    def compute_round(
        self,
        app: VertexProgram,
        part,
        state: Dict,
        frontier: np.ndarray,
    ) -> RoundOutcome:
        return self._single_step(app, part, state, frontier)
