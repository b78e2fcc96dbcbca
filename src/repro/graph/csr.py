"""Compressed-Sparse-Row graph representation.

Each simulated host stores its partition of the input graph as a
:class:`CSRGraph` — the same representation the paper's hosts use (§2.3).
The structure is immutable after construction; node labels live in separate
numpy arrays owned by the applications, which is what makes Gluon's
field-sensitive synchronization possible.

Both out-adjacency (CSR) and, on demand, in-adjacency (CSC) are kept so that
push-style and pull-style operators are equally efficient.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.edgelist import EdgeList


class CSRGraph:
    """An immutable directed graph in CSR form, optionally edge-weighted.

    Use :meth:`from_edges` or :meth:`from_edgelist` to construct.  Node IDs
    are dense integers ``0..num_nodes-1``; for a partitioned graph these are
    *local* IDs and the global mapping lives in the partition metadata.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.uint32)
        if indptr.ndim != 1 or len(indptr) == 0:
            raise GraphError("indptr must be a non-empty 1-D array")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphError(
                f"indptr must start at 0 and end at num_edges "
                f"({indptr[0]}..{indptr[-1]} vs {len(indices)} edges)"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        num_nodes = len(indptr) - 1
        if len(indices) > 0 and indices.max() >= num_nodes:
            raise GraphError(
                f"edge destination {indices.max()} out of range for "
                f"{num_nodes} nodes"
            )
        self._indptr = indptr
        self._indices = indices
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.uint32)
            if weights.shape != indices.shape:
                raise GraphError("weights must have one entry per edge")
        self._weights = weights
        self._clear_derived()

    def _clear_derived(self) -> None:
        """Empty every cache derived from the CSR arrays.

        Each is built on first use and read-only, so every caller (and
        every ``fork``ed worker, when built before the fork) shares one
        copy.
        """
        self._in_csr: Optional["CSRGraph"] = None
        self._out_degree: Optional[np.ndarray] = None
        self._max_out_degree: Optional[int] = None
        self._with_in_edges: Optional[np.ndarray] = None
        self._edge_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __getstate__(self) -> dict:
        # A pickle carries the CSR only: the derived caches are rebuilt
        # on first use after loading, so a graph pickled after a run is
        # no larger than before it.
        return {
            "_indptr": self._indptr,
            "_indices": self._indices,
            "_weights": self._weights,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._clear_derived()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(
        num_nodes: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray] = None,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel edge arrays.

        Edges are sorted by source (stable, so parallel edge order among a
        node's out-edges follows input order).
        """
        src = np.ascontiguousarray(src, dtype=np.uint32)
        dst = np.ascontiguousarray(dst, dtype=np.uint32)
        if src.shape != dst.shape:
            raise GraphError("src and dst must have equal length")
        if len(src) > 0 and int(max(src.max(), dst.max())) >= num_nodes:
            raise GraphError("edge endpoint out of range")
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = dst[order]
        weights = None
        if weight is not None:
            weight = np.ascontiguousarray(weight, dtype=np.uint32)
            if weight.shape != src.shape:
                raise GraphError("weight must have one entry per edge")
            weights = weight[order]
        return CSRGraph(indptr, indices, weights)

    @staticmethod
    def from_edgelist(edges: EdgeList) -> "CSRGraph":
        """Build a CSR graph from an :class:`EdgeList`."""
        return CSRGraph.from_edges(
            edges.num_nodes, edges.src, edges.dst, edges.weight
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(len(self._indices))

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of length ``num_nodes + 1``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index (edge destination) array."""
        return self._indices

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Per-edge weights aligned with :attr:`indices`, or ``None``."""
        return self._weights

    @property
    def has_weights(self) -> bool:
        """Whether the graph carries edge weights."""
        return self._weights is not None

    def out_degree(self, node: Optional[int] = None):
        """Out-degree of ``node``, or the full out-degree array if omitted.

        The array is computed once and returned read-only: engines ask
        for it on every direction choice.
        """
        if node is None:
            if self._out_degree is None:
                self._out_degree = np.diff(self._indptr)
                self._out_degree.flags.writeable = False
            return self._out_degree
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return int(self._indptr[node + 1] - self._indptr[node])

    def max_out_degree(self) -> int:
        """The largest out-degree (0 for an empty graph); computed once."""
        if self._max_out_degree is None:
            self._max_out_degree = int(self.out_degree().max(initial=0))
        return self._max_out_degree

    def in_degree(self, node: Optional[int] = None):
        """In-degree of ``node``, or the full in-degree array if omitted.

        Counted on each call, not cached: construction reads it once,
        and rounds read :meth:`nodes_with_in_edges`.
        """
        if node is not None and not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        degree = np.bincount(self._indices, minlength=self.num_nodes)
        return degree if node is None else int(degree[node])

    def nodes_with_in_edges(self) -> np.ndarray:
        """Sorted IDs of the nodes with an in-edge, cached and read-only:
        a dense pull writes exactly these every round."""
        if self._with_in_edges is None:
            self._with_in_edges = np.flatnonzero(self.in_degree())
            self._with_in_edges.flags.writeable = False
        return self._with_in_edges

    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighbors of ``node`` as a view into the index array."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def edge_weights_of(self, node: int) -> np.ndarray:
        """Weights of ``node``'s out-edges (all ones if unweighted)."""
        if self._weights is None:
            return np.ones(self.out_degree(node), dtype=np.uint32)
        return self._weights[self._indptr[node] : self._indptr[node + 1]]

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return parallel (src, dst) arrays for all edges."""
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.uint32), np.diff(self._indptr)
        )
        return src, self._indices.copy()

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Native-index (int64) ``(src, dst)`` arrays for all edges.

        :meth:`edges` in the index dtype the dense pull kernels gather and
        scatter with, built once and read-only: every run over this graph
        reads the same two arrays instead of copying them into its state.
        """
        if self._edge_arrays is None:
            src = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), self.out_degree()
            )
            dst = self._indices.astype(np.int64)
            src.flags.writeable = False
            dst.flags.writeable = False
            self._edge_arrays = (src, dst)
        return self._edge_arrays

    # -- derived structure ---------------------------------------------------

    def transpose(self) -> "CSRGraph":
        """Return the graph with every edge reversed (CSC of this graph).

        The result is cached: pull-style operators call this once per run.
        """
        if self._in_csr is None:
            src, dst = self.edges()
            self._in_csr = CSRGraph.from_edges(
                self.num_nodes, dst, src, self._weights
            )
        return self._in_csr

    def __repr__(self) -> str:
        weighted = "weighted" if self.has_weights else "unweighted"
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, {weighted})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        ):
            return False
        if (self._weights is None) != (other._weights is None):
            return False
        if self._weights is not None:
            return bool(np.array_equal(self._weights, other._weights))
        return True

    __hash__ = None  # mutable caches inside; identity hashing would mislead
