"""Edge lists: the interchange format between generators and CSR builders.

An :class:`EdgeList` is a thin, validated wrapper around parallel numpy
arrays ``src``, ``dst``, and optional ``weight``.  Generators produce edge
lists; partitioners consume them to assign edges to hosts; `CSRGraph`
builds adjacency from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import GraphError


@dataclass(frozen=True)
class EdgeList:
    """A list of directed edges over nodes ``0..num_nodes-1``.

    Attributes:
        num_nodes: Number of nodes in the graph (may exceed max endpoint).
        src: uint32 array of edge sources.
        dst: uint32 array of edge destinations.
        weight: Optional uint32 array of edge weights (same length).
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weight: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 0:
            raise GraphError(f"num_nodes must be >= 0, got {self.num_nodes}")
        src = np.ascontiguousarray(self.src, dtype=np.uint32)
        dst = np.ascontiguousarray(self.dst, dtype=np.uint32)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError(
                f"src/dst must be 1-D arrays of equal length, got shapes "
                f"{src.shape} and {dst.shape}"
            )
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.weight is not None:
            weight = np.ascontiguousarray(self.weight, dtype=np.uint32)
            if weight.shape != src.shape:
                raise GraphError(
                    f"weight length {weight.shape} does not match edge "
                    f"count {src.shape}"
                )
            object.__setattr__(self, "weight", weight)
        if len(src) > 0:
            max_endpoint = int(max(src.max(), dst.max()))
            if max_endpoint >= self.num_nodes:
                raise GraphError(
                    f"edge endpoint {max_endpoint} out of range for "
                    f"{self.num_nodes} nodes"
                )

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(len(self.src))

    @property
    def has_weights(self) -> bool:
        """Whether edges carry weights."""
        return self.weight is not None

    def with_unit_weights(self) -> "EdgeList":
        """Return a copy with all-ones weights (no-op if already weighted)."""
        if self.weight is not None:
            return self
        return EdgeList(
            self.num_nodes,
            self.src,
            self.dst,
            np.ones(self.num_edges, dtype=np.uint32),
        )

    def with_random_weights(
        self, rng: np.random.Generator, low: int = 1, high: int = 100
    ) -> "EdgeList":
        """Return a copy with integer weights drawn uniformly from [low, high]."""
        if low < 0 or high < low:
            raise GraphError(f"invalid weight range [{low}, {high}]")
        weight = rng.integers(low, high + 1, size=self.num_edges, dtype=np.uint32)
        return EdgeList(self.num_nodes, self.src, self.dst, weight)

    def deduplicate(self) -> "EdgeList":
        """Return a copy with duplicate (src, dst) edges removed.

        For weighted lists the *minimum* weight among duplicates is kept,
        which is the natural semantics for shortest-path workloads.
        """
        if self.num_edges == 0:
            return self
        # (src, dst) packed 32 bits each: integer order is (src, dst) order
        # and no node count can overflow the key.
        key = self.src.astype(np.uint64)
        key <<= np.uint64(32)
        key |= self.dst
        weight = self.weight
        if weight is None:
            # The key *is* the edge, so sort values, not indices; equal
            # keys are the same edge, so the sort need not be stable.
            key.sort()
        else:
            order = np.argsort(key)
            key, weight = key[order], weight[order]
        return self._from_sorted_keys(key, weight)

    def _from_sorted_keys(self, key: np.ndarray, weight: Optional[np.ndarray] = None) -> "EdgeList":
        """The edges of sorted packed ``key``, each run of equals kept once."""
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if weight is not None:
            weight = np.minimum.reduceat(weight, np.flatnonzero(first))
        key = key[first]
        src = (key >> np.uint64(32)).astype(np.uint32)
        return EdgeList(self.num_nodes, src, key.astype(np.uint32), weight)

    def remove_self_loops(self) -> "EdgeList":
        """Return a copy with self-loop edges removed."""
        mask = self.src != self.dst
        weight = self.weight[mask] if self.weight is not None else None
        return EdgeList(self.num_nodes, self.src[mask], self.dst[mask], weight)

    def symmetrize(self) -> "EdgeList":
        """Return the union of this list and its reverse, deduplicated.

        Used to build undirected inputs for connected components.  An
        unweighted list that is already its own symmetrization (sorted,
        duplicate-free and closed under reversal, as ``kronecker()``
        returns) comes back as ``self``.
        """
        if self.weight is not None:
            return EdgeList(
                self.num_nodes,
                np.concatenate([self.src, self.dst]),
                np.concatenate([self.dst, self.src]),
                np.concatenate([self.weight, self.weight]),
            ).deduplicate()
        m = self.num_edges
        key = np.empty(2 * m, dtype=np.uint64)
        forward, reverse = key[:m], key[m:]
        for half, high, low in ((forward, self.src, self.dst), (reverse, self.dst, self.src)):
            half[:] = high
            half <<= np.uint64(32)
            half |= low
        # Two cheap exact filters before the transpose check: a symmetric
        # list has equal endpoint sums (mod 2**64 too), and the result is
        # strictly increasing; an input failing either is not the result.
        if (
            self.src.sum(dtype=np.uint64) == self.dst.sum(dtype=np.uint64)
            and (forward[1:] > forward[:-1]).all()
        ):
            reverse.sort()
            if np.array_equal(forward, reverse):
                return self
        key.sort()
        return self._from_sorted_keys(key)

    def reversed(self) -> "EdgeList":
        """Return the edge list with every edge direction flipped."""
        return EdgeList(self.num_nodes, self.dst, self.src, self.weight)

    def content_hash(self) -> str:
        """SHA-256 over the graph's canonical bytes.

        Two edge lists hash equal iff they have the same node count and
        identical ``src``/``dst``/``weight`` arrays (dtypes are normalized
        to uint32 at construction), so the digest is stable across
        processes and machines — the content-addressing key the service's
        partition cache is built on.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(
            f"EdgeList/{self.num_nodes}/{self.num_edges}/"
            f"{int(self.has_weights)}".encode()
        )
        digest.update(np.ascontiguousarray(self.src).tobytes())
        digest.update(np.ascontiguousarray(self.dst).tobytes())
        if self.weight is not None:
            digest.update(np.ascontiguousarray(self.weight).tobytes())
        return digest.hexdigest()
