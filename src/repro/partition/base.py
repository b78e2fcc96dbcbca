"""Partitioned graphs: edge assignment -> per-host local graphs with proxies.

The unified model of §3.1: a partitioning policy assigns every *edge* to a
host; a proxy node is created on a host for every endpoint of an edge it
owns; each global node designates exactly one proxy as its *master* and the
rest are *mirrors*.  The two invariants of §2.2 hold by construction:

a) every global node has exactly one master proxy, and
b) every local edge connects two proxies on the same host.

Local IDs are assigned **masters first** (0..num_masters-1), then mirrors.
This makes "is this proxy a master?" a range check and lets the GPU-style
bulk extract/set operate on contiguous slices.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.partition.strategy import PartitionStrategy


#: Idle value of the gid -> lid scratch: above any local id, so an endpoint
#: without a proxy dies in the CSR range check instead of aliasing one.
NO_PROXY = np.iinfo(np.uint32).max

#: Positions grouped per pass; bounds the int64 index ``argsort`` returns.
_GROUP_BLOCK = 1 << 18

T = TypeVar("T")


class HostGroups:
    """Positions ``0..len(host_of)-1`` binned by host, ascending per host.

    The one definition of "host *h*'s share" of a whole-graph array: one
    stable counting sort per bounded block of positions, kept as uint32,
    so grouping costs O(len) once and 4 bytes per position — never a
    full-length mask per host.
    """

    def __init__(self, host_of: np.ndarray, num_hosts: int) -> None:
        # Narrowest unsigned key: NumPy radix-sorts stable 8/16-bit keys.
        key_dtype = np.min_scalar_type(num_hosts - 1)
        later_hosts = np.arange(1, num_hosts).astype(key_dtype)
        self._blocks = []  # (uint32 positions grouped by host, group bounds)
        for lo in range(0, max(len(host_of), 1), _GROUP_BLOCK):  # never zero blocks
            key = host_of[lo : lo + _GROUP_BLOCK].astype(key_dtype)
            order = np.argsort(key, kind="stable")
            starts = np.searchsorted(key[order], later_hosts)
            order += lo
            bounds = (0, *starts.tolist(), len(key))
            self._blocks.append((order.astype(np.uint32), bounds))

    def of(self, host: int) -> np.ndarray:
        """``host``'s positions: a fresh intp array (the dtype NumPy indexes
        with; any other is cast again on every use)."""
        pieces = [o[b[host] : b[host + 1]] for o, b in self._blocks]
        return np.concatenate(pieces, dtype=np.intp)


def allowed_cpus() -> int:
    """CPUs this process may run on: its affinity mask (a ``taskset``, a
    cgroup cpuset, a pinned benchmark), not the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return multiprocessing.cpu_count()


def for_each_host(
    hosts: Sequence[int],
    fn: Callable[..., T],
    scratch: Optional[Callable[[], Any]] = None,
) -> List[T]:
    """``[fn(h) for h in hosts]``, spread over every CPU this process may use.

    The hosts are split into :func:`allowed_cpus` strided shares,
    ``hosts[i::shares]``.  The calling thread runs share 0, helper threads
    the others, and every helper is joined before this returns, so no
    thread outlives the call: one allowed CPU is exactly the sequential
    loop.  Each share runs its hosts in ascending order and stops at its
    first failure; the error of the lowest failing host is re-raised, as
    the sequential loop would raise it.  With ``scratch``, each share
    makes one scratch object and calls ``fn(h, scratch_object)``.

    ``fn`` must only write what belongs to its host: that is what makes
    the result independent of the CPU count.
    """
    shares = max(1, min(allowed_cpus(), len(hosts)))
    results: List[Any] = [None] * len(hosts)
    errors: Dict[int, BaseException] = {}

    def run_share(first: int) -> None:
        state = scratch() if scratch is not None else None
        for i in range(first, len(hosts), shares):
            try:
                results[i] = fn(hosts[i]) if scratch is None else fn(hosts[i], state)
            except BaseException as exc:  # re-raised by the caller
                errors[i] = exc
                return

    helpers = [
        threading.Thread(target=run_share, args=(first,), daemon=True)
        for first in range(1, shares)
    ]
    for thread in helpers:
        thread.start()
    try:
        run_share(0)
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def marked_nodes(
    num_nodes: int, include: Sequence[np.ndarray], exclude: Optional[np.ndarray] = None
) -> np.ndarray:
    """Ascending ids (intp) found in any ``include`` array, not in ``exclude``."""
    mark = np.zeros(num_nodes, dtype=bool)
    for ids in include:
        mark[ids] = True
    if exclude is not None:
        mark[exclude] = False
    return np.flatnonzero(mark)


class HostInputs(NamedTuple):
    """Everything :func:`build_local_partition` reads to build one host.

    Two versions of a graph whose ``HostInputs`` for a host are equal
    build identical :class:`LocalPartition` objects for it; this tuple is
    therefore also what a per-host content signature digests
    (:func:`repro.streaming.delta.signature_of_host`).
    """

    #: Global ids mastered here (incident or isolated), ascending, intp.
    owned: np.ndarray
    #: The host's edge subsequence in input order (order matters: the local
    #: CSR's stable sort preserves it within a source); endpoints as intp.
    src: np.ndarray
    dst: np.ndarray
    weight: Optional[np.ndarray]
    #: The policy's extra (edge-less) proxies for this host, or ``None``.
    extra: Optional[np.ndarray]
    #: Every mirror — endpoints *and* extra proxies owned elsewhere —
    #: ascending, intp; and the host mastering each (a boundary shift
    #: elsewhere can move a mirror's master without touching this host).
    mirrors: np.ndarray
    mirror_master_host: np.ndarray


def host_inputs(edges: EdgeList, assignment: "EdgeAssignment", host: int) -> HostInputs:
    """``host``'s construction inputs: the one definition of them."""
    mine = assignment.edge_groups.of(host)
    weight = edges.weight[mine] if edges.weight is not None else None
    # Endpoints index twice (mark, translate): intp, like every index here.
    src, dst = edges.src[mine].astype(np.intp), edges.dst[mine].astype(np.intp)
    extra = None
    if assignment.extra_proxies is not None:
        extra = assignment.extra_proxies[host]
    owned = assignment.node_groups.of(host)
    mirrors = marked_nodes(
        edges.num_nodes,
        (src, dst) if extra is None else (src, dst, extra),
        exclude=owned,
    )
    return HostInputs(
        owned, src, dst, weight, extra, mirrors, assignment.master_host[mirrors]
    )


@dataclass(frozen=True)
class EdgeAssignment:
    """Output of a partitioning policy, before local graphs are built.

    Attributes:
        num_hosts: Number of hosts.
        master_host: Per-global-node host that owns the master proxy.
        edge_host: Per-edge host that owns the edge (aligned with the
            EdgeList handed to the partitioner).
        extra_proxies: Optional per-host arrays of additional global IDs to
            materialize as (edge-less) mirror proxies.  Used by baselines
            with dual in/out representations (Gemini), whose mirror sets are
            larger than the computation edges alone imply.
    """

    num_hosts: int
    master_host: np.ndarray
    edge_host: np.ndarray
    extra_proxies: Optional[List[np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.extra_proxies is not None and len(self.extra_proxies) != self.num_hosts:
            raise PartitionError(
                "extra_proxies must have one entry per host"
            )
        master_host = np.ascontiguousarray(self.master_host, dtype=np.int32)
        edge_host = np.ascontiguousarray(self.edge_host, dtype=np.int32)
        if self.num_hosts <= 0:
            raise PartitionError(f"num_hosts must be >= 1, got {self.num_hosts}")
        for name, arr in (("master_host", master_host), ("edge_host", edge_host)):
            if len(arr) and (arr.min() < 0 or arr.max() >= self.num_hosts):
                raise PartitionError(
                    f"{name} contains host ids outside [0, {self.num_hosts})"
                )
        object.__setattr__(self, "master_host", master_host)
        object.__setattr__(self, "edge_host", edge_host)

    @cached_property
    def edge_groups(self) -> HostGroups:
        """Edge positions binned by owning host (built on first use)."""
        return HostGroups(self.edge_host, self.num_hosts)

    @cached_property
    def node_groups(self) -> HostGroups:
        """Global node ids binned by master host (built on first use)."""
        return HostGroups(self.master_host, self.num_hosts)


class LocalPartition:
    """One host's share of the partitioned graph.

    Attributes:
        host: Host id.
        graph: Local CSR graph over local IDs.
        local_to_global: uint32 map local ID -> global ID.
        num_masters: Locals ``0..num_masters-1`` are masters.
        mirror_master_host: For each *mirror* (indexed from 0 at local ID
            ``num_masters``), the host owning its master proxy.
        strategy: The partitioning strategy the partition was built
            under, stamped by :class:`PartitionedGraph` — what
            ``compile_program(optimize=True)``'s generated ``make_fields``
            resolves its GL301 dead-sync table against.  ``None`` for a
            bare partition constructed outside a whole-graph build (unit
            drives), which disables the elimination.
    """

    def __init__(
        self,
        host: int,
        graph: CSRGraph,
        local_to_global: np.ndarray,
        num_masters: int,
        mirror_master_host: np.ndarray,
    ) -> None:
        if graph.num_nodes != len(local_to_global):
            raise PartitionError(
                "local graph size does not match local_to_global map"
            )
        if not 0 <= num_masters <= graph.num_nodes:
            raise PartitionError("num_masters out of range")
        if len(mirror_master_host) != graph.num_nodes - num_masters:
            raise PartitionError("mirror_master_host size mismatch")
        self.host = host
        self.graph = graph
        self.local_to_global = np.ascontiguousarray(
            local_to_global, dtype=np.uint32
        )
        self.num_masters = num_masters
        self.mirror_master_host = np.ascontiguousarray(
            mirror_master_host, dtype=np.int32
        )
        self.strategy: Optional["PartitionStrategy"] = None
        # Lazily built sort order for global -> local translation.
        self._l2g_order: Optional[np.ndarray] = None
        self._l2g_sorted: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        """Number of local proxies (masters + mirrors)."""
        return self.graph.num_nodes

    @property
    def num_mirrors(self) -> int:
        """Number of mirror proxies."""
        return self.num_nodes - self.num_masters

    def is_master(self, local_id: int) -> bool:
        """Whether the proxy at ``local_id`` is a master."""
        if not 0 <= local_id < self.num_nodes:
            raise IndexError(f"local id {local_id} out of range")
        return local_id < self.num_masters

    def master_locals(self) -> np.ndarray:
        """Local IDs of all master proxies (a contiguous range)."""
        return np.arange(self.num_masters, dtype=np.uint32)

    def mirror_locals(self) -> np.ndarray:
        """Local IDs of all mirror proxies (a contiguous range)."""
        return np.arange(self.num_masters, self.num_nodes, dtype=np.uint32)

    def to_global(self, local_id: int) -> int:
        """Translate a local ID to its global ID."""
        if not 0 <= local_id < self.num_nodes:
            raise IndexError(f"local id {local_id} out of range")
        return int(self.local_to_global[local_id])

    def to_local(self, global_id: int) -> int:
        """Translate a global ID to this host's local ID.

        Raises ``KeyError`` if this host holds no proxy for the node.
        """
        gid = int(global_id)
        if not 0 <= gid <= np.iinfo(np.uint32).max:
            raise KeyError(gid)
        return int(self.to_local_array(np.array([gid], dtype=np.uint32))[0])

    def to_local_array(self, global_ids: np.ndarray) -> np.ndarray:
        """Translate many global IDs to local IDs in one vectorized lookup.

        A sorted binary search over the proxy table (sorted once, on
        first use), used on every GLOBAL_IDS decode, in the memoization
        exchange and by the scalar :meth:`to_local`.

        Raises ``KeyError`` naming the first unknown ID if any global ID
        has no proxy on this host.
        """
        gids = np.ascontiguousarray(global_ids, dtype=np.uint32)
        if len(gids) == 0:
            return np.empty(0, dtype=np.uint32)
        if self._l2g_order is None:
            self._l2g_order = np.argsort(self.local_to_global).astype(
                np.uint32
            )
            self._l2g_sorted = self.local_to_global[self._l2g_order]
        if len(self._l2g_sorted) == 0:
            raise KeyError(int(gids[0]))
        pos = np.searchsorted(self._l2g_sorted, gids)
        pos_clipped = np.minimum(pos, len(self._l2g_sorted) - 1)
        misses = self._l2g_sorted[pos_clipped] != gids
        if misses.any():
            missing = int(gids[misses][0])
            raise KeyError(missing)
        return self._l2g_order[pos_clipped]

    def has_proxy(self, global_id: int) -> bool:
        """Whether this host holds a proxy for the global node."""
        try:
            self.to_local(global_id)
        except KeyError:
            return False
        return True

    def master_host_of_mirror(self, local_id: int) -> int:
        """Host owning the master of the mirror at ``local_id``."""
        if not self.num_masters <= local_id < self.num_nodes:
            raise IndexError(f"local id {local_id} is not a mirror")
        return int(self.mirror_master_host[local_id - self.num_masters])

    def __repr__(self) -> str:
        return (
            f"LocalPartition(host={self.host}, masters={self.num_masters}, "
            f"mirrors={self.num_mirrors}, edges={self.graph.num_edges})"
        )


@dataclass
class PartitionedGraph:
    """A whole-graph partition: one :class:`LocalPartition` per host.

    Attributes:
        strategy: The strategy class the policy belongs to (drives the
            structural-invariant communication plan).
        policy_name: Human-readable policy name (e.g. ``"cvc"``).
        num_global_nodes: Node count of the input graph.
        num_global_edges: Edge count of the input graph.
        master_host: Per-global-node owner host.
        partitions: Per-host local partitions.
    """

    strategy: PartitionStrategy
    policy_name: str
    num_global_nodes: int
    num_global_edges: int
    master_host: np.ndarray
    partitions: List[LocalPartition] = field(default_factory=list)
    #: True when the policy materializes edge-less mirrors (dual-rep
    #: baselines); relaxes the "every mirror has an edge" verification.
    has_edgeless_mirrors: bool = False

    def __post_init__(self) -> None:
        # Constructor-passed partitions (the shared-memory rebuild path)
        # get the strategy stamped immediately; incrementally appended
        # ones are covered by tag_partitions().
        self.tag_partitions()

    def tag_partitions(self) -> None:
        """Stamp every local partition with this graph's strategy.

        The stamp is what lets *per-host* code (generated ``make_fields``
        bodies, which only ever see one :class:`LocalPartition`) resolve
        strategy-conditional proofs like the GL301 dead-sync table.
        """
        for part in self.partitions:
            part.strategy = self.strategy

    @property
    def num_hosts(self) -> int:
        """Number of hosts."""
        return len(self.partitions)

    def replication_factor(self) -> float:
        """Average number of proxies per global node (§5.2)."""
        if self.num_global_nodes == 0:
            return 0.0
        total_proxies = sum(p.num_nodes for p in self.partitions)
        return total_proxies / self.num_global_nodes


def _chunk_boundaries(weights: np.ndarray, num_chunks: int) -> np.ndarray:
    """Split ``len(weights)`` items into contiguous chunks of ~equal weight.

    Returns an array of ``num_chunks + 1`` boundaries.  This is the
    chunk-based blocking used by the paper's edge-cut policies (after
    Gemini): node ranges chosen so each host receives roughly the same
    total node weight (out-degree, in-degree, or a blend).
    """
    if num_chunks <= 0:
        raise PartitionError(f"num_chunks must be >= 1, got {num_chunks}")
    n = len(weights)
    # Give every node weight >= 1 so empty-degree tails still spread out.
    cumulative = np.cumsum(weights.astype(np.float64) + 1.0)
    total = cumulative[-1] if n else 0.0
    targets = total * np.arange(1, num_chunks, dtype=np.float64) / num_chunks
    cuts = np.searchsorted(cumulative, targets, side="left")
    boundaries = np.empty(num_chunks + 1, dtype=np.int64)
    boundaries[0] = 0
    boundaries[1:-1] = cuts
    boundaries[-1] = n
    return np.maximum.accumulate(boundaries)


def build_local_partition(
    edges: EdgeList,
    assignment: EdgeAssignment,
    host: int,
    gid_to_lid: Optional[np.ndarray] = None,
) -> LocalPartition:
    """Materialize one host's local graph from an edge assignment.

    Gather the host's edges, create proxies for their endpoints plus any
    master-owned isolated nodes, order local IDs masters-first, and build
    the local CSR.  ``gid_to_lid`` is an optional reusable scratch array
    (uint32, all :data:`NO_PROXY`, length ``edges.num_nodes``); it is
    restored to :data:`NO_PROXY` on return.

    This is the single code path for host construction: the full builder
    loops over it, and the streaming delta-partitioner rebuilds only
    changed hosts through it, which is what makes delta results bitwise
    identical to a from-scratch rebuild.  Only the host's own slice of
    the edge list is read (``assignment.edge_groups``), and every array
    of the result owns its data.
    """
    if len(assignment.master_host) != edges.num_nodes:
        raise PartitionError(
            f"master_host has {len(assignment.master_host)} entries for "
            f"{edges.num_nodes} nodes"
        )
    if len(assignment.edge_host) != edges.num_edges:
        raise PartitionError(
            f"edge_host has {len(assignment.edge_host)} entries for "
            f"{edges.num_edges} edges"
        )
    if gid_to_lid is None:
        gid_to_lid = np.full(edges.num_nodes, NO_PROXY, dtype=np.uint32)
    # Unpacked, not held: rebinding src/dst below must free the gid copies.
    owned, src, dst, weight, _, mirrors, mirror_master_host = host_inputs(
        edges, assignment, host
    )
    proxies = np.concatenate([owned, mirrors])
    gid_to_lid[proxies] = np.arange(len(proxies), dtype=np.uint32)
    # Rebinding frees the global-id copies before the CSR build, the peak.
    src, dst = gid_to_lid[src], gid_to_lid[dst]
    gid_to_lid[proxies] = NO_PROXY  # reset scratch
    graph = CSRGraph.from_edges(len(proxies), src, dst, weight)
    return LocalPartition(
        host=host,
        graph=graph,
        local_to_global=proxies.astype(np.uint32),
        num_masters=len(owned),
        mirror_master_host=mirror_master_host,
    )


def build_partitioned_graph(
    edges: EdgeList,
    assignment: EdgeAssignment,
    strategy: PartitionStrategy,
    policy_name: str,
    reuse: Optional[Dict[int, LocalPartition]] = None,
) -> PartitionedGraph:
    """Materialize per-host local graphs from an edge assignment.

    Runs :func:`build_local_partition` for every host not in ``reuse``
    (host -> an already built partition whose construction inputs are
    unchanged: the streaming delta; a cold build reuses nothing), on
    strided host shares (:func:`for_each_host`).
    """
    num_hosts = assignment.num_hosts
    partitioned = PartitionedGraph(
        strategy=strategy,
        policy_name=policy_name,
        num_global_nodes=edges.num_nodes,
        num_global_edges=edges.num_edges,
        master_host=assignment.master_host,
        has_edgeless_mirrors=assignment.extra_proxies is not None,
    )
    reuse = reuse or {}
    todo = [host for host in range(num_hosts) if host not in reuse]
    if todo:
        # Grouped on this thread, once, before the shares read them (a
        # share that built them would keep them in its thread's arena).
        _ = assignment.edge_groups, assignment.node_groups
    built = for_each_host(
        todo,
        lambda host, gid_to_lid: build_local_partition(edges, assignment, host, gid_to_lid),
        # One gid -> lid lookup per share, reused across its hosts.
        scratch=lambda: np.full(edges.num_nodes, NO_PROXY, dtype=np.uint32),
    )
    built_by_host = dict(zip(todo, built))
    partitioned.partitions.extend(
        reuse[host] if host in reuse else built_by_host[host] for host in range(num_hosts)
    )
    partitioned.tag_partitions()
    return partitioned


class Partitioner:
    """Base class for partitioning policies.

    Subclasses implement :meth:`assign` to produce an
    :class:`EdgeAssignment`; :meth:`partition` then builds the per-host
    graphs.  ``strategy`` and ``name`` identify the policy.
    """

    #: Strategy class of the policy (set by subclasses).
    strategy: PartitionStrategy = PartitionStrategy.UVC
    #: Short policy name used in reports and factory lookup.
    name: str = "base"

    def assign(self, edges: EdgeList, num_hosts: int) -> EdgeAssignment:
        """Assign every edge (and every node's master) to a host."""
        raise NotImplementedError

    def cache_token(self) -> str:
        """Canonical identity string for partition caching.

        Two partitioner instances with the same token produce identical
        partitions for identical inputs.  Scalar constructor parameters
        (e.g. the random cut's seed, Gemini's mode) are folded in; the
        token is process-independent, so it composes with
        :meth:`~repro.graph.edgelist.EdgeList.content_hash` into a stable
        cache key.
        """
        import json

        params = {
            key: value
            for key, value in sorted(vars(self).items())
            if isinstance(value, (bool, int, float, str))
        }
        return json.dumps(
            {"class": type(self).__name__, "policy": self.name, "params": params},
            sort_keys=True,
        )

    def partition(self, edges: EdgeList, num_hosts: int) -> PartitionedGraph:
        """Partition ``edges`` across ``num_hosts`` hosts."""
        if num_hosts <= 0:
            raise PartitionError(f"num_hosts must be >= 1, got {num_hosts}")
        assignment = self.assign(edges, num_hosts)
        return build_partitioned_graph(edges, assignment, self.strategy, self.name)
