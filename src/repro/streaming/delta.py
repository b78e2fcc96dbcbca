"""Delta-partitioning: patch a partition instead of rebuilding it.

Gluon's memoization (§4.1) rests on temporal invariance — the partition
never changes, so proxy tables and address books are computed once.  A
mutation batch breaks the invariance, but usually only *locally*: most
hosts' inputs (their edge subsequence, their owned vertex set, the
ownership of their mirrors) are untouched by a small batch.

:func:`delta_partition` recomputes the policy's cheap vectorized edge
assignment on the mutated list, diffs it per host against the previous
assignment, **reuses** every :class:`LocalPartition` whose inputs are
unchanged, and rebuilds the rest through the exact same single-host code
path the full builder uses (:func:`build_local_partition`) — which is
what makes the delta result bitwise identical to a from-scratch rebuild
for *every* policy, including the degree-chunked edge cuts whose chunk
boundaries can shift globally under mutation (those simply degrade to
more rebuilds, never to wrong answers).

:func:`patch_address_books` is the memoization twin: only *changed*
hosts re-send their (gids, has_in, has_out) exchange messages through
the transport; every other pairwise entry is either copied (both ends
unchanged) or re-translated locally from the previous books (unchanged
sender, changed receiver — the gids are already known on the receiver,
so no traffic is needed).  The patched books are array-for-array equal
to a full exchange, at a message cost proportional to the number of
changed hosts instead of all host pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.memoization import (
    AddressBook,
    _decode_exchange,
    _encode_exchange,
)
from repro.errors import PartitionError, SyncError
from repro.graph.edgelist import EdgeList
from repro.network.transport import InProcessTransport
from repro.partition.base import (
    EdgeAssignment,
    LocalPartition,
    PartitionedGraph,
    Partitioner,
    build_local_partition,
    host_edges,
    marked_nodes,
)


@dataclass
class DeltaPartitionResult:
    """Outcome of a delta-partitioning pass.

    Attributes:
        partitioned: The new :class:`PartitionedGraph` (reused + rebuilt
            per-host partitions).
        assignment: The fresh edge assignment over the mutated list.
        reused_hosts: Hosts whose local partition objects were reused.
        rebuilt_hosts: Hosts rebuilt through the single-host builder.
    """

    partitioned: PartitionedGraph
    assignment: EdgeAssignment
    reused_hosts: List[int]
    rebuilt_hosts: List[int]

    @property
    def num_reused(self) -> int:
        return len(self.reused_hosts)

    @property
    def num_rebuilt(self) -> int:
        return len(self.rebuilt_hosts)


def _host_unchanged(
    host: int,
    old_edges: EdgeList,
    new_edges: EdgeList,
    old_assignment: EdgeAssignment,
    new_assignment: EdgeAssignment,
    old_part: LocalPartition,
) -> bool:
    """Whether ``host``'s construction inputs are identical across versions.

    Four conditions, matching exactly what :func:`build_local_partition`
    consumes: the owned (master) vertex set, the host's edge
    *subsequence* (order matters — the local CSR's stable sort preserves
    input order within a source), the extra-proxy set, and the global
    ownership of the host's mirrors (a boundary shift elsewhere can move
    a mirror's master without touching this host's edges).
    """
    if not np.array_equal(
        old_assignment.node_groups.of(host),
        new_assignment.node_groups.of(host),
    ):
        return False
    for old, new in zip(
        host_edges(old_edges, old_assignment, host),
        host_edges(new_edges, new_assignment, host),
    ):  # src, dst, weight; a missing weight is None, equal only to None
        if not np.array_equal(old, new):
            return False
    old_extra = old_assignment.extra_proxies
    new_extra = new_assignment.extra_proxies
    if (old_extra is None) != (new_extra is None):
        return False
    if old_extra is not None and not np.array_equal(
        np.ascontiguousarray(old_extra[host], dtype=np.uint32),
        np.ascontiguousarray(new_extra[host], dtype=np.uint32),
    ):
        return False
    # Mirror-ownership check: same mirror gids (implied by owned+edges
    # equality), but their masters may have moved to different hosts.
    mirror_gids = old_part.local_to_global[old_part.num_masters :]
    if not np.array_equal(
        old_part.mirror_master_host,
        new_assignment.master_host[mirror_gids.astype(np.int64)],
    ):
        return False
    return True


def delta_partition(
    old_edges: EdgeList,
    old_partitioned: PartitionedGraph,
    new_edges: EdgeList,
    partitioner: Partitioner,
) -> DeltaPartitionResult:
    """Patch ``old_partitioned`` into a partition of ``new_edges``.

    The policy's :meth:`~Partitioner.assign` is recomputed on both edge
    lists (deterministic and cheap — vectorized over the edge arrays,
    no proxy materialization); hosts whose inputs are unchanged reuse
    their old :class:`LocalPartition` object, the rest rebuild through
    :func:`build_local_partition`.
    """
    num_hosts = old_partitioned.num_hosts
    if partitioner.name != old_partitioned.policy_name:
        raise PartitionError(
            f"delta_partition got policy {partitioner.name!r} for a "
            f"partition built with {old_partitioned.policy_name!r}"
        )
    if old_partitioned.num_global_nodes != old_edges.num_nodes:
        raise PartitionError(
            "old partition does not describe the old edge list"
        )
    old_assignment = partitioner.assign(old_edges, num_hosts)
    new_assignment = partitioner.assign(new_edges, num_hosts)
    partitioned = PartitionedGraph(
        strategy=partitioner.strategy,
        policy_name=partitioner.name,
        num_global_nodes=new_edges.num_nodes,
        num_global_edges=new_edges.num_edges,
        master_host=new_assignment.master_host,
        has_edgeless_mirrors=new_assignment.extra_proxies is not None,
    )
    reused: List[int] = []
    rebuilt: List[int] = []
    for host in range(num_hosts):
        old_part = old_partitioned.partitions[host]
        if _host_unchanged(
            host, old_edges, new_edges, old_assignment, new_assignment,
            old_part,
        ):
            partitioned.partitions.append(old_part)
            reused.append(host)
        else:
            partitioned.partitions.append(
                build_local_partition(new_edges, new_assignment, host)
            )
            rebuilt.append(host)
    partitioned.tag_partitions()
    return DeltaPartitionResult(
        partitioned=partitioned,
        assignment=new_assignment,
        reused_hosts=reused,
        rebuilt_hosts=rebuilt,
    )


def patch_address_books(
    old_books: List[AddressBook],
    old_partitioned: PartitionedGraph,
    new_partitioned: PartitionedGraph,
    changed_hosts: List[int],
    transport: InProcessTransport,
) -> List[AddressBook]:
    """Patch the memoized address books after a delta-partitioning.

    Only ``changed_hosts`` send exchange messages (their mirror sets may
    have changed toward anyone); every other pairwise entry is copied
    from ``old_books`` or re-translated locally.  The traffic flows
    through ``transport`` so it lands in the measured construction
    communication — the streaming construction message cut is exactly
    ``|changed| * (hosts-1)`` versus ``hosts * (hosts-1)`` for a full
    exchange.

    Per-pair entries are deterministic (mirror arrays in each sender's
    memoized ascending-gid order), so the patched books are
    array-for-array equal to :func:`exchange_address_books` run from
    scratch on the new partition — the property the delta tests assert.
    """
    num_hosts = new_partitioned.num_hosts
    if transport.num_hosts != num_hosts:
        raise SyncError(
            f"transport has {transport.num_hosts} hosts for a "
            f"{num_hosts}-host partition"
        )
    changed = set(changed_hosts)
    unknown = changed - set(range(num_hosts))
    if unknown:
        raise SyncError(f"changed hosts {sorted(unknown)} out of range")
    books = [
        AddressBook(
            host=h,
            num_hosts=num_hosts,
            peer_order=[p for p in range(num_hosts) if p != h],
        )
        for h in range(num_hosts)
    ]
    empty = np.empty(0, dtype=np.uint32)

    # Mirror side: unchanged hosts keep their memoized groups; changed
    # hosts regroup from their fresh partition (same code as the full
    # exchange's local phase).
    for part in new_partitioned.partitions:
        book = books[part.host]
        old = old_books[part.host]
        if part.host not in changed:
            for attr in ("mirrors_all", "mirrors_reduce",
                         "mirrors_broadcast", "mirrors_any"):
                getattr(book, attr).update(getattr(old, attr))
            continue
        out_deg = part.graph.out_degree()
        in_deg = part.graph.in_degree()
        mirror_lids = part.mirror_locals()
        owners = part.mirror_master_host
        for peer in range(num_hosts):
            if peer == part.host:
                continue
            mine = mirror_lids[owners == peer]
            book.mirrors_all[peer] = mine
            book.mirrors_reduce[peer] = mine[in_deg[mine] > 0]
            book.mirrors_broadcast[peer] = mine[out_deg[mine] > 0]
            book.mirrors_any[peer] = mine[
                (in_deg[mine] > 0) | (out_deg[mine] > 0)
            ]

    # Exchange phase: only changed hosts ship (gids, has_in, has_out).
    for host in sorted(changed):
        part = new_partitioned.partitions[host]
        book = books[host]
        in_deg = part.graph.in_degree()
        out_deg = part.graph.out_degree()
        for peer in range(num_hosts):
            if peer == host:
                continue
            mine = book.mirrors_all[peer]
            if len(mine) == 0:
                continue
            payload = _encode_exchange(
                part.local_to_global[mine],
                in_deg[mine] > 0,
                out_deg[mine] > 0,
            )
            transport.send(host, peer, payload)

    # Master side: copy, re-translate, or decode per (receiver, sender).
    for part in new_partitioned.partitions:
        host = part.host
        book = books[host]
        old = old_books[host]
        if host not in changed:
            # My proxy table is unchanged, so entries from unchanged
            # senders are still valid verbatim.  Entries from changed
            # senders reset to empty and are refilled by their messages
            # below (a changed sender with no remaining mirrors here
            # legitimately sends nothing).
            for attr in ("masters_all", "masters_reduce",
                         "masters_broadcast", "masters_any"):
                getattr(book, attr).update(getattr(old, attr))
                for sender in changed:
                    if sender != host:
                        getattr(book, attr)[sender] = empty
        else:
            # My local IDs may have shifted: re-translate unchanged
            # senders' entries through the new proxy table.  Their gids
            # and edge flags are recoverable from the old book (mirror
            # arrays are positionally aligned with their subsets), so no
            # message is needed.
            old_part = old_partitioned.partitions[host]
            for sender in range(num_hosts):
                if sender == host or sender in changed:
                    continue
                old_all = old.masters_all.get(sender, empty)
                if len(old_all) == 0:
                    continue
                gids = old_part.local_to_global[old_all]
                try:
                    lids = part.to_local_array(gids)
                except KeyError as exc:
                    raise SyncError(
                        f"host {host}: lost the master proxy for global "
                        f"node {exc.args[0]} still mirrored on {sender}"
                    ) from exc
                if len(lids) and lids.max() >= part.num_masters:
                    raise SyncError(
                        f"host {host}: no longer masters a node mirrored "
                        f"on unchanged host {sender}"
                    )
                has_in = np.isin(
                    old_all, old.masters_reduce.get(sender, empty)
                )
                has_out = np.isin(
                    old_all, old.masters_broadcast.get(sender, empty)
                )
                book.masters_all[sender] = lids
                book.masters_reduce[sender] = lids[has_in]
                book.masters_broadcast[sender] = lids[has_out]
                book.masters_any[sender] = lids[has_in | has_out]
        for sender, payload in transport.receive_all(host):
            gids, has_in, has_out = _decode_exchange(payload)
            try:
                lids = part.to_local_array(gids)
            except KeyError as exc:
                raise SyncError(
                    f"host {host}: peer {sender} mirrors global node "
                    f"{exc.args[0]} this host holds no proxy for"
                ) from exc
            if len(lids) and lids.max() >= part.num_masters:
                raise SyncError(
                    f"host {host}: peer {sender} mirrors a node this "
                    "host does not master"
                )
            book.masters_all[sender] = lids
            book.masters_reduce[sender] = lids[has_in]
            book.masters_broadcast[sender] = lids[has_out]
            book.masters_any[sender] = lids[has_in | has_out]
    for book in books:
        for peer in range(num_hosts):
            if peer == book.host:
                continue
            book.masters_all.setdefault(peer, empty)
            book.masters_reduce.setdefault(peer, empty)
            book.masters_broadcast.setdefault(peer, empty)
            book.masters_any.setdefault(peer, empty)
    return books


def signature_of_host(
    edges: EdgeList,
    assignment: EdgeAssignment,
    host: int,
    policy_token: str,
) -> str:
    """Content signature of one host's construction inputs.

    Two hosts with equal signatures build identical local partitions, so
    the signature is a sound per-host cache key across graph versions:
    an untouched host keeps its signature through a mutation and its
    cached partition is reused warm.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(
        f"HostPartition/{policy_token}/{assignment.num_hosts}/{host}".encode()
    )
    owned = assignment.node_groups.of(host)
    digest.update(owned.astype(np.uint32).tobytes())
    src, dst, weight = host_edges(edges, assignment, host)
    digest.update(src.tobytes())
    digest.update(dst.tobytes())
    if weight is not None:
        digest.update(weight.tobytes())
    if assignment.extra_proxies is not None:
        digest.update(
            np.ascontiguousarray(
                assignment.extra_proxies[host], dtype=np.uint32
            ).tobytes()
        )
    mirrors = marked_nodes(edges.num_nodes, [src, dst], exclude=owned)
    digest.update(assignment.master_host[mirrors].tobytes())
    return digest.hexdigest()
