"""Memoization of address translation (§4.1).

Before any computation, every host tells each master-owning peer which of
that peer's nodes it mirrors — once.  Both sides keep the resulting proxy
arrays in an agreed order, so synchronization messages never carry global
IDs and no global<->local translation happens during execution.

The exchange message from host A to host B carries, for A's mirrors whose
masters live on B:

* the mirrors' global IDs (in A's memoized order), and
* two bit-vectors recording which of those mirrors have local in-edges and
  local out-edges on A.

The bit-vectors let B compute the *structural-invariant subsets* of §3.2:
only mirrors with in-edges can be written (so only they participate in
reduce), and only mirrors with out-edges are read (so only they receive
broadcast).  This is how the per-strategy communication patterns — reduce
only for OEC, broadcast only for IEC, row/column subsets for CVC — fall out
of one generic mechanism.

The exchange runs through the real transport, so its cost is part of the
measured graph-construction communication (Table 2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.bitvector import BitVector
from repro.errors import SerializationError, SyncError
from repro.network.transport import InProcessTransport
from repro.partition.base import HostGroups, PartitionedGraph


@dataclass
class AddressBook:
    """One host's memoized proxy arrays, per peer.

    All arrays hold *local* IDs after translation.  For a peer ``h``:

    * ``mirrors_all[h]`` — my mirrors whose master is on ``h`` (memoized
      order; I send these in reduce and receive into them in broadcast).
    * ``masters_all[h]`` — my masters mirrored on ``h``, aligned
      element-by-element with ``h``'s ``mirrors_all[me]``.
    * ``mirrors_reduce`` / ``mirrors_broadcast`` — structural subsets of
      ``mirrors_all``: mirrors with local in-edges / out-edges.
    * ``mirrors_any`` — mirrors with *either* edge direction (fields that
      are written or read at both endpoints, e.g. BC's phases).
    * ``masters_reduce`` / ``masters_broadcast`` / ``masters_any`` — the
      peer-side subsets of ``masters_all`` aligned with the peer's
      restricted mirror arrays.
    """

    host: int
    num_hosts: int
    #: All peers in ascending order — the memoized iteration order for
    #: every send loop.  Each per-peer dict below is keyed by exactly
    #: this set, so the substrate never re-sorts peers per sync call.
    peer_order: List[int] = field(default_factory=list)
    mirrors_all: Dict[int, np.ndarray] = field(default_factory=dict)
    mirrors_reduce: Dict[int, np.ndarray] = field(default_factory=dict)
    mirrors_broadcast: Dict[int, np.ndarray] = field(default_factory=dict)
    mirrors_any: Dict[int, np.ndarray] = field(default_factory=dict)
    masters_all: Dict[int, np.ndarray] = field(default_factory=dict)
    masters_reduce: Dict[int, np.ndarray] = field(default_factory=dict)
    masters_broadcast: Dict[int, np.ndarray] = field(default_factory=dict)
    masters_any: Dict[int, np.ndarray] = field(default_factory=dict)

    def peers_with_my_mirrors(self) -> List[int]:
        """Peers that own masters of my mirrors (I reduce-send to them)."""
        return sorted(h for h, arr in self.mirrors_all.items() if len(arr))

    def peers_with_my_masters(self) -> List[int]:
        """Peers that mirror my masters (I broadcast-send to them)."""
        return sorted(h for h, arr in self.masters_all.items() if len(arr))


def _encode_exchange(
    gids: np.ndarray, has_in: np.ndarray, has_out: np.ndarray
) -> bytes:
    """Encode one memoization exchange message."""
    count = len(gids)
    return (
        struct.pack("<I", count)
        + np.ascontiguousarray(gids, dtype=np.uint32).tobytes()
        + BitVector.from_bool_array(has_in).to_bytes()
        + BitVector.from_bool_array(has_out).to_bytes()
    )


def _decode_exchange(payload: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode one memoization exchange message."""
    if len(payload) < 4:
        raise SerializationError("memoization message truncated")
    (count,) = struct.unpack_from("<I", payload, 0)
    offset = 4
    gid_bytes = count * 4
    bv_bytes = BitVector.wire_size(count)
    expected = offset + gid_bytes + 2 * bv_bytes
    if len(payload) != expected:
        raise SerializationError(
            f"memoization message: expected {expected} bytes, got {len(payload)}"
        )
    gids = np.frombuffer(payload[offset : offset + gid_bytes], dtype=np.uint32)
    offset += gid_bytes
    has_in = BitVector.from_bytes(
        payload[offset : offset + bv_bytes], count
    ).to_bool_array()
    offset += bv_bytes
    has_out = BitVector.from_bytes(
        payload[offset : offset + bv_bytes], count
    ).to_bool_array()
    return gids.copy(), has_in, has_out


def _record_masters(book, part, sender, gids, has_in, has_out) -> None:
    """Enter what ``sender`` says it mirrors of ``part``'s masters into ``book``."""
    try:
        lids = part.to_local_array(gids)
    except KeyError as exc:
        raise SyncError(
            f"host {part.host}: peer {sender} mirrors global node "
            f"{exc.args[0]} this host holds no proxy for"
        ) from exc
    if len(lids) and lids.max() >= part.num_masters:
        raise SyncError(
            f"host {part.host}: peer {sender} mirrors a node this "
            "host does not master"
        )
    book.masters_all[sender] = lids
    book.masters_reduce[sender] = lids[has_in]
    book.masters_broadcast[sender] = lids[has_out]
    book.masters_any[sender] = lids[has_in | has_out]


_MASTER_ARRAYS = ("masters_all", "masters_reduce", "masters_broadcast", "masters_any")
_MIRROR_ARRAYS = ("mirrors_all", "mirrors_reduce", "mirrors_broadcast", "mirrors_any")


def exchange_address_books(
    partitioned: PartitionedGraph,
    transport: InProcessTransport,
    previous: Optional[Tuple[List[AddressBook], PartitionedGraph, Iterable[int]]] = None,
) -> List[AddressBook]:
    """Run the memoization exchange for every host; returns per-host books.

    This is the one-time, pre-computation collective of §4.1.  Its traffic
    flows through ``transport`` and is therefore part of the measured graph
    construction communication.

    When a partition changes, "memoization is simply redone" (§4.1
    footnote) — by this same function.  ``previous = (old_books,
    old_partitioned, changed_hosts)`` describes the layout ``partitioned``
    was patched from: every host *not* in ``changed_hosts`` holds the very
    :class:`LocalPartition` it held in ``old_partitioned``.  Such a host
    keeps its mirror groups and sends nothing; entries between two
    unchanged hosts are kept; a changed receiver re-translates an
    unchanged sender's entries through its new proxy table (their gids and
    edge flags are recoverable from the old book, so no message is
    needed).  The books are array-for-array those of a cold exchange, at
    ``|changed| * (hosts - 1)`` messages instead of ``hosts * (hosts - 1)``.
    A cold exchange is the case where every host changed.
    """
    num_hosts = partitioned.num_hosts
    if transport.num_hosts != num_hosts:
        raise SyncError(
            f"transport has {transport.num_hosts} hosts for a "
            f"{num_hosts}-host partition"
        )
    old_books, old_partitioned, changed = None, None, set(range(num_hosts))
    if previous is not None:
        old_books, old_partitioned, changed_hosts = previous
        if len(old_books) != num_hosts or old_partitioned.num_hosts != num_hosts:
            raise SyncError(
                f"previous layout has {len(old_books)} address books and "
                f"{old_partitioned.num_hosts} hosts for a {num_hosts}-host partition"
            )
        unknown = set(changed_hosts) - changed
        if unknown:
            raise SyncError(f"changed hosts {sorted(unknown)} out of range")
        changed = set(changed_hosts)
    books = [
        AddressBook(
            host=h,
            num_hosts=num_hosts,
            peer_order=[p for p in range(num_hosts) if p != h],
        )
        for h in range(num_hosts)
    ]

    # Local phase: group my mirrors by owning peer and compute edge flags.
    for part in partitioned.partitions:
        book = books[part.host]
        if part.host not in changed:
            for name in _MIRROR_ARRAYS:
                getattr(book, name).update(getattr(old_books[part.host], name))
            continue
        out_deg = part.graph.out_degree()
        in_deg = part.graph.in_degree()
        mirror_lids = part.mirror_locals()
        by_owner = HostGroups(part.mirror_master_host, num_hosts)
        for peer in book.peer_order:
            mine = mirror_lids[by_owner.of(peer)]
            book.mirrors_all[peer] = mine
            book.mirrors_reduce[peer] = mine[in_deg[mine] > 0]
            book.mirrors_broadcast[peer] = mine[out_deg[mine] > 0]
            book.mirrors_any[peer] = mine[
                (in_deg[mine] > 0) | (out_deg[mine] > 0)
            ]

    # Exchange phase: ship (gids, has_in, has_out) to each owning peer.
    for part in partitioned.partitions:
        if part.host not in changed:
            continue
        book = books[part.host]
        in_deg = part.graph.in_degree()
        out_deg = part.graph.out_degree()
        for peer in book.peer_order:
            mine = book.mirrors_all[peer]
            if len(mine) == 0:
                continue
            payload = _encode_exchange(
                part.local_to_global[mine],
                in_deg[mine] > 0,
                out_deg[mine] > 0,
            )
            transport.send(part.host, peer, payload)

    # Translate phase: owners map received global IDs to local master IDs.
    empty = np.empty(0, dtype=np.uint32)
    for part in partitioned.partitions:
        book = books[part.host]
        for sender, payload in transport.receive_all(part.host):
            _record_masters(book, part, sender, *_decode_exchange(payload))
        for sender in book.peer_order:
            if sender in changed:
                continue  # told above, or mirrors nothing of mine any more
            old = old_books[part.host]
            if part.host not in changed:
                for name in _MASTER_ARRAYS:
                    getattr(book, name)[sender] = getattr(old, name)[sender]
                continue
            # My local IDs may have shifted; what the sender would say has not.
            old_all = old.masters_all[sender]
            _record_masters(
                book, part, sender,
                old_partitioned.partitions[part.host].local_to_global[old_all],
                np.isin(old_all, old.masters_reduce[sender]),
                np.isin(old_all, old.masters_broadcast[sender]),
            )
        for peer in book.peer_order:
            for name in _MASTER_ARRAYS:
                getattr(book, name).setdefault(peer, empty)
    return books
