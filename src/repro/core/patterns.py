"""The sync plan: what a layout decides about synchronization (§3.2, §4.1).

The partitioning strategy fixes which proxies can ever exchange a value
and the partition never changes, so routing is decided once per layout,
not per round.  A :class:`SyncPlan` is one host's share of it: per field
and phase, the peers to send to with the memoized arrays agreed with
each, the arrays to receive into, the field's constant EMPTY payload, and
a *cluster-wide* verdict on whether the phase can carry a message at all.

With structural-invariant optimization (OSI) the arrays are the subsets
recorded during memoization — only mirrors with local in-edges can be
written, only mirrors with local out-edges are read — which reproduces
the paper's per-strategy patterns:

* **OEC** — mirrors have no out-edges, so every broadcast subset is empty:
  reduce-only synchronization (§3.2's "reset the mirrors locally").
* **IEC** — mirrors have no in-edges: broadcast-only (halo exchange).
* **CVC** — the reduce subset is the "column" mirrors and the broadcast
  subset the "row" mirrors, shrinking each host's partner count.
* **UVC** — both subsets are (potentially) full: gather-apply-scatter.

With OSI disabled, both phases run over *all* mirrors — the unoptimized
gather-apply-scatter baseline of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.memoization import AddressBook
from repro.core.serialization import empty_message
from repro.core.sync_structures import FieldSpec
from repro.errors import SyncError

PHASES = ("reduce", "broadcast")


def proxy_arrays(
    book: AddressBook, structural: bool, locations: frozenset
) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
    """The ``(mirror-side, master-side)`` arrays a field's locations select.

    The paper's ``sync<WriteLocation, ReadLocation>``: with structural
    optimization only proxies whose local edges allow the access take
    part — writes (reads) at the destination need in-edges, at the source
    out-edges.  Reduce passes a field's ``writes``, broadcast its ``reads``.
    """
    if not structural:
        return book.mirrors_all, book.masters_all
    if locations == {"destination"}:
        return book.mirrors_reduce, book.masters_reduce
    if locations == {"source"}:
        return book.mirrors_broadcast, book.masters_broadcast
    return book.mirrors_any, book.masters_any


def _routes(book: AddressBook, structural: bool, field: FieldSpec):
    """``phase -> (send arrays, receive arrays)`` of ``field`` on one host."""
    written_mirrors, written_masters = proxy_arrays(book, structural, field.writes)
    read_mirrors, read_masters = proxy_arrays(book, structural, field.reads)
    return {
        "reduce": (written_mirrors, written_masters),
        "broadcast": (read_masters, read_mirrors),
    }


def phase_liveness(
    books: Sequence[AddressBook], structural: bool, fields: Sequence[FieldSpec]
) -> Tuple[Dict[str, bool], ...]:
    """Per field slot, ``phase -> live``, judged over the whole cluster.

    Live iff the field declares the phase and *some* host has a non-empty
    send array for it.  ``books`` must be every host's, never one
    process's share: all drivers of the collective must skip the same
    phases, or a receiver waits for end-of-phase markers that never come.
    ``fields`` is any one host's list (declarations agree across hosts).
    """
    return tuple(
        {
            phase: phase in field.sync_phases
            and any(
                len(agreed)
                for book in books
                for agreed in _routes(book, structural, field)[phase][0].values()
            )
            for phase in PHASES
        }
        for field in fields
    )


@dataclass(frozen=True)
class FieldPlan:
    """One bound field's resolved routes on one host, keyed by phase.

    ``sends`` are ``(peer, agreed)`` pairs in ascending peer order, empty
    agreed arrays dropped (none for an undeclared phase), aligned element
    by element with the peer's ``recv`` array (sender -> my receiving
    proxies); ``layout`` is ``sends`` laid out for a one-pass encode.
    ``live`` is the cluster-wide verdict (:func:`phase_liveness`) and
    ``empty`` the field's constant EMPTY payload.
    """

    field: FieldSpec
    sends: Dict[str, Tuple[Tuple[int, np.ndarray], ...]]
    recv: Dict[str, Dict[int, np.ndarray]]
    live: Dict[str, bool]
    empty: bytes
    layout: Dict[str, "SendLayout"]


@dataclass(frozen=True)
class SendLayout:
    """One field's sends in one phase, laid out once per layout so a phase
    encodes every peer in one pass: their agreed arrays end to end
    (``concat``, native ints; peer ``i``'s at ``bounds[i]:bounds[i + 1]``,
    ``starts`` is ``bounds[:-1]``, ``lengths`` their sizes) and each
    entry's position in its peer's array (``positions``, u32: every
    INDICES message by one gather).
    """

    peers: Tuple[int, ...]
    concat: np.ndarray
    bounds: Tuple[int, ...]
    lengths: Tuple[int, ...]
    starts: np.ndarray
    positions: np.ndarray


def send_layout(sends: Sequence[Tuple[int, np.ndarray]]) -> SendLayout:
    """Lay out ``(peer, agreed)`` sends."""
    lengths = np.array([len(agreed) for _, agreed in sends], dtype=np.intp)
    bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
    concat = np.concatenate([a for _, a in sends] or [[]]).astype(np.intp)
    return SendLayout(
        tuple(peer for peer, _ in sends), concat, tuple(bounds.tolist()),
        tuple(lengths.tolist()), bounds[:-1],
        (np.arange(len(concat)) - np.repeat(bounds[:-1], lengths)).astype(np.uint32),
    )


@dataclass(frozen=True)
class SyncPlan:
    """One host's resolved synchronization routes for one layout.

    ``peer_order`` is all peers, ascending — memoized so no sync call
    re-sorts its peer set; ``fields`` has one entry per bound field, in
    slot order.  ``uses_frontier`` is the program's flag: without a
    frontier, a receive builds a change set only for the reduce of a
    field without a hook (the plain apply reads it) and the round merges
    no frontier.
    """

    host: int
    peer_order: Tuple[int, ...]
    fields: Tuple[FieldPlan, ...] = ()
    uses_frontier: bool = True

    def of(self, field: FieldSpec) -> FieldPlan:
        """The plan entry of a bound field (matched by identity)."""
        for entry in self.fields:
            if entry.field is field:
                return entry
        raise SyncError(
            f"host {self.host}: field {field.name!r} is not bound to this "
            "layout's sync plan (see repro.core.substrate.bind_sync_plans)"
        )

    def live(self, phase: str) -> bool:
        """Whether ``phase`` can carry a message for any field."""
        return any(entry.live[phase] for entry in self.fields)


def build_sync_plan(
    book: AddressBook,
    structural: bool,
    fields: Sequence[FieldSpec] = (),
    liveness: Sequence[Dict[str, bool]] = (),
    uses_frontier: bool = True,
) -> SyncPlan:
    """Resolve one host's :class:`SyncPlan` from its memoized address book.

    ``fields`` are the host's synchronized fields in slot order and
    ``liveness`` their :func:`phase_liveness` over the whole cluster;
    ``uses_frontier`` is the program's.
    """
    # Old pickled books from a disk cache may predate ``peer_order``.
    peer_order = tuple(
        getattr(book, "peer_order", None)
        or (p for p in range(book.num_hosts) if p != book.host)
    )
    entries = []
    for slot, field in enumerate(fields):
        routes = _routes(book, structural, field)
        sends = {
            phase: tuple((p, send[p]) for p in peer_order if len(send[p]))
            if phase in field.sync_phases
            else ()
            for phase, (send, _) in routes.items()
        }
        recv = {phase: arrays for phase, (_, arrays) in routes.items()}
        layout = {phase: send_layout(pairs) for phase, pairs in sends.items()}
        entries.append(
            FieldPlan(
                field, sends, recv, liveness[slot], empty_message(field.wire_dtype),
                layout,
            )
        )
    return SyncPlan(book.host, peer_order, tuple(entries), uses_frontier)
