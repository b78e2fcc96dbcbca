"""The Gluon substrate: per-host synchronization engine.

One :class:`GluonSubstrate` instance lives on each simulated host and
composes everything in this subpackage: the memoized address book (§4.1),
the structural-invariant sync plan (§3.2), the adaptive metadata encoder
(§4.2), and the layered communication plane of :mod:`repro.comm` — the
field codec, the multi-field wire frame, and the per-peer channels.

A synchronization phase is, on every host, one :meth:`stage_reduce` (or
:meth:`stage_broadcast`) per field — each one encode pass over all of the
field's peers — then :meth:`flush_phase`, then :meth:`receive_reduce_all`
(or :meth:`receive_broadcast_all`), which parses each received frame once
and applies every sub-message in place.
:func:`repro.runtime.round.synchronize` is the one driver, and it drives
only the phases the sync plan calls live: routes are resolved once per
layout (:func:`bind_sync_plans`), never per round.  Each phase carries
every field, and each peer gets one frame per phase.  The strict phase
order means each receive drains exactly the messages of its own phase
— BSP-style bulk communication.

Optimization levels (Figure 10):

* temporal off (UNOPT/OSI) — messages carry (global-ID, value) pairs and
  each end pays address translation (counted in :class:`SubstrateStats`).
* temporal on (OTI/OSTI) — messages are in memoized order and the encoder
  picks the cheapest of FULL / BITVEC / INDICES / EMPTY per message.
* structural off (UNOPT/OTI) — full gather-apply-scatter proxy sets.
* structural on (OSI/OSTI) — restricted sets from the sync plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.channel import CommPlane
from repro.comm.frame import frame_overhead
from repro.comm.codec import decode_update, encode_sends
from repro.core import index_sets
from repro.core.memoization import AddressBook, exchange_address_books
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.patterns import (
    PHASES,
    SyncPlan,
    build_sync_plan,
    phase_liveness,
    proxy_arrays,
)
from repro.core.serialization import is_empty_message, max_message_bytes
from repro.core.sync_structures import FieldSpec
from repro.errors import SyncError
from repro.network.transport import InProcessTransport
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.partition.base import LocalPartition, PartitionedGraph

_MODES = tuple(MetadataMode)
_EMPTY = int(MetadataMode.EMPTY)


@dataclass
class SubstrateStats:
    """Per-host synchronization counters: global<->local ID
    ``translations`` performed (the time overhead memoization removes,
    §4.1) and messages sent per metadata mode."""

    translations: int = 0
    mode_counts: Dict[MetadataMode, int] = dataclass_field(default_factory=dict)

    def absorb(self, other: "SubstrateStats") -> None:
        """Fold another substrate's counters into this total."""
        self.translations += other.translations
        for mode, count in other.mode_counts.items():
            self.mode_counts[mode] = self.mode_counts.get(mode, 0) + count


class GluonSubstrate:
    """Synchronization substrate for one simulated host."""

    def __init__(
        self,
        partition: LocalPartition,
        transport: InProcessTransport,
        level: OptimizationLevel,
        book: AddressBook,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.partition = partition
        #: Number of local proxies (masters + mirrors).
        self.num_local_nodes = partition.num_nodes
        self.level = level
        self.book = book
        #: The layout's resolved routes.  Knows the peers from birth; the
        #: per-field routes arrive with :func:`bind_sync_plans`, once the
        #: layout's fields exist.
        self.plan: SyncPlan = build_sync_plan(book, level.structural)
        self.stats = SubstrateStats()
        self.metrics = metrics
        self.plane = CommPlane(partition.host, transport, metrics=metrics)
        #: All-False between stages: a sparse dirty set is scattered into
        #: it, read at the send arrays and cleared, O(set + sends).
        self._scratch = np.zeros(self.num_local_nodes, dtype=bool)
        #: ``(field slot, phase) -> (layout, dirty, bits)`` of the last
        #: read-only dirty set staged there (see :meth:`_dirty_bits`).
        self._read_only_bits: Dict[Tuple[int, str], Tuple] = {}

    @property
    def host(self) -> int:
        """This substrate's host id."""
        return self.partition.host

    # -- sanitizer support (proxy-set masks over local IDs) ---------------------

    def _proxy_mask(self, arrays: Dict[int, np.ndarray]) -> np.ndarray:
        """Masters plus the union of per-peer proxy arrays, as a mask."""
        mask = np.zeros(self.num_local_nodes, dtype=bool)
        mask[: self.partition.num_masters] = True
        for agreed in arrays.values():
            mask[agreed] = True
        return mask

    def writable_mirror_mask(self, field: FieldSpec) -> np.ndarray:
        """Local IDs the compute phase may write for ``field``.

        Masters plus the mirrors whose contribution the reduce phase
        ships (the declared-write proxy set).  A write outside this mask
        is a lost update — the ``--sanitize`` mode's GL201.
        """
        mirrors, _ = proxy_arrays(self.book, self.level.structural, field.writes)
        return self._proxy_mask(mirrors)

    def readable_mirror_mask(self, field: FieldSpec) -> np.ndarray:
        """Local IDs the compute phase may read for ``field``.

        Masters plus the mirrors the broadcast phase refreshes (the
        declared-read proxy set).  A read outside this mask sees a stale
        value — the ``--sanitize`` mode's GL202.
        """
        mirrors, _ = proxy_arrays(self.book, self.level.structural, field.reads)
        return self._proxy_mask(mirrors)

    # -- staging (stats + metrics accounting around the field codec) -----------

    def _count_translations(self, count: int) -> None:
        if count:
            self.stats.translations += count
            if self.metrics.enabled:
                self.metrics.counter("translations_total", host=self.host).inc(count)

    def _count(self, modes: Sequence[int]) -> None:
        """Account one staged sub-message per entry of ``modes``."""
        counts = self.stats.mode_counts
        for tag in modes:
            mode = _MODES[tag]
            counts[mode] = counts.get(mode, 0) + 1
        if self.metrics.enabled:
            for tag in modes:
                self.metrics.counter("metadata_mode_total", mode=_MODES[tag].name).inc()

    def _stage(
        self, field_index: int, field: FieldSpec, dirty: np.ndarray, phase: str
    ) -> List[Tuple[int, int]]:
        """Stage ``field``'s sub-message for every peer of its ``phase`` route.

        One pass over the phase's concatenated send array: the dirty set
        marked in the scratch mask and read at every send entry, then one
        :func:`encode_sends` for every peer.  A quiet host costs a
        constant: its empty dirty set decides EMPTY for every peer (with
        memoization on, the field's constant EMPTY payload is staged
        without building anything), and so does a dirty set that misses
        every send entry.
        """
        entry = self.plan.of(field)
        sends = entry.sends[phase]
        broadcast = phase == "broadcast"
        self._check_dirty(dirty)
        if not sends:
            return []
        temporal = self.level.temporal
        layout = entry.layout[phase]
        peers = layout.peers
        updates = 0
        if len(dirty):
            bits = self._dirty_bits((field_index, phase), layout, dirty)
            updates = int(np.count_nonzero(bits))
        if not updates:
            if not temporal:
                return []  # no agreement, so no peer expects a message
            empty = entry.empty
            self.plane.stage_all(field_index, peers, [empty] * len(peers))
            self._count([_EMPTY] * len(peers))
            return [(peer, len(empty)) for peer in peers]
        modes, payloads = encode_sends(
            field, layout, bits, broadcast,
            None if temporal else self.partition.local_to_global,
        )
        if not temporal:
            self._count_translations(updates)
            spoken = [i for i, mode in enumerate(modes) if mode != _EMPTY]
            peers = [peers[i] for i in spoken]
            modes = [modes[i] for i in spoken]
            payloads = [payloads[i] for i in spoken]
        self.plane.stage_all(field_index, peers, payloads)
        self._count(modes)
        if not broadcast:
            # Mirrors are reset after their contribution is shipped so
            # the next round accumulates fresh values (§3.2, OEC).
            field.reset(layout.concat[bits])
        return [(peer, len(payload)) for peer, payload in zip(peers, payloads)]

    def _dirty_bits(self, key, layout, dirty: np.ndarray) -> np.ndarray:
        """Which entries of ``layout.concat`` the dirty set holds.

        A sparse set goes through the all-False scratch mask and leaves
        it all-False; a dense one (the :data:`~repro.core.index_sets.
        SPARSE_RATIO` cut) through a fresh mask, which costs less than
        clearing.  A read-only set cannot change, so its bits are kept
        for the next stage of the same slot and phase: a dense pull's
        written set (the graph's cached in-edge nodes) is read once per
        layout, not once per round.
        """
        kept = self._read_only_bits.get(key)
        if kept is not None and kept[0] is layout and kept[1] is dirty:
            return kept[2]
        if len(dirty) * index_sets.SPARSE_RATIO < self.num_local_nodes:
            scratch = self._scratch
            scratch[dirty] = True
            bits = scratch.take(layout.concat)
            scratch[dirty] = False
        else:
            mask = np.zeros(self.num_local_nodes, dtype=bool)
            mask[dirty] = True
            bits = mask.take(layout.concat)
        if not dirty.flags.writeable:
            self._read_only_bits[key] = (layout, dirty, bits)
        return bits

    # -- the phase API (driven by repro.runtime.round.synchronize) -------------

    def stage_reduce(
        self, field_index: int, field: FieldSpec, dirty: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Stage updated mirror values toward their masters, per peer.

        Returns the staged ``(peer, payload_bytes)`` pairs (the tracer
        attributes per-field byte ranges inside the frames with them).  A
        field whose ``sync_phases`` excludes ``"reduce"`` (GL301) has no
        reduce sends in the plan and stages nothing.
        """
        return self._stage(field_index, field, dirty, "reduce")

    def stage_broadcast(
        self, field_index: int, field: FieldSpec, dirty: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Stage updated master values toward their mirrors, per peer (a
        field whose ``sync_phases`` excludes ``"broadcast"`` stages nothing)."""
        staged = self._stage(field_index, field, dirty, "broadcast")
        # Delta senders commit the dirty rows only after every peer's
        # payload is encoded, whichever form each took: all sharing peers
        # received exactly these rows this phase, so the cache matches
        # every receiver's copy.
        if field.ships_delta and "broadcast" in field.sync_phases:
            field.commit_broadcast(dirty)
        return staged

    def flush_phase(self, num_fields: int) -> List[Tuple[int, int]]:
        """Flush every channel, one frame per peer; returns the flushed
        ``(peer, frame_bytes)`` pairs."""
        return self.plane.flush(num_fields, self.plan.peer_order)

    def receive_reduce_all(
        self, fields: Sequence[FieldSpec]
    ) -> List[Optional[np.ndarray]]:
        """Apply incoming mirror contributions at masters; per field, the
        set of masters whose value changed (``None``: none did)."""
        return self._receive_all(fields, "reduce")

    def receive_broadcast_all(
        self, fields: Sequence[FieldSpec]
    ) -> List[Optional[np.ndarray]]:
        """Install canonical master values at mirrors; per field, the set
        of mirrors whose value changed (``None``: none did)."""
        return self._receive_all(fields, "broadcast")

    def _receive_all(
        self, fields: Sequence[FieldSpec], phase: str
    ) -> List[Optional[np.ndarray]]:
        """Parse each received frame once and reduce (or set) every
        sub-message read in place from its offsets.  An EMPTY one is told
        from its two bytes and skipped; the rest go through
        :func:`decode_update`, whose arrays are views into the frame.  A
        field's changed set is the union of its messages' changed IDs —
        senders may name the same master, so it is built once, after the
        last frame — and is never built when it has no reader: without a
        frontier only the reduce of a field without a hook is compared
        (the plain apply reads it); every other apply is a plain gather,
        combine and scatter, and its entry is ``None``.
        """
        broadcast = phase == "broadcast"
        frontier = self.plan.uses_frontier
        pieces: List[List[np.ndarray]] = [[] for _ in fields]
        for sender, buffer, slots in self.plane.receive():
            if len(slots) != len(fields):
                raise SyncError(
                    f"host {self.host}: frame from {sender} carries "
                    f"{len(slots)} field slots, expected {len(fields)}"
                )
            for index, slot in enumerate(slots):
                if slot is None or is_empty_message(buffer, *slot):
                    continue
                field = fields[index]
                decoded = decode_update(
                    buffer, *slot, self.plan.of(field).recv[phase], sender,
                    self.partition, field, broadcast,
                )
                if decoded is None:
                    continue
                lids, values, translations = decoded
                if translations:
                    self._count_translations(translations)
                apply = field.set if broadcast else field.reduce
                changes = frontier or (
                    not broadcast and field.on_master_after_reduce is None
                )
                changed_here = apply(lids, values, changes)
                if changes:
                    pieces[index].append(lids[changed_here])
        return [
            index_sets.unique_ids(np.concatenate(ids), self.num_local_nodes)
            if sum(map(len, ids)) else None
            for ids in pieces
        ]

    def max_send_bytes(self) -> Dict[int, int]:
        """Per peer, the largest frame one phase can hand the transport:
        the frame header plus, per field sending to that peer in that
        phase, :func:`max_message_bytes` of its agreed array.  Peers this
        host never sends to are absent."""
        header = frame_overhead(len(self.plan.fields))
        bound: Dict[int, int] = {}
        for phase in PHASES:
            frames: Dict[int, int] = {}
            for entry in self.plan.fields:
                spec = entry.field
                for peer, agreed in entry.sends[phase]:
                    frames[peer] = frames.get(peer, header) + max_message_bytes(
                        len(agreed), spec.value_size, spec.width,
                        global_ids=not self.level.temporal,
                    )
            for peer, size in frames.items():
                bound[peer] = max(bound.get(peer, 0), size)
        return bound

    def assert_drained(self) -> None:
        """Check no channel still buffers un-flushed sub-messages."""
        self.plane.assert_drained()

    def _check_dirty(self, dirty: np.ndarray) -> None:
        """A dirty set is sorted local IDs: its ends bound every entry."""
        if (
            dirty.dtype != np.intp
            or dirty.ndim != 1
            or (len(dirty) and not 0 <= dirty[0] <= dirty[-1] < self.num_local_nodes)
        ):
            raise SyncError(
                f"host {self.host}: dirty set must be sorted np.intp local "
                f"IDs below {self.num_local_nodes}"
            )


def setup_substrates(
    partitioned: PartitionedGraph,
    transport: InProcessTransport,
    level: OptimizationLevel = OptimizationLevel.OSTI,
    metrics: MetricsRegistry = NULL_METRICS,
    previous=None,
) -> List[GluonSubstrate]:
    """Create one substrate per host, running the memoization exchange.

    The exchange happens regardless of optimization level (its arrays also
    drive the structural subsets), but with temporal optimization disabled
    the memoized order is never used on the wire.  ``previous`` is
    forwarded to :func:`exchange_address_books` (the layout this one was
    patched from, so only changed hosts exchange).
    """
    books = exchange_address_books(partitioned, transport, previous)
    return setup_substrates_from_books(
        partitioned, transport, level, PreparedSync(books), metrics
    )


def bind_sync_plans(
    hosts, substrates, fields, books: Sequence[AddressBook],
    uses_frontier: bool = True,
) -> None:
    """Resolve every substrate's :class:`SyncPlan` for its layout's fields.

    Called once per layout, after the fields exist, by whoever built the
    substrates (the executor's ``_bind``, a process worker).
    ``substrates`` and ``fields`` are indexed by the ids in ``hosts``;
    ``books`` is **every** host's address book, so each caller reaches the
    same cluster-wide liveness verdict whatever subset it owns.
    ``uses_frontier`` is the program's flag of that name.
    """
    first = substrates[hosts[0]]
    liveness = phase_liveness(books, first.level.structural, fields[hosts[0]])
    for h in hosts:
        sub = substrates[h]
        sub.plan = build_sync_plan(
            sub.book, sub.level.structural, fields[h], liveness,
            uses_frontier,
        )


@dataclass(frozen=True)
class PreparedSync:
    """Memoized sync structures harvested from a completed run.

    The temporal-invariance insight (§4): the partition never changes, so
    the address books built by the memoization exchange are a pure
    function of the partition and can be reused by *every* later run over
    the same (graph, policy, hosts) triple.  ``memoization_bytes`` is the
    construction traffic the original exchange cost; warm starts credit
    it so a cached run's :class:`~repro.runtime.stats.RunResult` stays
    byte-identical to a cold one.
    """

    books: List[AddressBook]
    memoization_bytes: int = 0


def setup_substrates_from_books(
    partitioned: PartitionedGraph,
    transport: InProcessTransport,
    level: OptimizationLevel,
    prepared: PreparedSync,
    metrics: MetricsRegistry = NULL_METRICS,
) -> List[GluonSubstrate]:
    """Create per-host substrates from already-memoized address books.

    The warm-start twin of :func:`setup_substrates`: no exchange runs and
    no traffic flows — the books came from a cache.
    """
    if len(prepared.books) != partitioned.num_hosts:
        raise SyncError(
            f"prepared sync has {len(prepared.books)} address books for a "
            f"{partitioned.num_hosts}-host partition"
        )
    return [
        GluonSubstrate(
            part, transport, level, prepared.books[part.host], metrics=metrics
        )
        for part in partitioned.partitions
    ]
