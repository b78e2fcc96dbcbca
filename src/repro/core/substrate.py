"""The Gluon substrate: per-host synchronization engine.

One :class:`GluonSubstrate` instance lives on each simulated host and
composes everything in this subpackage: the memoized address book (§4.1),
the structural-invariant sync plan (§3.2), the adaptive metadata encoder
(§4.2), and the layered communication plane of :mod:`repro.comm` — the
field codec, the multi-field wire frame, and the per-peer channels.

A synchronization phase stages a group of fields' sub-messages into the
per-peer channels, then flushes the channels:

1. every host calls :meth:`GluonSubstrate.stage_reduce` per field, then
   :meth:`GluonSubstrate.flush_phase`,
2. every host calls :meth:`GluonSubstrate.receive_reduce_all`,
3. every host calls :meth:`GluonSubstrate.stage_broadcast` per field,
   then :meth:`GluonSubstrate.flush_phase`,
4. every host calls :meth:`GluonSubstrate.receive_broadcast_all`.

:func:`repro.runtime.round.synchronize` is the one driver of that
sequence.  With an aggregating plane the group is all fields and each
peer gets one multi-field framed buffer per phase; with a pass-through
plane (the ``--no-aggregation`` ablation) the group is a single field,
staging sends the raw payload at once and the flush is a no-op — one
transport message per (field, peer, phase).

The strict phase order means each receive drains exactly the messages of
its own phase — the in-process rendering of BSP-style bulk communication.

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
from repro.comm.codec import (
    DecodedField,
    EncodedField,
    decode_field_payload,
    encode_global_ids_field,
    encode_memoized_field,
)
from repro.core.memoization import AddressBook, exchange_address_books
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.patterns import SyncPlan, build_sync_plan
from repro.core.sync_structures import FieldSpec
from repro.errors import SyncError
from repro.network.transport import InProcessTransport
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.partition.base import LocalPartition, PartitionedGraph


@dataclass
class SubstrateStats:
    """Per-host synchronization counters.

    Attributes:
        translations: Global<->local ID translations performed (the time
            overhead the memoization optimization removes, §4.1).
        mode_counts: Messages sent per metadata mode.
        sync_calls: Number of field synchronizations executed.
    """

    translations: int = 0
    mode_counts: Dict[MetadataMode, int] = dataclass_field(default_factory=dict)
    sync_calls: int = 0

    def count_mode(self, mode: MetadataMode) -> None:
        """Record one sent message of ``mode``."""
        self.mode_counts[mode] = self.mode_counts.get(mode, 0) + 1

    def absorb(self, other: "SubstrateStats") -> None:
        """Fold another substrate's counters into this total."""
        self.translations += other.translations
        for mode, count in other.mode_counts.items():
            self.mode_counts[mode] = self.mode_counts.get(mode, 0) + count


class GluonSubstrate:
    """Synchronization substrate for one simulated host.

    ``aggregate`` selects the communication plane's mode: ``True``
    buffers each field's sub-messages in per-peer channels and flushes
    one framed buffer per peer per phase; ``False`` is the historical
    pass-through — one transport message per (field, peer, phase).  The
    driving API is the same either way; only the group of fields synced
    per flush differs (see :func:`repro.runtime.round.synchronize`).
    """

    def __init__(
        self,
        partition: LocalPartition,
        transport: InProcessTransport,
        level: OptimizationLevel,
        book: AddressBook,
        metrics: MetricsRegistry = NULL_METRICS,
        aggregate: bool = False,
    ) -> None:
        self.partition = partition
        self.level = level
        self.book = book
        self.plan: SyncPlan = build_sync_plan(book, level.structural)
        #: Memoized ascending peer list — computed once, never re-sorted
        #: per sync call (old books from a disk cache may predate it).
        self.peer_order: Tuple[int, ...] = self.plan.peer_order
        self.stats = SubstrateStats()
        self.metrics = metrics
        self.plane = CommPlane(
            partition.host, transport, aggregate=aggregate, metrics=metrics
        )

    @property
    def host(self) -> int:
        """This substrate's host id."""
        return self.partition.host

    @property
    def num_local_nodes(self) -> int:
        """Number of local proxies."""
        return self.partition.num_nodes

    # -- per-field proxy-set selection ----------------------------------------

    def _select(self, locations: frozenset, by_in, by_out, by_any, by_all):
        """Pick memoized arrays for a field's read or write locations.

        Implements the paper's ``sync<WriteLocation, ReadLocation>``
        specialization: with structural optimization, only proxies whose
        local edges allow the declared access take part.
        """
        if not self.level.structural:
            return by_all
        if locations == frozenset({"destination"}):
            return by_in
        if locations == frozenset({"source"}):
            return by_out
        return by_any

    def _reduce_send_arrays(self, field: FieldSpec):
        # A proxy must be *written* during compute to contribute: writes at
        # the destination need in-edges, writes at the source out-edges.
        return self._select(
            field.writes,
            self.book.mirrors_reduce,
            self.book.mirrors_broadcast,
            self.book.mirrors_any,
            self.book.mirrors_all,
        )

    def _reduce_recv_arrays(self, field: FieldSpec):
        return self._select(
            field.writes,
            self.book.masters_reduce,
            self.book.masters_broadcast,
            self.book.masters_any,
            self.book.masters_all,
        )

    def _broadcast_send_arrays(self, field: FieldSpec):
        # A proxy must be *read* during compute to need the canonical
        # value: reads at the source need out-edges, at the destination
        # in-edges.
        return self._select(
            field.reads,
            self.book.masters_reduce,
            self.book.masters_broadcast,
            self.book.masters_any,
            self.book.masters_all,
        )

    def _broadcast_recv_arrays(self, field: FieldSpec):
        return self._select(
            field.reads,
            self.book.mirrors_reduce,
            self.book.mirrors_broadcast,
            self.book.mirrors_any,
            self.book.mirrors_all,
        )

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
        return self._proxy_mask(self._reduce_send_arrays(field))

    def readable_mirror_mask(self, field: FieldSpec) -> np.ndarray:
        """Local IDs the compute phase may read for ``field``.

        Masters plus the mirrors the broadcast phase refreshes (the
        declared-read proxy set).  A read outside this mask sees a stale
        value — the ``--sanitize`` mode's GL202.
        """
        return self._proxy_mask(self._broadcast_recv_arrays(field))

    # -- codec wrappers (stats + metrics accounting) ---------------------------

    def _encode(
        self,
        field: FieldSpec,
        agreed: np.ndarray,
        updated_mask: np.ndarray,
        broadcast: bool,
    ) -> Optional[EncodedField]:
        """Encode one sub-message via the field codec, counting costs."""
        if self.level.temporal:
            encoded = encode_memoized_field(
                field, agreed, updated_mask, broadcast=broadcast
            )
        else:
            encoded = encode_global_ids_field(
                field,
                agreed,
                updated_mask,
                self.partition.local_to_global,
                broadcast=broadcast,
            )
            if encoded is None:
                return None
        self.stats.count_mode(encoded.mode)
        if encoded.translations:
            self.stats.translations += encoded.translations
        if self.metrics.enabled:
            self.metrics.counter(
                "metadata_mode_total", mode=encoded.mode.name
            ).inc()
            if encoded.translations:
                self.metrics.counter(
                    "translations_total", host=self.host
                ).inc(encoded.translations)
        return encoded

    def _decode(
        self,
        payload: bytes,
        recv_arrays: Dict[int, np.ndarray],
        sender: int,
        field: Optional[FieldSpec] = None,
        broadcast: bool = False,
    ) -> Optional[DecodedField]:
        """Decode one sub-message via the field codec, counting costs."""
        decoded = decode_field_payload(
            payload,
            recv_arrays,
            sender,
            self.partition,
            field=field,
            broadcast=broadcast,
        )
        if decoded is None:
            return None
        if decoded.translations:
            self.stats.translations += decoded.translations
            if self.metrics.enabled:
                self.metrics.counter(
                    "translations_total", host=self.host
                ).inc(decoded.translations)
        return decoded

    # -- the phase API (driven by repro.runtime.round.synchronize) -------------

    def stage_reduce(
        self, field_index: int, field: FieldSpec, dirty: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Stage updated mirror values toward their masters, per peer.

        Buffers one sub-message per peer into the channels (flushed by
        :meth:`flush_phase` at the phase boundary).  Returns the staged
        ``(peer, payload_bytes)`` pairs so the executor can attribute
        per-field byte ranges inside the aggregated buffers.

        A field whose ``sync_phases`` excludes ``"reduce"`` (a
        GL301-dead phase dropped by ``compile_program(optimize=True)``)
        stages nothing: every host resolves the same strategy, so no
        peer expects the sub-message either.
        """
        if "reduce" not in field.sync_phases:
            return []
        self._check_dirty(dirty)
        self.stats.sync_calls += 1
        send_arrays = self._reduce_send_arrays(field)
        staged: List[Tuple[int, int]] = []
        for peer in self.peer_order:
            agreed = send_arrays[peer]
            if len(agreed) == 0:
                continue
            updated_mask = dirty[agreed]
            encoded = self._encode(field, agreed, updated_mask, broadcast=False)
            if encoded is None:
                continue
            self.plane.stage(peer, field_index, encoded.payload)
            staged.append((peer, len(encoded.payload)))
            # Mirrors are reset after their contribution is shipped so the
            # next round accumulates fresh values (§3.2, OEC discussion).
            field.reset(agreed[updated_mask])
        return staged

    def stage_broadcast(
        self, field_index: int, field: FieldSpec, dirty: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Stage updated master values toward their mirrors, per peer.

        A field whose ``sync_phases`` excludes ``"broadcast"`` (GL301)
        stages nothing — the read surface is provably never consumed at
        a mirror under the resolved strategy.
        """
        if "broadcast" not in field.sync_phases:
            return []
        self._check_dirty(dirty)
        send_arrays = self._broadcast_send_arrays(field)
        staged: List[Tuple[int, int]] = []
        for peer in self.peer_order:
            agreed = send_arrays[peer]
            if len(agreed) == 0:
                continue
            updated_mask = dirty[agreed]
            encoded = self._encode(field, agreed, updated_mask, broadcast=True)
            if encoded is None:
                continue
            self.plane.stage(peer, field_index, encoded.payload)
            staged.append((peer, len(encoded.payload)))
        # Delta senders commit the dirty rows only after every peer's
        # payload is encoded: all sharing peers received exactly these
        # rows this phase, so the cache matches every receiver's copy.
        if field.compression == "delta":
            field.commit_broadcast(np.flatnonzero(dirty))
        return staged

    def flush_phase(self, num_fields: int) -> List[Tuple[int, int]]:
        """Flush every channel: one multi-field framed buffer per peer.

        Returns the flushed ``(peer, frame_bytes)`` pairs.
        """
        return self.plane.flush(num_fields, self.peer_order)

    def receive_reduce_all(
        self, fields: Sequence[FieldSpec]
    ) -> List[np.ndarray]:
        """Apply incoming mirror contributions at masters.

        Returns, per field, the boolean mask (over local IDs) of masters
        whose value changed — the input to the broadcast phase.
        """
        recv_arrays = [self._reduce_recv_arrays(f) for f in fields]
        return self._receive_all(fields, recv_arrays, broadcast=False)

    def receive_broadcast_all(
        self, fields: Sequence[FieldSpec]
    ) -> List[np.ndarray]:
        """Install canonical master values at mirrors.

        Returns, per field, the boolean mask of mirrors whose value
        changed (feeds the next round's frontier).
        """
        recv_arrays = [self._broadcast_recv_arrays(f) for f in fields]
        return self._receive_all(fields, recv_arrays, broadcast=True)

    def _receive_all(
        self, fields: Sequence[FieldSpec], recv_arrays: List, broadcast: bool
    ) -> List[np.ndarray]:
        """Decode the inbox's frames and reduce (or set) each field."""
        changed = [
            np.zeros(self.num_local_nodes, dtype=bool) for _ in fields
        ]
        for sender, subs in self.plane.receive_frames():
            self._check_frame_width(sender, subs, len(fields))
            for index, payload in enumerate(subs):
                if payload is None:
                    continue
                field = fields[index]
                decoded = self._decode(
                    payload, recv_arrays[index], sender, field, broadcast
                )
                if decoded is None:
                    continue
                apply = field.set if broadcast else field.reduce
                changed_here = apply(decoded.lids, decoded.values)
                changed[index][decoded.lids[changed_here]] = True
        return changed

    def assert_drained(self) -> None:
        """Check no channel still buffers un-flushed sub-messages."""
        self.plane.assert_drained()

    def _check_frame_width(
        self, sender: int, subs: List, num_fields: int
    ) -> None:
        if len(subs) != num_fields:
            raise SyncError(
                f"host {self.host}: frame from {sender} carries "
                f"{len(subs)} field slots, expected {num_fields}"
            )

    def _check_dirty(self, dirty: np.ndarray) -> None:
        if dirty.dtype != np.bool_ or len(dirty) != self.num_local_nodes:
            raise SyncError(
                f"host {self.host}: dirty mask must be a bool array of "
                f"length {self.num_local_nodes}"
            )


def setup_substrates(
    partitioned: PartitionedGraph,
    transport: InProcessTransport,
    level: OptimizationLevel = OptimizationLevel.OSTI,
    metrics: MetricsRegistry = NULL_METRICS,
    aggregate: bool = False,
) -> List[GluonSubstrate]:
    """Create one substrate per host, running the memoization exchange.

    The exchange happens regardless of optimization level (its arrays also
    drive the structural subsets), but with temporal optimization disabled
    the memoized order is never used on the wire.
    """
    books = exchange_address_books(partitioned, transport)
    return setup_substrates_from_books(
        partitioned, transport, level, PreparedSync(books), metrics, aggregate
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
    aggregate: bool = False,
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
            part,
            transport,
            level,
            prepared.books[part.host],
            metrics=metrics,
            aggregate=aggregate,
        )
        for part in partitioned.partitions
    ]
