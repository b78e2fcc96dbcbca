"""The Gluon synchronization API: reduction operations and field specs.

This is the Python rendering of the paper's reduce/broadcast structures
(Figure 5).  An application declares, per node label it wants synchronized,
a :class:`FieldSpec` naming

* the per-host numpy array holding the label (indexed by local ID),
* the :class:`ReductionOp` that combines mirror contributions at the master
  (``reduce``), with its identity value and reset semantics (``reset``),
* and optionally a *derived broadcast*: a hook run at masters after the
  reduce phase plus a second array whose values are broadcast (used by
  pull-style pagerank, where partial sums reduce but contributions
  broadcast).

Bulk extract/set (the GPU variants mentioned in §3.3) fall out naturally:
all accessors are vectorized numpy operations over index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import SyncError

#: Per-field payload compression modes understood by the comm codec.
#:
#: * ``delta`` (the default) — lossless.  Each wide message ships as
#:   whole rows or as (column mask, changed columns), whichever is fewer
#:   bytes: broadcast rows against the sender's last-committed broadcast
#:   of that row, reduce rows against the reduction identity.  A 1-D
#:   field's values ship verbatim (its metadata modes are its delta).
#: * ``fp16`` — float rows are quantized to IEEE half precision on the
#:   wire and widened back on receipt, always as whole rows.  Lossy; see
#:   DESIGN §14 for the documented tolerance.
COMPRESSION_MODES = ("delta", "fp16")


@dataclass(frozen=True)
class ReductionOp:
    """A reduction with identity and reset semantics.

    Attributes:
        name: Short name ("min", "add", ...).
        combine: Vectorized combine of (current, incoming) -> reduced.
        identity_for: Maps a numpy dtype to the identity value.
        idempotent: Whether re-applying the same contribution is harmless.
            Idempotent reductions (min/max/or) let mirrors *keep* their
            value at reset (§2.3: sssp keeps labels); non-idempotent ones
            (add) must reset mirrors to the identity (push pagerank).
        commutative: Whether ``combine(a, b) == combine(b, a)``.  The
            substrate applies peer contributions in ascending host order,
            so a non-commutative reduction (assign) gives answers that
            depend on the partitioning — declare it so the contract
            checker (``repro lint``) can warn at the use site.
    """

    name: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity_for: Callable[[np.dtype], object]
    idempotent: bool
    commutative: bool = True

    def identity(self, dtype: np.dtype) -> object:
        """The identity value of this reduction for ``dtype``."""
        return self.identity_for(np.dtype(dtype))

    def reset_values(self, values: np.ndarray, indices: np.ndarray) -> None:
        """Reset ``values[indices]`` after a reduce phase (mirror side).

        Keeps values for idempotent reductions, writes the identity
        otherwise — exactly the paper's per-operator reset rule.
        """
        if not self.idempotent and len(indices):
            values[indices] = self.identity(values.dtype)


def _max_for(dtype: np.dtype) -> object:
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).max
    return np.inf


def _min_for(dtype: np.dtype) -> object:
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).min
    return -np.inf


MIN = ReductionOp(
    name="min",
    combine=np.minimum,
    identity_for=_max_for,
    idempotent=True,
)

MAX = ReductionOp(
    name="max",
    combine=np.maximum,
    identity_for=_min_for,
    idempotent=True,
)

ADD = ReductionOp(
    name="add",
    combine=lambda a, b: a + b,
    identity_for=lambda dtype: dtype.type(0),
    idempotent=False,
)

BOR = ReductionOp(
    name="bor",
    combine=np.bitwise_or,
    identity_for=lambda dtype: dtype.type(0),
    idempotent=True,
)

ASSIGN = ReductionOp(
    name="assign",
    combine=lambda a, b: b,
    identity_for=lambda dtype: dtype.type(0),
    idempotent=True,
    commutative=False,
)

REDUCTIONS: Dict[str, ReductionOp] = {
    op.name: op for op in (MIN, MAX, ADD, BOR, ASSIGN)
}


#: Valid edge-endpoint locations for field reads/writes (Figure 4's
#: ``WriteAtDestination`` / ``ReadAtSource`` template parameters).
LOCATIONS = frozenset({"source", "destination"})


@dataclass
class FieldSpec:
    """One synchronized node label on one host.

    Attributes:
        name: Field name (must match across hosts).
        values: numpy array of the label, indexed by local node ID.
        reduce_op: Reduction combining mirror values into the master.
        broadcast_values: Array broadcast to mirrors; defaults to
            ``values`` (same-field sync, the common case).
        on_master_after_reduce: Optional hook run at each host between the
            reduce and broadcast phases.  Receives the masters whose
            reduced value changed and returns the masters to broadcast
            (or ``None`` to broadcast what a hook-less field would: the
            changed masters and those the step wrote), both as sorted,
            unique ``np.intp`` local IDs (:mod:`repro.core.index_sets`).
            Pull-style pagerank uses this to turn reduced partial
            sums into the contribution values it broadcasts.  Under a
            program without a frontier (``uses_frontier`` False) nothing
            else reads the reduce's changes, so none are computed: the
            hook gets ``None`` and must return its set.
        writes: Edge endpoints where the compute phase may *write* this
            field — the paper's ``WriteAtDestination``/``WriteAtSource``
            sync parameters.  With structural optimization, only mirrors
            carrying the matching edge direction take part in the reduce.
        reads: Edge endpoints where the compute phase *reads* this field —
            ``ReadAtSource``/``ReadAtDestination``.  Only mirrors that can
            be read receive the broadcast.  BC's backward pass writes at
            the source and reads at the destination; the default is the
            push/pull source->destination flow of §3.2.
        compression: Payload compression mode for the wire bytes —
            one of :data:`COMPRESSION_MODES`.  ``fp16`` requires a 2-D
            (n, d) float field.  Under ``delta`` a wide field's mirror
            copies of the broadcast array must only be written by the
            sync itself (the same contract GL201 checks), because the
            receiver reconstructs unsent columns from its own copy.
    """

    name: str
    values: np.ndarray
    reduce_op: ReductionOp
    broadcast_values: Optional[np.ndarray] = None
    on_master_after_reduce: Optional[
        Callable[[np.ndarray], Optional[np.ndarray]]
    ] = None
    writes: frozenset = frozenset({"destination"})
    reads: frozenset = frozenset({"source"})
    compression: str = "delta"
    #: Which synchronization phases this wire ships.  The dataflow
    #: analyzer's GL301 proof (``compile_program(optimize=True)``) drops
    #: a phase that is dead under the resolved partitioning strategy —
    #: e.g. the reduce under IEC, where no mirror can ever be written.
    #: An empty set is legal: the field stays local on every host.
    sync_phases: frozenset = frozenset({"reduce", "broadcast"})
    #: Sender-side delta state: last-committed broadcast rows and the mask
    #: of rows ever committed.  Lazily allocated on first commit; rebuilt
    #: fields (repartition, process workers) start with an empty cache.
    _delta_cache: Optional[np.ndarray] = dataclass_field(
        default=None, repr=False, compare=False
    )
    _delta_sent: Optional[np.ndarray] = dataclass_field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.values, np.ndarray) or self.values.ndim not in (
            1,
            2,
        ):
            raise SyncError(
                f"field {self.name!r}: values must be a 1-D or 2-D array"
            )
        if self.values.ndim == 2 and self.values.shape[1] < 2:
            raise SyncError(
                f"field {self.name!r}: a (n, {self.values.shape[1]}) field "
                "has no row structure — declare it 1-D instead"
            )
        if self.broadcast_values is None:
            self.broadcast_values = self.values
        elif (
            not isinstance(self.broadcast_values, np.ndarray)
            or self.broadcast_values.shape != self.values.shape
        ):
            raise SyncError(
                f"field {self.name!r}: broadcast_values must match values' shape"
            )
        elif self.broadcast_values.dtype != self.values.dtype:
            raise SyncError(
                f"field {self.name!r}: broadcast_values dtype "
                f"{self.broadcast_values.dtype} does not match values dtype "
                f"{self.values.dtype}"
            )
        if self.compression not in COMPRESSION_MODES:
            raise SyncError(
                f"field {self.name!r}: unknown compression "
                f"{self.compression!r} (expected one of {COMPRESSION_MODES})"
            )
        if self.compression == "fp16" and (
            self.values.ndim != 2 or not np.issubdtype(self.values.dtype, np.floating)
        ):
            raise SyncError(
                f"field {self.name!r}: fp16 compression requires a 2-D (n, d) "
                f"float field, not {self.values.ndim}-D {self.values.dtype}"
            )
        self.writes = frozenset(self.writes)
        self.reads = frozenset(self.reads)
        for name, locations in (("writes", self.writes), ("reads", self.reads)):
            if not locations or not locations <= LOCATIONS:
                raise SyncError(
                    f"field {self.name!r}: {name} must be a non-empty "
                    f"subset of {sorted(LOCATIONS)}"
                )
        self.sync_phases = frozenset(self.sync_phases)
        if not self.sync_phases <= {"reduce", "broadcast"}:
            raise SyncError(
                f"field {self.name!r}: sync_phases must be a subset of "
                "{'broadcast', 'reduce'}"
            )

    @property
    def dtype(self) -> np.dtype:
        """dtype of the synchronized values."""
        return self.values.dtype

    @property
    def width(self) -> int:
        """Columns per node: 1 for scalar fields, d for (n, d) fields."""
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    @property
    def wire_dtype(self) -> np.dtype:
        """dtype values carry on the wire (half precision under fp16)."""
        if self.compression == "fp16":
            return np.dtype(np.float16)
        return self.values.dtype

    @property
    def value_size(self) -> int:
        """Bytes one node's value occupies on the wire (whole row if 2-D)."""
        return int(self.wire_dtype.itemsize) * self.width

    @property
    def ships_delta(self) -> bool:
        """Whether a message may ship as a delta (every lossless wide
        field): its sender then keeps the last-committed broadcast rows."""
        return self.values.ndim == 2 and self.compression != "fp16"

    # -- delta-compression sender state ---------------------------------------

    def delta_state(self, local_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Last-committed broadcast rows and committed mask for ``local_ids``.

        Rows never committed come back zero-filled with ``sent`` False —
        the encoder ships them whole, so correctness never depends on the
        placeholder contents.
        """
        if self._delta_cache is None:
            rows = np.zeros(
                (len(local_ids),) + self.values.shape[1:], dtype=self.dtype
            )
            return rows, np.zeros(len(local_ids), dtype=bool)
        return self._delta_cache[local_ids], self._delta_sent[local_ids]

    def commit_broadcast(self, local_ids: np.ndarray) -> None:
        """Record ``broadcast_values[local_ids]`` as shipped to all peers.

        Called by the substrate once per broadcast phase with exactly the
        rows every sharing peer received (the dirty rows); peers served a
        FULL payload also get non-dirty rows, but those are *not* committed
        here — other peers' BITVEC/INDICES payloads skipped them, and the
        cache must stay consistent with what every receiver holds.
        """
        if not self.ships_delta or len(local_ids) == 0:
            return
        if self._delta_cache is None:
            self._delta_cache = np.zeros_like(self.broadcast_values)
            self._delta_sent = np.zeros(len(self.broadcast_values), dtype=bool)
        self._delta_cache[local_ids] = self.broadcast_values[local_ids]
        self._delta_sent[local_ids] = True

    # -- the paper's five accessor functions, in bulk form --------------------

    def extract(self, local_ids: np.ndarray) -> np.ndarray:
        """Bulk ``extract`` for the reduce phase (mirror side)."""
        return self.values[local_ids]

    def extract_broadcast(self, local_ids: np.ndarray) -> np.ndarray:
        """Bulk ``extract`` for the broadcast phase (master side)."""
        return self.broadcast_values[local_ids]

    def reduce(
        self, local_ids: np.ndarray, incoming: np.ndarray, changes: bool = True
    ) -> Optional[np.ndarray]:
        """Bulk ``reduce`` at masters; returns the changed mask, or
        ``None`` when ``changes`` is off (one gather, combine and scatter
        for a program that reads no change mask).

        Duplicate local IDs within one call are not supported (they would
        apply last-write-wins): the decoder rejects a message that names a
        proxy twice, and each peer's contributions are applied in a
        separate call.
        """
        if len(local_ids) != len(incoming):
            raise SyncError(
                f"field {self.name!r}: reduce got {len(local_ids)} ids for "
                f"{len(incoming)} values"
            )
        current = self.values[local_ids]
        reduced = self.reduce_op.combine(
            current, incoming.astype(self.dtype, copy=False)
        )
        self.values[local_ids] = reduced
        if not changes:
            return None
        changed = reduced != current
        if changed.ndim == 2:  # wide field: a row changed if any column did
            changed = changed.any(axis=1)
        return changed

    def reset(self, local_ids: np.ndarray) -> None:
        """Bulk ``reset`` at mirrors after the reduce phase."""
        self.reduce_op.reset_values(self.values, local_ids)

    def set(
        self, local_ids: np.ndarray, incoming: np.ndarray, changes: bool = True
    ) -> Optional[np.ndarray]:
        """Bulk ``set`` at mirrors during broadcast; returns the changed
        mask, or ``None`` when ``changes`` is off (one scatter)."""
        if len(local_ids) != len(incoming):
            raise SyncError(
                f"field {self.name!r}: set got {len(local_ids)} ids for "
                f"{len(incoming)} values"
            )
        # With a derived broadcast the reduce-side array is not touched at
        # mirrors; only the broadcast array is cached there.  Same-field
        # sync writes the shared array either way.
        if not changes:
            self.broadcast_values[local_ids] = incoming
            return None
        incoming = incoming.astype(self.broadcast_values.dtype, copy=False)
        current = self.broadcast_values[local_ids]
        changed = current != incoming
        if changed.ndim == 2:  # wide field: a row changed if any column did
            changed = changed.any(axis=1)
        self.broadcast_values[local_ids] = incoming
        return changed
