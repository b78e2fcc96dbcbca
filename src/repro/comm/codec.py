"""Field codec: a synchronized field's sub-messages, as pure functions.

The bottom layer of the communication plane.  :func:`encode_sends`
encodes one field for every peer of a phase in one pass;
:func:`decode_update` reads one sub-message in place from the frame
holding it.  The functions never touch transports, stats or metrics:
each result carries the bookkeeping the substrate accounts (modes,
updated IDs, translation counts).  The per-message functions
(:func:`encode_memoized_field`, :func:`encode_global_ids_field`,
:func:`decode_field_payload`) are their one-peer, one-message cases.

Wide (matrix-valued) fields reuse every metadata mode unchanged — counts
and selections are per *row* — and ship under one of two per-field
payload compressions (see
:data:`~repro.core.sync_structures.COMPRESSION_MODES`):

* ``delta`` (lossless) masks every row's changed columns; the encoder
  then ships each message as whole rows or as a packed column bit-mask
  per row plus only the masked columns, whichever is fewer bytes.
  Broadcast rows are masked against the sender's last-committed
  broadcast (``FieldSpec.delta_state``); rows never committed ship
  whole, so correctness never depends on receivers sharing the sender's
  initial values.  Reduce rows are masked against the reduction
  identity — stateless and lossless for any operator, and it collapses
  the near-identity rows sparse aggregations produce.
* ``fp16`` downcasts float rows to half precision on encode and ships
  them whole; the decode side hands the half-precision values to
  ``FieldSpec.reduce``/``set``, which widen back to the field dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.metadata import MetadataMode, select_modes
from repro.core.patterns import SendLayout, send_layout
from repro.core.serialization import empty_message, encode_messages, read_message
from repro.core.sync_structures import FieldSpec
from repro.errors import SyncError
from repro.partition.base import LocalPartition

_EMPTY, _FULL, _INDICES, _GLOBAL_IDS = (
    int(MetadataMode.EMPTY), int(MetadataMode.FULL), int(MetadataMode.INDICES),
    int(MetadataMode.GLOBAL_IDS),
)


@dataclass(frozen=True)
class EncodedField:
    """One field's sub-message for one peer: mode, wire bytes, and the
    local->global translations it cost (GLOBAL_IDS only)."""

    mode: MetadataMode
    payload: bytes
    translations: int = 0


@dataclass(frozen=True)
class DecodedField:
    """One field's decoded sub-message: local IDs, values, and costs."""

    lids: np.ndarray
    values: np.ndarray
    translations: int = 0


def _wire_rows(
    field: FieldSpec, lids: np.ndarray, values: np.ndarray, broadcast: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Apply the field's payload compression to extracted rows: returns
    ``(wire_values, delta_mask)``, the mask ``None`` for a 1-D or fp16
    field."""
    if field.compression == "fp16":
        with np.errstate(over="ignore"):
            halved = values.astype(np.float16)
        overflowed = ~np.isfinite(halved)
        if overflowed.any():
            overflowed &= np.isfinite(values)
        if overflowed.any():
            raise SyncError(
                f"field {field.name!r}: fp16 compression overflows — "
                f"magnitude {np.abs(values[overflowed]).max():g} exceeds "
                f"the float16 range (max {np.finfo(np.float16).max:g}); "
                "use compression 'delta'"
            )
        return halved, None
    if not field.ships_delta:
        return values, None
    if broadcast:
        cached, sent = field.delta_state(lids)
        mask = values != cached
        mask[~sent] = True  # never-committed rows ship whole
    else:
        mask = values != field.reduce_op.identity(field.dtype)
    return values, mask


def encode_sends(
    field: FieldSpec,
    layout: SendLayout,
    bits: np.ndarray,
    broadcast: bool = False,
    local_to_global: Optional[np.ndarray] = None,
) -> Tuple[List[int], List[bytes]]:
    """Encode ``field``'s sub-message for every peer of one phase, in one pass.

    ``bits`` is the update mask over ``layout.concat``.  One ``reduceat``
    counts every peer's updates, :func:`select_modes` picks every peer's
    mode at once; every shipped row is extracted by one gather and
    compressed once, and :func:`encode_messages` writes the bytes.  With
    ``local_to_global`` the messages carry (global-ID, value) pairs (the
    UNOPT/OSI path) and a peer with nothing updated gets mode EMPTY,
    meaning no message: without the memoized agreement it expects none.

    Returns ``(modes, payloads)``: per peer its mode tag and wire bytes.
    """
    counts = np.add.reduceat(bits, layout.starts, dtype=np.intp).tolist()
    bounds = layout.bounds
    if local_to_global is None:
        modes = select_modes(layout.lengths, counts, field.value_size)
    else:
        modes = [_GLOBAL_IDS if n else _EMPTY for n in counts]
    take = bits
    if _FULL in modes:  # a FULL peer ships every agreed row
        take = bits.copy()
        for i, mode in enumerate(modes):
            if mode == _FULL:
                take[bounds[i] : bounds[i + 1]] = True
                counts[i] = bounds[i + 1] - bounds[i]
    positions = take.nonzero()[0]
    lids = layout.concat[positions]
    extract = field.extract_broadcast if broadcast else field.extract
    values, delta_mask = _wire_rows(field, lids, extract(lids), broadcast)
    if local_to_global is not None:
        ids = local_to_global[lids]
    else:  # INDICES positions, gathered only when some peer ships them
        ids = layout.positions[positions] if _INDICES in modes else None
    return modes, encode_messages(
        modes, values, [0, *accumulate(counts)], bits=bits, agreed=bounds,
        ids=ids, width=field.width, delta_mask=delta_mask,
    )


def _encode_one(field, agreed, updated_mask, broadcast, local_to_global=None):
    """:func:`encode_sends` for one peer, with the substrate's quiet
    short-cut; returns ``(mode, payload)``."""
    if not np.count_nonzero(updated_mask):
        return _EMPTY, empty_message(field.wire_dtype)
    layout = send_layout([(0, agreed)])
    (mode,), (payload,) = encode_sends(
        field, layout, updated_mask, broadcast, local_to_global
    )
    return mode, payload


def encode_memoized_field(
    field: FieldSpec,
    agreed: np.ndarray,
    updated_mask: np.ndarray,
    broadcast: bool = False,
) -> EncodedField:
    """:func:`encode_sends` for one peer whose agreed array is ``agreed``
    (OTI/OSTI path); ``updated_mask`` is over ``agreed``."""
    mode, payload = _encode_one(field, agreed, updated_mask, broadcast)
    return EncodedField(MetadataMode(mode), payload)


def encode_global_ids_field(
    field: FieldSpec,
    agreed: np.ndarray,
    updated_mask: np.ndarray,
    local_to_global: np.ndarray,
    broadcast: bool = False,
) -> Optional[EncodedField]:
    """:func:`encode_sends` for one peer on the UNOPT/OSI path; ``None``
    when nothing was updated (the peer expects no message)."""
    mode, payload = _encode_one(field, agreed, updated_mask, broadcast, local_to_global)
    if mode == _EMPTY:
        return None
    return EncodedField(
        MetadataMode.GLOBAL_IDS, payload, int(np.count_nonzero(updated_mask))
    )


def _reconstruct_delta(
    field: FieldSpec,
    lids: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
    broadcast: bool,
) -> np.ndarray:
    """Rebuild full rows from a delta-compressed value section: unshipped
    columns come from the receiver's broadcast copy (equal to the
    sender's committed cache by the delta contract) or, on reduce, the
    reduction identity (lossless for any operator)."""
    if broadcast:
        base = np.asarray(field.broadcast_values[lids])
    else:
        identity = field.reduce_op.identity(field.dtype)
        base = np.full(mask.shape, identity, dtype=field.dtype)
    base[mask] = values
    return base


def decode_update(
    payload, start: int, end: int, recv_arrays: Dict[int, np.ndarray], sender: int,
    partition: LocalPartition, field: Optional[FieldSpec] = None, broadcast: bool = False,
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """Decode the sub-message at ``payload[start:end]`` into ``(local IDs,
    values, translations)``, read in place by offset.

    Returns ``None`` for an EMPTY message (nothing to apply).
    ``recv_arrays`` are the memoized receive arrays by sender; the
    GLOBAL_IDS path translates through ``partition.to_local_array``.
    ``field`` (needed for delta rows) and ``broadcast`` pick the delta
    baseline.  A message naming one proxy twice is rejected: the encoder
    writes INDICES positions strictly increasing and GLOBAL_IDS distinct,
    and a repeated ID would otherwise be applied last-write-wins.
    """
    host = partition.host
    mode, values, selection, width, delta_mask = read_message(payload, start, end)
    if mode == _EMPTY:
        return None
    if field is not None and width != (field.width if field.values.ndim > 1 else 0):
        raise SyncError(
            f"host {host}: message from {sender} carries rows of width "
            f"{width or 1} for field {field.name!r} of width {field.width}"
        )
    translations = 0
    if mode == _GLOBAL_IDS:
        try:
            lids = partition.to_local_array(selection)
        except KeyError as exc:
            raise SyncError(
                f"host {host}: message from {sender} names global node "
                f"{exc.args[0]} this host holds no proxy for"
            ) from None
        if len(np.unique(lids)) != len(lids):
            raise SyncError(
                f"host {host}: GLOBAL_IDS message from {sender} names a "
                "global node twice"
            )
        translations = len(lids)
    else:
        agreed = recv_arrays.get(sender)
        if agreed is None:
            raise SyncError(
                f"host {host}: unexpected memoized message from host {sender}"
            )
        if mode == _FULL:
            rows = len(values) if delta_mask is None else len(delta_mask)
            if rows != len(agreed):
                raise SyncError(
                    f"host {host}: FULL message from {sender} has "
                    f"{rows} values for {len(agreed)} proxies"
                )
            lids = agreed
        else:
            if mode == _INDICES and np.count_nonzero(
                selection[1:] <= selection[:-1]
            ):
                raise SyncError(
                    f"host {host}: INDICES message from {sender} names a "
                    "position twice or out of order"
                )
            # BITVEC / INDICES: selection holds (unsigned) positions in the
            # agreed array; NumPy's own bounds check rejects a hostile one.
            try:
                lids = agreed[selection]
            except IndexError:
                raise SyncError(
                    f"host {host}: position {selection.max()} out of "
                    f"range for agreed array of {len(agreed)} from host {sender}"
                ) from None
        # One cast to the native index dtype here instead of one inside
        # every gather and scatter the apply does with these IDs.
        lids = lids.astype(np.intp)
    if delta_mask is not None:
        if field is None:
            raise SyncError(
                f"host {host}: delta payload from {sender} without a field"
            )
        values = _reconstruct_delta(field, lids, values, delta_mask, broadcast)
    return lids, values, translations


def decode_field_payload(
    payload: bytes,
    recv_arrays: Dict[int, np.ndarray],
    sender: int,
    partition: LocalPartition,
    field: Optional[FieldSpec] = None,
    broadcast: bool = False,
) -> Optional[DecodedField]:
    """Decode one sub-message into (local IDs, values):
    :func:`decode_update` over the whole of ``payload``."""
    decoded = decode_update(
        payload, 0, len(payload), recv_arrays, sender, partition, field, broadcast
    )
    return None if decoded is None else DecodedField(*decoded)
