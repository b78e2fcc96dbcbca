"""Field codec: one synchronized field's sub-message, as pure functions.

This is the bottom layer of the communication plane — the per-field
encode/decode logic that used to live inside
:class:`~repro.core.substrate.GluonSubstrate`.  Extracting it makes the
codec unit-testable in isolation and lets the channel layer treat each
field's wire bytes as an opaque *sub-message* it can aggregate into one
multi-field buffer per peer (see :mod:`repro.comm.frame`).

The functions are side-effect free: they never touch transports, stats,
or metrics.  Instead each result carries the bookkeeping the substrate
needs (metadata mode, translation counts) so the caller can attribute
costs without the codec knowing about observability.

Wide (matrix-valued) fields reuse every metadata mode unchanged — counts
and selections are per *row* — and add two per-field payload
compressions (see :data:`~repro.core.sync_structures.COMPRESSION_MODES`):

* ``fp16`` downcasts float rows to half precision on encode; the decode
  side hands the half-precision values to ``FieldSpec.reduce``/``set``,
  which widen back to the field dtype.
* ``delta`` ships, per row, a packed column bit-mask plus only the
  changed columns.  Broadcast rows are masked against the sender's
  last-committed broadcast (``FieldSpec.delta_state``); rows never
  committed ship whole, so correctness never depends on receivers
  sharing the sender's initial values.  Reduce rows are masked against
  the reduction identity — stateless and lossless for any operator,
  and it collapses the near-identity rows sparse aggregations produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.metadata import MetadataMode, select_mode
from repro.core.serialization import (
    decode_message,
    empty_message,
    encode_message,
)
from repro.core.sync_structures import FieldSpec
from repro.errors import SyncError
from repro.partition.base import LocalPartition


@dataclass(frozen=True)
class EncodedField:
    """One field's encoded sub-message bound for one peer.

    Attributes:
        mode: The metadata encoding chosen for the payload.
        payload: The wire bytes (an :func:`encode_message` buffer).
        translations: Local->global translations the encode performed
            (non-zero only on the GLOBAL_IDS path).
    """

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
    """Apply the field's payload compression to extracted rows.

    Returns ``(wire_values, delta_mask)`` ready for
    :func:`~repro.core.serialization.encode_message`.
    """
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
                "use compression 'delta' or 'none'"
            )
        return halved, None
    if field.compression == "delta":
        if broadcast:
            cached, sent = field.delta_state(lids)
            mask = values != cached
            mask[~sent] = True  # never-committed rows ship whole
        else:
            identity = field.reduce_op.identity(field.dtype)
            mask = values != identity
        return values, mask
    return values, None


def encode_memoized_field(
    field: FieldSpec,
    agreed: np.ndarray,
    updated_mask: np.ndarray,
    broadcast: bool = False,
) -> EncodedField:
    """Encode one memoized-order sub-message (OTI/OSTI path).

    Args:
        field: the synchronized field on the sending host.
        agreed: the memoized proxy array agreed with the peer.
        updated_mask: boolean mask over ``agreed`` of updated proxies.
        broadcast: extract from the broadcast array instead of the
            reduce array.
    """
    extract = field.extract_broadcast if broadcast else field.extract
    num_updates = int(np.count_nonzero(updated_mask))
    mode = select_mode(len(agreed), num_updates, field.value_size)
    width = field.width
    if mode is MetadataMode.EMPTY:
        return EncodedField(mode, empty_message(field.wire_dtype))
    if mode is MetadataMode.FULL:
        lids = agreed
        values, delta_mask = _wire_rows(field, lids, extract(lids), broadcast)
        payload = encode_message(
            mode, values, width=width, delta_mask=delta_mask
        )
        return EncodedField(mode, payload)
    positions = updated_mask.nonzero()[0]
    lids = agreed[positions]
    values, delta_mask = _wire_rows(field, lids, extract(lids), broadcast)
    payload = encode_message(
        mode,
        values,
        num_agreed=len(agreed),
        selection=positions,
        width=width,
        delta_mask=delta_mask,
    )
    return EncodedField(mode, payload)


def encode_global_ids_field(
    field: FieldSpec,
    agreed: np.ndarray,
    updated_mask: np.ndarray,
    local_to_global: np.ndarray,
    broadcast: bool = False,
) -> Optional[EncodedField]:
    """Encode one (global-ID, value) sub-message (UNOPT/OSI path).

    Returns ``None`` when nothing was updated: without the memoized
    agreement the receiver does not expect a message, so none is sent.
    """
    sub = agreed[updated_mask]
    if len(sub) == 0:
        return None
    extract = field.extract_broadcast if broadcast else field.extract
    gids = local_to_global[sub]
    values, delta_mask = _wire_rows(field, sub, extract(sub), broadcast)
    payload = encode_message(
        MetadataMode.GLOBAL_IDS,
        values,
        selection=gids,
        width=field.width,
        delta_mask=delta_mask,
    )
    return EncodedField(MetadataMode.GLOBAL_IDS, payload, translations=len(sub))


def _reconstruct_delta(
    field: FieldSpec,
    lids: np.ndarray,
    message,
    broadcast: bool,
) -> np.ndarray:
    """Rebuild full rows from a delta-compressed value section.

    Broadcast messages fill unshipped columns from the receiver's own
    copy of the broadcast array (equal to the sender's committed cache
    by the delta contract); reduce messages fill them with the
    reduction identity, making the reduce lossless for any operator.
    """
    mask = message.delta_mask
    if broadcast:
        base = np.asarray(field.broadcast_values[lids])
    else:
        identity = field.reduce_op.identity(field.dtype)
        base = np.full(mask.shape, identity, dtype=field.dtype)
    base[mask] = message.values
    return base


def decode_field_payload(
    payload: bytes,
    recv_arrays: Dict[int, np.ndarray],
    sender: int,
    partition: LocalPartition,
    field: Optional[FieldSpec] = None,
    broadcast: bool = False,
) -> Optional[DecodedField]:
    """Decode one sub-message into (local IDs, values).

    Returns ``None`` for an EMPTY message (nothing to apply).  The
    GLOBAL_IDS path translates in bulk through
    :meth:`~repro.partition.base.LocalPartition.to_local_array` and
    reports the translation count for the caller's accounting.

    Args:
        payload: the wire bytes.
        recv_arrays: memoized receive arrays keyed by sender host.
        sender: sending host ID.
        partition: the receiving host's partition (GLOBAL_IDS translation).
        field: the receiving side's field — required to reconstruct
            delta-compressed rows.
        broadcast: whether this payload belongs to the broadcast phase
            (selects the delta reconstruction baseline).
    """
    host = partition.host
    message = decode_message(payload)
    if message.mode is MetadataMode.EMPTY:
        return None
    if field is not None and message.width != (field.width if field.width > 1 else 0):
        raise SyncError(
            f"host {host}: message from {sender} carries rows of width "
            f"{message.width or 1} for field {field.name!r} of width {field.width}"
        )
    translations = 0
    if message.mode is MetadataMode.GLOBAL_IDS:
        try:
            lids = partition.to_local_array(message.selection)
        except KeyError as exc:
            raise SyncError(
                f"host {host}: message from {sender} names global node "
                f"{exc.args[0]} this host holds no proxy for"
            ) from None
        translations = len(lids)
    else:
        agreed = recv_arrays.get(sender)
        if agreed is None:
            raise SyncError(
                f"host {host}: unexpected memoized message from host {sender}"
            )
        if message.mode is MetadataMode.FULL:
            if message.num_rows != len(agreed):
                raise SyncError(
                    f"host {host}: FULL message from {sender} has "
                    f"{message.num_rows} values for {len(agreed)} proxies"
                )
            lids = agreed
        else:
            # BITVEC / INDICES: selection holds (unsigned) positions in the
            # agreed array; NumPy's own bounds check rejects a hostile one.
            try:
                lids = agreed[message.selection]
            except IndexError:
                raise SyncError(
                    f"host {host}: position {message.selection.max()} out of "
                    f"range for agreed array of {len(agreed)} from host {sender}"
                ) from None
        # One cast to the native index dtype here instead of one inside
        # every gather and scatter the apply does with these IDs.
        lids = lids.astype(np.intp)
    values = message.values
    if message.delta_mask is not None:
        if field is None:
            raise SyncError(
                f"host {host}: delta payload from {sender} without a field"
            )
        values = _reconstruct_delta(field, lids, message, broadcast)
    return DecodedField(lids, values, translations)
