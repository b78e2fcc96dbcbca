"""The per-message sync path as it stood before the one-pass encode, kept
verbatim as an oracle for ``test_one_pass_oracle.py``.

Every (field, peer, phase) sub-message went through its own call chain:
``select_mode`` -> ``encode_memoized_field`` / ``encode_global_ids_field``
-> ``encode_message`` on the way out, and ``decode_frame`` ->
``decode_field_payload`` -> ``decode_message`` on the way in.  Only the
two substrate methods are adapted: ``old_stage`` returns the staged
``(peer, payload)`` pairs, mode counts and translations instead of
writing into a plane, and ``old_receive`` takes the inbox as an
argument.  The substrate's plan entry supplies the routes.

A lossless wide message is built both ways by ``encode_message`` — plain
rows, and delta under its column mask — and the shorter one is sent, a
tie going to the rows (:func:`shorter_message`): the product's
closed-form size rule is checked against the two real encodings, not
copied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.frame import _COUNT as _FRAME_COUNT
from repro.comm.frame import MAX_FIELDS, _header, frame_overhead
from repro.core.bitvector import BitVector
from repro.core.metadata import INDEX_BYTES, MetadataMode
from repro.core.serialization import (
    _COUNT,
    _DTYPE_BY_CODE,
    _FLAG_DELTA,
    _FLAG_WIDE,
    _MODE_BY_TAG,
    _MODE_MASK,
    _SCALAR_HEAD,
    _U8,
    _U32,
    _WIDE_HEAD,
    _WIDTH,
    _mask_bytes_per_row,
    dtype_code,
    empty_message,
    is_empty_message,
)
from repro.core.sync_structures import FieldSpec
from repro.errors import SerializationError, SyncError
from repro.partition.base import LocalPartition


def select_mode(
    num_agreed: int, num_updates: int, value_size: int
) -> MetadataMode:
    """Pick the smallest memoized encoding for this round's updates.

    Implements the paper's rules: no updates -> EMPTY; dense -> FULL (no
    metadata at all); sparse -> BITVEC; very sparse -> INDICES.  The choice
    is made by exact size comparison, with ties broken toward the mode with
    the cheaper decode (FULL < BITVEC < INDICES).
    """
    if num_updates == 0:
        return MetadataMode.EMPTY
    if num_updates > num_agreed:
        raise ValueError(
            f"num_updates {num_updates} exceeds agreed array {num_agreed}"
        )
    # The three bodies past their common header + count (encoded_size).
    full = num_agreed * value_size
    bitvec = BitVector.wire_size(num_agreed) + num_updates * value_size
    indices = num_updates * (INDEX_BYTES + value_size)
    if full <= bitvec and full <= indices:
        return MetadataMode.FULL
    if bitvec <= indices:
        return MetadataMode.BITVEC
    return MetadataMode.INDICES


@dataclass(frozen=True)
class SyncMessage:
    """A decoded synchronization message.

    Attributes:
        mode: The metadata encoding used.
        values: The transported values (empty for EMPTY mode).  Wide
            messages carry an (rows, width) array; delta messages carry
            the masked column values flat (see ``delta_mask``).
        selection: Positions into the memoized array (BITVEC/INDICES), the
            raw global IDs (GLOBAL_IDS), or ``None`` (FULL/EMPTY).
        width: Row width of a wide message; 0 for scalar messages.
        delta_mask: (rows, width) bool array of shipped columns for a
            delta-compressed message, else ``None``.
    """

    mode: MetadataMode
    values: np.ndarray
    selection: Optional[np.ndarray]
    width: int = 0
    delta_mask: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        """Rows (nodes) the message carries values for."""
        if self.delta_mask is not None:
            return int(self.delta_mask.shape[0])
        return len(self.values)


def encode_message(
    mode: MetadataMode,
    values: np.ndarray,
    *,
    num_agreed: int = 0,
    selection: Optional[np.ndarray] = None,
    width: int = 0,
    delta_mask: Optional[np.ndarray] = None,
) -> bytes:
    """Encode one synchronization message.

    Header, metadata and values are gathered as buffers and copied once,
    by a single ``join``, into the message.

    Args:
        mode: encoding to use.
        values: values to ship (ignored for EMPTY).  Scalar messages pass
            a 1-D array; wide messages pass (rows, width).
        num_agreed: memoized array length (BITVEC only; sized bit-vector).
        selection: positions (BITVEC/INDICES) or global IDs (GLOBAL_IDS),
            any integer dtype.
        width: row width of a wide message (0 or 1 means scalar).
        delta_mask: (rows, width) bool mask of columns to ship; the
            unmasked columns are omitted from the wire (wide only).
    """
    values = np.ascontiguousarray(values)
    wide = width > 1
    tag = int(mode)
    if wide and mode is not MetadataMode.EMPTY:
        if width >= 1 << 16:
            raise SerializationError(f"row width {width} out of u16 range")
        if values.ndim != 2 or values.shape[1] != width:
            raise SerializationError(
                f"wide message: values shape {values.shape} does not match "
                f"width {width}"
            )
        tag |= _FLAG_WIDE
        if delta_mask is not None:
            tag |= _FLAG_DELTA
    elif delta_mask is not None:
        raise SerializationError("delta compression requires a wide message")
    if mode is MetadataMode.EMPTY:
        return empty_message(values.dtype)
    code = dtype_code(values.dtype)
    count = len(values)
    metadata = b""
    if mode is MetadataMode.BITVEC:
        if selection is None:
            raise SerializationError("BITVEC mode requires selection positions")
        if len(values) != len(selection):
            raise SerializationError(
                f"BITVEC: {len(selection)} positions for {len(values)} values"
            )
        mask = np.zeros(num_agreed, dtype=bool)
        mask[selection] = True
        count = num_agreed
        metadata = np.packbits(mask, bitorder="little")
    elif mode in (MetadataMode.INDICES, MetadataMode.GLOBAL_IDS):
        if selection is None:
            raise SerializationError(f"{mode.name} mode requires a selection")
        if len(values) != len(selection):
            raise SerializationError(
                f"{mode.name}: {len(selection)} ids for {len(values)} values"
            )
        metadata = np.ascontiguousarray(selection, dtype=_U32)
    elif mode is not MetadataMode.FULL:
        raise SerializationError(f"unknown mode {mode!r}")
    if wide:
        head = _WIDE_HEAD.pack(tag, code, width, count)
    else:
        head = _SCALAR_HEAD.pack(tag, code, count)
    if delta_mask is None:
        return b"".join((head, metadata, values))
    if delta_mask.shape != values.shape:
        raise SerializationError(
            f"delta mask shape {delta_mask.shape} does not match values "
            f"shape {values.shape}"
        )
    packed = np.packbits(delta_mask, axis=1)
    return b"".join((head, metadata, packed, values[delta_mask]))


def shorter_message(
    mode: MetadataMode, values: np.ndarray, *, delta_mask=None, **kwargs
) -> bytes:
    """:func:`encode_message` as rows and, given a ``delta_mask``, as a
    delta: whichever is shorter, the rows on a tie."""
    rows = encode_message(mode, values, **kwargs)
    if delta_mask is None:
        return rows
    delta = encode_message(mode, values, delta_mask=delta_mask, **kwargs)
    return delta if len(delta) < len(rows) else rows


def _view(payload, dtype: np.dtype, count: int, offset: int) -> np.ndarray:
    """``count`` items of ``dtype`` at ``payload[offset:]``: read-only, no copy."""
    try:
        array = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    except ValueError as exc:  # a short buffer the length checks let through
        raise SerializationError(f"message overruns its buffer: {exc}") from None
    array.flags.writeable = False
    return array


def _decode_value_block(
    payload, offset: int, rows: int, width: int, dtype: np.dtype, delta: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Decode the value section ``payload[offset:]`` for ``rows`` shipped rows.

    Returns ``(values, delta_mask)``.  Scalar messages (``width == 0``)
    return a flat view; wide messages an (rows, width) view; delta
    messages a flat view of the masked values plus the unpacked column
    mask.
    """
    available = len(payload) - offset
    if not delta:
        items = rows * width if width else rows
        expected = items * dtype.itemsize
        if available != expected:
            raise SerializationError(
                f"{'wide ' if width else ''}value section: expected "
                f"{expected} bytes, got {available}"
            )
        values = _view(payload, dtype, items, offset)
        return (values.reshape(rows, width) if width else values), None
    mask_bytes = rows * _mask_bytes_per_row(width)
    if available < mask_bytes:
        raise SerializationError("delta value section truncated in masks")
    packed = _view(payload, _U8, mask_bytes, offset)
    packed = packed.reshape(rows, _mask_bytes_per_row(width))
    delta_mask = np.unpackbits(packed, axis=1)[:, :width].astype(bool)
    shipped = int(np.count_nonzero(delta_mask))
    expected = shipped * dtype.itemsize
    if available - mask_bytes != expected:
        raise SerializationError(
            f"delta values: expected {expected} bytes, "
            f"got {available - mask_bytes}"
        )
    return _view(payload, dtype, shipped, offset + mask_bytes), delta_mask


def decode_message(payload) -> SyncMessage:
    """Decode one synchronization message produced by :func:`encode_message`.

    ``payload`` is any byte buffer (``bytes``, ``bytearray``, a
    ``memoryview`` slice of a frame).  It is parsed by offset, never
    sliced, and the returned arrays are **read-only views into it**:
    consume them before the buffer is reused.  One parser serves scalar,
    WIDE and DELTA messages.
    """
    size = len(payload)
    if size < 2:
        raise SerializationError(f"message too short: {size} bytes")
    tag, code = payload[0], payload[1]
    wide = bool(tag & _FLAG_WIDE)
    delta = bool(tag & _FLAG_DELTA)
    if delta and not wide:
        raise SerializationError(f"delta flag without wide flag in tag {tag:#x}")
    mode = _MODE_BY_TAG.get(tag & _MODE_MASK)
    if mode is None:
        raise SerializationError(f"unknown mode tag {tag & _MODE_MASK}")
    dtype = _DTYPE_BY_CODE.get(code)
    if dtype is None:
        raise SerializationError(f"unknown dtype code {code}")
    offset = 2
    width = 0
    if wide:
        if size < offset + _WIDTH.size:
            raise SerializationError("wide message truncated before width")
        (width,) = _WIDTH.unpack_from(payload, offset)
        if width < 2:
            raise SerializationError(f"wide message with width {width}")
        offset += _WIDTH.size
    if mode is MetadataMode.EMPTY:
        if size != offset:
            raise SerializationError("EMPTY message with a non-empty body")
        shape = (0, width) if wide else (0,)
        return SyncMessage(mode, np.empty(shape, dtype=dtype), None, width=width)
    if size < offset + _COUNT.size:
        raise SerializationError("message truncated before count field")
    (count,) = _COUNT.unpack_from(payload, offset)
    offset += _COUNT.size
    selection = None
    rows = count
    if mode is MetadataMode.BITVEC:
        bitvec_bytes = BitVector.wire_size(count)
        if size < offset + bitvec_bytes:
            raise SerializationError("BITVEC body truncated in bit-vector")
        packed = _view(payload, _U8, bitvec_bytes, offset)
        selection = np.flatnonzero(
            np.unpackbits(packed, count=count, bitorder="little")
        )
        rows = len(selection)
        offset += bitvec_bytes
    elif mode in (MetadataMode.INDICES, MetadataMode.GLOBAL_IDS):
        if size < offset + count * 4:
            raise SerializationError(f"{mode.name} body truncated in ids")
        selection = _view(payload, _U32, count, offset)
        offset += count * 4
    values, delta_mask = _decode_value_block(
        payload, offset, rows, width, dtype, delta
    )
    return SyncMessage(mode, values, selection, width=width, delta_mask=delta_mask)


def old_encode_frame(submessages: Sequence[Optional[bytes]]) -> bytes:
    """Pack per-field sub-messages (``None`` = empty slot) into one frame."""
    count = len(submessages)
    if count == 0:
        raise SerializationError("frame must carry at least one field slot")
    if count > MAX_FIELDS:
        raise SerializationError(
            f"frame cannot carry {count} fields (max {MAX_FIELDS})"
        )
    bodies = [sub for sub in submessages if sub is not None]
    if not all(map(len, bodies)):
        raise SerializationError(
            "a present sub-message cannot be empty (use None)"
        )
    lengths = [0 if sub is None else len(sub) for sub in submessages]
    return b"".join((_header(count).pack(count, *lengths), *bodies))


def old_decode_frame(buffer) -> List[Optional[memoryview]]:
    """Unpack one frame into per-field sub-messages (``None`` = no message).

    The sub-messages are ``memoryview`` slices of ``buffer`` — nothing is
    copied; they stay valid for as long as the buffer is unchanged.

    Raises:
        SerializationError: the frame is truncated, its length prefixes
            overrun the buffer, or trailing bytes follow the last
            sub-message — any shape a corrupted aggregation could take.
    """
    view = memoryview(buffer)
    size = len(view)
    if size < _FRAME_COUNT.size:
        raise SerializationError(
            f"frame too short for field count: {size} bytes"
        )
    (count,) = _FRAME_COUNT.unpack_from(view, 0)
    if count == 0:
        raise SerializationError("frame with zero field slots")
    header = frame_overhead(count)
    if size < header:
        raise SerializationError(
            f"frame truncated in length prefixes: {size} bytes for "
            f"{count} fields"
        )
    lengths = _header(count).unpack_from(view)[1:]
    expected = header + sum(lengths)
    if size != expected:
        raise SerializationError(
            f"frame body mismatch: expected {expected} bytes, got {size}"
        )
    subs: List[Optional[memoryview]] = []
    offset = header
    for length in lengths:
        if length == 0:
            subs.append(None)
            continue
        subs.append(view[offset : offset + length])
        offset += length
    return subs


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
                "use compression 'delta'"
            )
        return halved, None
    if field.values.ndim == 2:
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
        payload = shorter_message(
            mode, values, width=width, delta_mask=delta_mask
        )
        return EncodedField(mode, payload)
    positions = updated_mask.nonzero()[0]
    lids = agreed[positions]
    values, delta_mask = _wire_rows(field, lids, extract(lids), broadcast)
    payload = shorter_message(
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
    payload = shorter_message(
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


def old_stage(sub, field_index, field, dirty, phase):
    """``GluonSubstrate._stage`` as it was, against ``sub``'s bound plan.

    Returns ``(staged, mode_counts, translations)``: the ``(peer,
    payload)`` pairs in staging order, and the accounting it did.
    """
    modes: Counter = Counter()
    translations = 0
    entry = sub.plan.of(field)
    sends = entry.sends[phase]
    broadcast = phase == "broadcast"
    staged: List[Tuple[int, bytes]] = []
    if not sends:
        return staged, modes, translations
    temporal = sub.level.temporal
    empty = entry.empty
    if not dirty.any():
        if not temporal:
            return staged, modes, translations
        for peer, _ in sends:
            staged.append((peer, empty))
        modes[MetadataMode.EMPTY] += len(sends)
        return staged, modes, translations
    for peer, agreed in sends:
        updated_mask = dirty.take(agreed)
        if not np.count_nonzero(updated_mask):
            if temporal:
                staged.append((peer, empty))
                modes[MetadataMode.EMPTY] += 1
            continue
        if temporal:
            encoded = encode_memoized_field(
                field, agreed, updated_mask, broadcast=broadcast
            )
        else:
            encoded = encode_global_ids_field(
                field, agreed, updated_mask, sub.partition.local_to_global,
                broadcast=broadcast,
            )
        modes[encoded.mode] += 1
        translations += encoded.translations
        staged.append((peer, encoded.payload))
        if not broadcast:
            field.reset(agreed[updated_mask])
    return staged, modes, translations


def old_receive(sub, fields, phase, inbox, aggregate):
    """``GluonSubstrate._receive_all`` as it was, over ``inbox``'s
    ``(sender, buffer)`` pairs.  Returns ``(changed, translations)``."""
    broadcast = phase == "broadcast"
    translations = 0
    changed: List[Optional[np.ndarray]] = [None] * len(fields)
    for sender, buffer in inbox:
        subs = old_decode_frame(buffer) if aggregate else [buffer]
        if len(subs) != len(fields):
            raise SyncError(f"frame from {sender} carries {len(subs)} field slots")
        for index, payload in enumerate(subs):
            if payload is None or is_empty_message(payload):
                continue
            field = fields[index]
            decoded = decode_field_payload(
                payload, sub.plan.of(field).recv[phase], sender,
                sub.partition, field=field, broadcast=broadcast,
            )
            if decoded is None:
                continue
            translations += decoded.translations
            apply = field.set if broadcast else field.reduce
            changed_here = apply(decoded.lids, decoded.values)
            if not np.count_nonzero(changed_here):
                continue
            if changed[index] is None:
                changed[index] = np.zeros(sub.num_local_nodes, dtype=bool)
            changed[index][decoded.lids[changed_here]] = True
    return changed, translations
