"""Wire format for synchronization messages.

Every message is real ``bytes``: benchmark communication volumes are exact
``len()`` measurements of these buffers.  Layout (little-endian):

====== =========================================================
offset contents
====== =========================================================
0      mode tag (one byte; :class:`~repro.core.metadata.MetadataMode`)
1      value dtype code (one byte)
2..    mode-specific body
====== =========================================================

Bodies:

* ``EMPTY`` — nothing.
* ``FULL`` — u32 count, then ``count`` values.
* ``BITVEC`` — u32 bit count, packed bit-vector, then one value per set bit.
* ``INDICES`` — u32 count, ``count`` u32 positions, then ``count`` values.
* ``GLOBAL_IDS`` — u32 count, ``count`` u32 global IDs, then values.

Wide (matrix-valued) payloads reuse the same bodies with two flag bits in
the mode byte (the low 6 bits remain the mode tag):

* ``0x80`` (*WIDE*) — a u16 row width ``d`` follows the two header bytes
  and every "value" in the body is a row of ``d`` dtype items.  Counts
  still count rows, so mode selection and metadata sizes are unchanged.
* ``0x40`` (*DELTA*, requires WIDE) — the value section is compressed:
  per shipped row a packed column bit-mask (``ceil(d / 8)`` bytes), then
  only the masked column values, row-major.  The receiver reconstructs
  unmasked columns from its own copy (broadcast) or the reduction
  identity (reduce); see :mod:`repro.comm.codec`.

Scalar (1-D) messages never set either flag, so their wire bytes are
unchanged from earlier revisions.

The resilience subsystem additionally wraps each message in an integrity
*frame* (see :func:`frame_payload`): a u64 sequence number plus a CRC-32
of sequence number and body.  The frame lets the fault-injecting
transport detect payload corruption (checksum mismatch) and discard
duplicated deliveries (repeated sequence numbers).  The plain
:class:`~repro.network.transport.InProcessTransport` never frames — the
byte counts of the paper's figures stay exact.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.bitvector import BitVector
from repro.core.metadata import MetadataMode
from repro.errors import ChecksumError, SerializationError

_DTYPE_CODES = {
    np.dtype(np.uint32): 0,
    np.dtype(np.int32): 1,
    np.dtype(np.float32): 2,
    np.dtype(np.float64): 3,
    np.dtype(np.uint64): 4,
    np.dtype(np.int64): 5,
    np.dtype(np.uint8): 6,
    np.dtype(np.float16): 7,
}
_DTYPE_BY_CODE = {code: dtype for dtype, code in _DTYPE_CODES.items()}
_MODE_BY_TAG = {int(mode): mode for mode in MetadataMode}
_U8 = np.dtype(np.uint8)
_U32 = np.dtype(np.uint32)

#: Mode-byte layout: low 6 bits = metadata mode tag, high 2 bits = flags.
_MODE_MASK = 0x3F
_FLAG_WIDE = 0x80
_FLAG_DELTA = 0x40


def dtype_code(dtype: np.dtype) -> int:
    """Wire code for a supported value dtype."""
    try:
        return _DTYPE_CODES[np.dtype(dtype)]
    except KeyError:
        supported = ", ".join(str(d) for d in _DTYPE_CODES)
        raise SerializationError(
            f"unsupported sync dtype {dtype} (supported: {supported})"
        ) from None


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


#: ``tag, dtype code, count`` and ``tag, dtype code, row width, count``:
#: everything before a non-EMPTY body, packed in one call.
_SCALAR_HEAD = struct.Struct("<BBI")
_WIDE_HEAD = struct.Struct("<BBHI")
_WIDTH = struct.Struct("<H")
_COUNT = struct.Struct("<I")

_EMPTY_TAG = int(MetadataMode.EMPTY)


def empty_message(dtype: np.dtype) -> bytes:
    """The EMPTY message for ``dtype`` values: the bare header, a constant."""
    return bytes((_EMPTY_TAG, dtype_code(dtype)))


def is_empty_message(payload) -> bool:
    """Whether ``payload`` is exactly an :func:`empty_message`.

    Told from the two bytes alone (length 2, tag EMPTY with no flag bits,
    a known dtype code) so a quiet peer costs no :class:`SyncMessage`;
    anything else, however close, is the full decoder's — and its errors.
    """
    return (
        len(payload) == 2
        and payload[0] == _EMPTY_TAG
        and payload[1] in _DTYPE_BY_CODE
    )


def _mask_bytes_per_row(width: int) -> int:
    """Packed column-mask bytes per delta row."""
    return (width + 7) // 8


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


def max_message_bytes(
    num_agreed: int,
    value_size: int,
    width: int = 0,
    *,
    delta: bool = False,
    global_ids: bool = False,
) -> int:
    """The largest :func:`encode_message` output for one agreed array.

    Closed form, over every update set of ``num_agreed`` proxies whose
    wire rows are ``value_size`` bytes: the head plus, per proxy, its row,
    its packed column mask (``delta``) and its u32 global ID
    (``global_ids``, the path without memoization).  With memoization the
    mode is the smallest of FULL / BITVEC / INDICES
    (:func:`~repro.core.metadata.select_mode`), so FULL — every row, no
    metadata — is the bound, and a FULL message without ``delta`` meets
    it exactly.  A transport that sizes its buffers once per layout (the
    process runtime's rings) sizes them from this.
    """
    head = _WIDE_HEAD.size if width > 1 else _SCALAR_HEAD.size
    per_row = value_size
    if delta:
        per_row += _mask_bytes_per_row(width)
    if global_ids:
        per_row += _U32.itemsize
    return head + num_agreed * per_row


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


# ---------------------------------------------------------------------------
# Integrity framing (resilience subsystem)
# ---------------------------------------------------------------------------

#: Frame layout: u64 sequence number, u32 CRC-32 of (sequence || payload).
_FRAME_HEADER = struct.Struct("<QI")
_SEQ = struct.Struct("<Q")

#: Bytes the frame adds on top of the payload.
FRAME_OVERHEAD = _FRAME_HEADER.size


def frame_crc(seq: int, payload) -> int:
    """The frame checksum: CRC-32 over the u64 sequence number, then the body."""
    return zlib.crc32(payload, zlib.crc32(_SEQ.pack(seq)))


def frame_payload(seq: int, payload: bytes) -> bytes:
    """Wrap ``payload`` in an integrity frame.

    Args:
        seq: transport-unique sequence number (deduplicates re-deliveries).
        payload: the message body (any :func:`encode_message` output).
    """
    if seq < 0 or seq >= 1 << 64:
        raise SerializationError(f"sequence number {seq} out of u64 range")
    payload = bytes(payload)
    return _FRAME_HEADER.pack(seq, frame_crc(seq, payload)) + payload


def unframe_payload(frame: bytes) -> Tuple[int, bytes]:
    """Unwrap an integrity frame; returns ``(seq, payload)``.

    Raises:
        ChecksumError: the frame is truncated or its CRC does not match —
            the payload was corrupted in flight.
    """
    frame = bytes(frame)
    if len(frame) < FRAME_OVERHEAD:
        raise ChecksumError(
            f"frame too short: {len(frame)} bytes < {FRAME_OVERHEAD}"
        )
    seq, crc = _FRAME_HEADER.unpack_from(frame, 0)
    payload = frame[FRAME_OVERHEAD:]
    expected = frame_crc(seq, payload)
    if crc != expected:
        raise ChecksumError(
            f"checksum mismatch on frame seq={seq}: "
            f"expected {expected:#010x}, got {crc:#010x}"
        )
    return seq, payload
