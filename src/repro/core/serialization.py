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
  identity (reduce); see :mod:`repro.comm.codec`.  The encoder sets it
  on a message only when that form is strictly fewer bytes than the
  plain rows.

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
from typing import List, Optional, Sequence, Tuple

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

    ``values`` are (rows, width) for a wide message, the masked columns
    flat for a delta one (``delta_mask`` is then the (rows, width) bool
    mask of shipped columns).  ``selection`` holds positions into the
    memoized array (BITVEC/INDICES), raw global IDs (GLOBAL_IDS) or
    ``None`` (FULL/EMPTY); ``width`` is 0 for a scalar message.
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
_FULL_TAG = int(MetadataMode.FULL)
_BITVEC_TAG = int(MetadataMode.BITVEC)
_ID_TAGS = (int(MetadataMode.INDICES), int(MetadataMode.GLOBAL_IDS))


def empty_message(dtype: np.dtype) -> bytes:
    """The EMPTY message for ``dtype`` values: the bare header, a constant."""
    return bytes((_EMPTY_TAG, dtype_code(dtype)))


def is_empty_message(payload, start: int = 0, end: Optional[int] = None) -> bool:
    """Whether ``payload[start:end]`` is exactly an :func:`empty_message`.

    Told from the two bytes alone (length 2, tag EMPTY with no flag bits,
    a known dtype code) so a quiet peer costs no parse; anything else,
    however close, is the full decoder's — and its errors.
    """
    return (
        (len(payload) if end is None else end) - start == 2
        and payload[start] == _EMPTY_TAG
        and payload[start + 1] in _DTYPE_BY_CODE
    )


def _mask_bytes_per_row(width: int) -> int:
    """Packed column-mask bytes per delta row."""
    return (width + 7) // 8


def encode_messages(
    modes: Sequence[int],
    values: np.ndarray,
    rows: Sequence[int],
    *,
    bits: Optional[np.ndarray] = None,
    agreed: Sequence[int] = (),
    ids: Optional[np.ndarray] = None,
    width: int = 0,
    delta_mask: Optional[np.ndarray] = None,
) -> List[bytes]:
    """Encode one message per entry of ``modes``, all in one pass.

    Message ``i`` ships the rows ``values[rows[i]:rows[i + 1]]`` (scalar:
    1-D; wide: (rows, ``width``)).  With a ``delta_mask`` it ships only
    their columns set in the mask, as DELTA, when that form (a packed
    mask per row plus the shipped cells) is strictly fewer bytes than the
    rows themselves; a tie ships the rows.  INDICES and GLOBAL_IDS name
    them by ``ids`` over the same rows (positions or global IDs, any
    integer dtype); BITVEC packs its agreed array's update bits,
    ``bits[agreed[i]:agreed[i + 1]]``.  EMPTY is the constant
    :func:`empty_message`.  The checks and the cell counts run once per
    pass; a message then costs a slice of its rows, or the packing of its
    mask and a gather of its cells when it ships as DELTA.
    """
    if not values.flags.c_contiguous:
        values = np.ascontiguousarray(values)
    code = _DTYPE_CODES.get(values.dtype)
    if code is None:
        code = dtype_code(values.dtype)  # raises, naming the dtype
    empty = bytes((_EMPTY_TAG, code))
    wide = width > 1
    if wide:
        if width >= 1 << 16:
            raise SerializationError(f"row width {width} out of u16 range")
        if values.ndim != 2 or values.shape[1] != width:
            raise SerializationError(
                f"wide message: values shape {values.shape} does not match "
                f"width {width}"
            )
    elif delta_mask is not None:
        raise SerializationError("delta compression requires a wide message")
    as_delta = [False] * len(modes)
    if delta_mask is not None:
        if delta_mask.shape != values.shape:
            raise SerializationError(
                f"delta mask shape {delta_mask.shape} does not match values "
                f"shape {values.shape}"
            )
        # Per message: rows * mask bytes + cells * itemsize < rows * row bytes.
        bounds = np.asarray(rows, dtype=np.intp)
        cells = np.zeros(len(values) + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(delta_mask, axis=1), out=cells[1:])
        saved = width * values.itemsize - _mask_bytes_per_row(width)
        as_delta = (
            (cells[bounds[1:]] - cells[bounds[:-1]]) * values.itemsize
            < np.diff(bounds) * saved
        ).tolist()
    if ids is not None and ids.dtype != _U32:
        ids = ids.astype(_U32)
    messages = []
    for i, mode in enumerate(modes):
        if mode == _EMPTY_TAG:
            messages.append(empty)
            continue
        start, end = rows[i], rows[i + 1]
        count = end - start
        if mode == _BITVEC_TAG:
            if bits is None:
                raise SerializationError("BITVEC mode requires selection positions")
            count = agreed[i + 1] - agreed[i]
            metadata = np.packbits(bits[agreed[i] : agreed[i + 1]], bitorder="little")
        elif mode in _ID_TAGS:
            if ids is None:
                raise SerializationError(
                    f"{_MODE_BY_TAG[mode].name} mode requires a selection"
                )
            metadata = ids[start:end]
        elif mode == _FULL_TAG:
            metadata = b""
        else:
            raise SerializationError(f"unknown mode {mode!r}")
        seg = values[start:end]
        if not wide:
            parts = (_SCALAR_HEAD.pack(mode, code, count), metadata, seg)
        elif as_delta[i]:
            segmask = delta_mask[start:end]
            head = _WIDE_HEAD.pack(mode | _FLAG_WIDE | _FLAG_DELTA, code, width, count)
            parts = (head, metadata, np.packbits(segmask, axis=1), seg[segmask])
        else:
            parts = (_WIDE_HEAD.pack(mode | _FLAG_WIDE, code, width, count), metadata, seg)
        messages.append(b"".join(parts))
    return messages


def encode_message(
    mode: MetadataMode,
    values: np.ndarray,
    *,
    num_agreed: int = 0,
    selection: Optional[np.ndarray] = None,
    width: int = 0,
    delta_mask: Optional[np.ndarray] = None,
) -> bytes:
    """:func:`encode_messages` for one message.

    ``selection`` holds its positions (BITVEC/INDICES) or global IDs
    (GLOBAL_IDS); a BITVEC bit-vector spans ``num_agreed`` bits.
    """
    values = np.ascontiguousarray(values)
    ids = bits = None
    if selection is not None and mode is not MetadataMode.FULL:
        if len(values) != len(selection):
            raise SerializationError(
                f"{mode.name}: {len(selection)} ids for {len(values)} values"
            )
        ids = np.ascontiguousarray(selection)
        if mode is MetadataMode.BITVEC:
            bits = np.zeros(num_agreed, dtype=bool)
            bits[selection] = True
    (message,) = encode_messages(
        (int(mode),), values, (0, len(values)), bits=bits, agreed=(0, num_agreed),
        ids=ids, width=width, delta_mask=delta_mask,
    )
    return message


def max_message_bytes(
    num_agreed: int, value_size: int, width: int = 0, *, global_ids: bool = False
) -> int:
    """The largest :func:`encode_message` output for one agreed array.

    Closed form over every update set of ``num_agreed`` proxies of
    ``value_size``-byte rows: the head plus, per proxy, its row and its
    u32 global ID (``global_ids``).  With memoization FULL is the bound
    (the smallest mode never exceeds it, and a DELTA message is smaller
    than its rows), met exactly by FULL rows.  The process runtime's
    rings are sized from this.
    """
    head = _WIDE_HEAD.size if width > 1 else _SCALAR_HEAD.size
    per_row = value_size
    if global_ids:
        per_row += _U32.itemsize
    return head + num_agreed * per_row


def _decode_delta_block(
    payload, offset: int, end: int, rows: int, width: int, dtype: np.dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode the delta value section ``payload[offset:end]`` of ``rows``
    shipped rows: a flat view of the masked values plus the unpacked
    column mask."""
    available = end - offset
    mask_bytes = rows * _mask_bytes_per_row(width)
    if available < mask_bytes:
        raise SerializationError("delta value section truncated in masks")
    packed = np.frombuffer(payload, _U8, mask_bytes, offset)
    packed = packed.reshape(rows, _mask_bytes_per_row(width))
    if width % 8:
        # The encoder leaves a row's spare low bits clear; one set would
        # otherwise be dropped silently.
        spare = packed[:, -1] & ((1 << (-width % 8)) - 1)
        dirty = np.flatnonzero(spare)
        if len(dirty):
            raise SerializationError(
                f"delta mask of row {dirty[0]} sets padding bits "
                f"{int(spare[dirty[0]]):#04x} beyond width {width}"
            )
    delta_mask = np.unpackbits(packed, axis=1)[:, :width].astype(bool)
    shipped = int(np.count_nonzero(delta_mask))
    expected = shipped * dtype.itemsize
    if available - mask_bytes != expected:
        raise SerializationError(
            f"delta values: expected {expected} bytes, "
            f"got {available - mask_bytes}"
        )
    return np.frombuffer(payload, dtype, shipped, offset + mask_bytes), delta_mask


def read_message(payload, start: int = 0, end: Optional[int] = None) -> Tuple:
    """Parse the message at ``payload[start:end]`` by offset into ``(mode,
    values, selection, width, delta_mask)``, the fields of
    :class:`SyncMessage`.

    ``payload`` is any byte buffer (a whole frame, given the message's
    bounds).  It is never sliced, and the arrays returned are **read-only
    views into it**: consume them before the buffer is reused.
    """
    if end is None:
        end = len(payload)
    elif end > len(payload):
        raise SerializationError(f"message overruns its {len(payload)}-byte buffer")
    if not isinstance(payload, bytes):  # views into it must be read-only
        payload = memoryview(payload).toreadonly()
    size = end - start
    if size < 2:
        raise SerializationError(f"message too short: {size} bytes")
    tag, code = payload[start], payload[start + 1]
    wide = tag & _FLAG_WIDE
    if tag & _FLAG_DELTA and not wide:
        raise SerializationError(f"delta flag without wide flag in tag {tag:#x}")
    mode = _MODE_BY_TAG.get(tag & _MODE_MASK)
    if mode is None:
        raise SerializationError(f"unknown mode tag {tag & _MODE_MASK}")
    dtype = _DTYPE_BY_CODE.get(code)
    if dtype is None:
        raise SerializationError(f"unknown dtype code {code}")
    offset = start + 2
    width = 0
    if wide:
        if end < offset + _WIDTH.size:
            raise SerializationError("wide message truncated before width")
        (width,) = _WIDTH.unpack_from(payload, offset)
        if width < 2:
            raise SerializationError(f"wide message with width {width}")
        offset += _WIDTH.size
    if mode == _EMPTY_TAG:
        if end != offset:
            raise SerializationError("EMPTY message with a non-empty body")
        shape = (0, width) if wide else (0,)
        return mode, np.empty(shape, dtype=dtype), None, width, None
    if end < offset + _COUNT.size:
        raise SerializationError("message truncated before count field")
    (count,) = _COUNT.unpack_from(payload, offset)
    offset += _COUNT.size
    selection = None
    rows = count
    if mode == _BITVEC_TAG:
        bitvec_bytes = BitVector.wire_size(count)
        if end < offset + bitvec_bytes:
            raise SerializationError("BITVEC body truncated in bit-vector")
        packed = np.frombuffer(payload, _U8, bitvec_bytes, offset)
        selection = np.flatnonzero(
            np.unpackbits(packed, count=count, bitorder="little")
        )
        rows = len(selection)
        offset += bitvec_bytes
    elif mode in _ID_TAGS:
        if end < offset + count * 4:
            raise SerializationError(f"{mode.name} body truncated in ids")
        selection = np.frombuffer(payload, _U32, count, offset)
        offset += count * 4
    if tag & _FLAG_DELTA:
        values, delta_mask = _decode_delta_block(payload, offset, end, rows, width, dtype)
        return mode, values, selection, width, delta_mask
    items = rows * width if width else rows
    if end - offset != items * dtype.itemsize:
        raise SerializationError(
            f"{'wide ' if width else ''}value section: expected "
            f"{items * dtype.itemsize} bytes, got {end - offset}"
        )
    values = np.frombuffer(payload, dtype, items, offset)
    return mode, values.reshape(rows, width) if width else values, selection, width, None


def decode_message(payload) -> SyncMessage:
    """Decode one synchronization message produced by :func:`encode_message`.

    :func:`read_message` over the whole of ``payload``, as a
    :class:`SyncMessage`.
    """
    return SyncMessage(*read_message(payload))


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
    """Wrap ``payload`` in an integrity frame; ``seq`` is the
    transport-unique sequence number that deduplicates re-deliveries."""
    if seq < 0 or seq >= 1 << 64:
        raise SerializationError(f"sequence number {seq} out of u64 range")
    payload = bytes(payload)
    return _FRAME_HEADER.pack(seq, frame_crc(seq, payload)) + payload


def unframe_payload(frame: bytes) -> Tuple[int, bytes]:
    """Unwrap an integrity frame into ``(seq, payload)``; raises
    :class:`ChecksumError` if it is truncated or corrupted in flight."""
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
