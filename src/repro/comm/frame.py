"""Multi-field channel frame: many sub-messages, one wire buffer.

The aggregated wire format flushed by a :class:`~repro.comm.channel.Channel`
at each phase boundary.  Layout (little-endian)::

    ====== ====================================================
    offset contents
    ====== ====================================================
    0      u16 field count ``n``
    2      ``n`` u32 sub-message lengths, one per field slot
    2+4n   the sub-messages, concatenated in field order
    ====== ====================================================

Every synchronized field owns one slot, in the (host-agreed) field
order of ``VertexProgram.make_fields``.  A length of zero means the
sender had no sub-message for that field this phase (the UNOPT/OSI
"nothing updated" case); a present sub-message is always at least the
2-byte :func:`~repro.core.serialization.encode_message` header, so zero
is unambiguous.

The frame is deliberately dumb — no checksums, no field names.  Field
identity is positional (the executor guarantees every host builds the
same field list), and integrity is the resilience subsystem's job: the
fault-injecting transport wraps each flushed frame in one CRC frame, so
aggregation also amortizes the integrity framing to one CRC per peer
per phase instead of one per field.
"""

from __future__ import annotations

import functools
import struct
from typing import List, Optional, Sequence

from repro.errors import SerializationError

_COUNT = struct.Struct("<H")
_LENGTH = struct.Struct("<I")

#: Most fields one frame can carry (u16 count).
MAX_FIELDS = 0xFFFF

#: Fixed frame bytes for ``n`` field slots (count + length prefixes).
def frame_overhead(num_fields: int) -> int:
    """Header bytes a frame with ``num_fields`` slots costs."""
    return _COUNT.size + num_fields * _LENGTH.size


@functools.lru_cache(maxsize=64)
def _header(num_fields: int) -> struct.Struct:
    """The compiled header layout of a ``num_fields``-slot frame."""
    return struct.Struct(f"<H{num_fields}I")


def encode_frame(submessages: Sequence[Optional[bytes]]) -> bytes:
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


def decode_frame(buffer) -> List[Optional[memoryview]]:
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
    if size < _COUNT.size:
        raise SerializationError(
            f"frame too short for field count: {size} bytes"
        )
    (count,) = _COUNT.unpack_from(view, 0)
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
