"""Multi-field channel frame: many sub-messages, one wire buffer.

The aggregated wire format a :class:`~repro.comm.channel.Channel` flushes
at each phase boundary.  Layout (little-endian)::

    ====== ====================================================
    offset contents
    ====== ====================================================
    0      u16 field count ``n``
    2      ``n`` u32 sub-message lengths, one per field slot
    2+4n   the sub-messages, concatenated in field order
    ====== ====================================================

Every synchronized field owns one slot, in the host-agreed field order.
A length of zero means no sub-message for that field this phase (the
UNOPT/OSI "nothing updated" case); a present one is at least the 2-byte
message header, so zero is unambiguous.  The frame carries no checksums
and no field names: field identity is positional, and the fault-injecting
transport wraps each frame in one CRC frame (one per peer per phase).
"""

from __future__ import annotations

import functools
import struct
from typing import List, Optional, Sequence, Tuple

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


def frame_slots(buffer) -> List[Optional[Tuple[int, int]]]:
    """Parse one frame's header: per field slot, its ``(start, end)``
    byte offsets in ``buffer`` (``None`` = no message), read in place.

    Raises :class:`SerializationError` for a truncated frame, length
    prefixes that overrun it, or trailing bytes — any shape a corrupted
    aggregation could take.
    """
    size = len(buffer)
    if size < _COUNT.size:
        raise SerializationError(
            f"frame too short for field count: {size} bytes"
        )
    (count,) = _COUNT.unpack_from(buffer, 0)
    if count == 0:
        raise SerializationError("frame with zero field slots")
    header = frame_overhead(count)
    if size < header:
        raise SerializationError(
            f"frame truncated in length prefixes: {size} bytes for "
            f"{count} fields"
        )
    lengths = _header(count).unpack_from(buffer)[1:]
    expected = header + sum(lengths)
    if size != expected:
        raise SerializationError(
            f"frame body mismatch: expected {expected} bytes, got {size}"
        )
    slots: List[Optional[Tuple[int, int]]] = []
    offset = header
    for length in lengths:
        if length == 0:
            slots.append(None)
            continue
        slots.append((offset, offset + length))
        offset += length
    return slots


def decode_frame(buffer) -> List[Optional[memoryview]]:
    """Unpack one frame into per-field sub-messages (``None`` = no
    message): ``memoryview`` slices of ``buffer`` at its :func:`frame_slots`."""
    view = memoryview(buffer)
    return [
        None if slot is None else view[slot[0] : slot[1]]
        for slot in frame_slots(view)
    ]
