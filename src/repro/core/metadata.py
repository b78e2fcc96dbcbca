"""Adaptive metadata encoding for updated values (§4.2).

With memoization (§4.1), the sender and receiver agree up-front on an
ordered array of proxies per (host pair, direction).  Each round, only a
subset of those proxies has updates; the sender picks the cheapest of four
encodings for "which proxies do these values belong to":

* ``FULL`` — no metadata: values for *every* agreed proxy (dense updates).
* ``BITVEC`` — a packed bit-vector over the agreed array plus values for
  the set bits (sparse updates).
* ``INDICES`` — explicit u32 positions plus values (very sparse updates).
* ``EMPTY`` — nothing changed; a bare header is sent.

Without memoization, updates travel as explicit (global-ID, value) pairs —
the ``GLOBAL_IDS`` mode used by UNOPT/OSI and by the Gemini baseline.

The paper selects the mode by comparing the encoded sizes ("the number of
bits set in the bit-vector is used to determine which mode yields the
smallest message"); :func:`select_modes` does exactly that, for every
peer of a phase at once.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

from repro.core.bitvector import BitVector

#: Bytes of the fixed per-message header (mode tag + dtype code).
HEADER_BYTES = 2
#: Bytes of a u32 element-count field.
COUNT_BYTES = 4
#: Bytes of one u32 index or global ID.
INDEX_BYTES = 4


class MetadataMode(enum.IntEnum):
    """Wire encodings for one synchronization message."""

    EMPTY = 0
    FULL = 1
    BITVEC = 2
    INDICES = 3
    GLOBAL_IDS = 4


_EMPTY, _FULL, _BITVEC, _INDICES = (
    MetadataMode.EMPTY, MetadataMode.FULL, MetadataMode.BITVEC, MetadataMode.INDICES,
)


def encoded_size(
    mode: MetadataMode, num_agreed: int, num_updates: int, value_size: int
) -> int:
    """Exact wire size (bytes) of a message in ``mode`` over an agreed
    array of ``num_agreed`` proxies with ``num_updates`` updated ones,
    ``value_size`` bytes per value."""
    if num_updates > num_agreed:
        raise ValueError(
            f"num_updates {num_updates} exceeds agreed array {num_agreed}"
        )
    if mode is MetadataMode.EMPTY:
        return HEADER_BYTES
    if mode is MetadataMode.FULL:
        body = num_agreed * value_size
    elif mode is MetadataMode.BITVEC:
        body = BitVector.wire_size(num_agreed) + num_updates * value_size
    elif mode in (MetadataMode.INDICES, MetadataMode.GLOBAL_IDS):
        body = num_updates * (INDEX_BYTES + value_size)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return HEADER_BYTES + COUNT_BYTES + body


def select_modes(
    num_agreed: Sequence[int], num_updates: Sequence[int], value_size: int
) -> List[MetadataMode]:
    """Pick the smallest memoized encoding for each of many messages.

    Implements the paper's rules: no updates -> EMPTY; dense -> FULL (no
    metadata at all); sparse -> BITVEC; very sparse -> INDICES.  The choice
    is made by exact size comparison, with ties broken toward the mode with
    the cheaper decode (FULL < BITVEC < INDICES).  Message ``i`` has
    ``num_updates[i]`` updates over ``num_agreed[i]`` agreed proxies.
    """
    modes = []
    for agreed, updates in zip(num_agreed, num_updates):
        if updates == 0:
            modes.append(_EMPTY)
            continue
        if updates > agreed:
            raise ValueError(
                f"num_updates {updates} exceeds agreed array {agreed}"
            )
        # The three bodies past their common header + count (encoded_size).
        full = agreed * value_size
        bitvec = BitVector.wire_size(agreed) + updates * value_size
        indices = updates * (INDEX_BYTES + value_size)
        if full <= bitvec and full <= indices:
            modes.append(_FULL)
        else:
            modes.append(_BITVEC if bitvec <= indices else _INDICES)
    return modes


def select_mode(num_agreed: int, num_updates: int, value_size: int) -> MetadataMode:
    """:func:`select_modes` for one message."""
    return select_modes((num_agreed,), (num_updates,), value_size)[0]
