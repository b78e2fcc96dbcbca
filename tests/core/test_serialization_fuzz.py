"""Fuzzing the wire-format decoder.

A substrate that trusts the network must never crash or silently
mis-decode on malformed bytes: every outcome of :func:`decode_message`
must be either a valid :class:`SyncMessage` or a
:class:`SerializationError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import MetadataMode
from repro.core.serialization import (
    SyncMessage,
    decode_message,
    encode_message,
)
from repro.errors import SerializationError


@given(payload=st.binary(max_size=400))
@settings(max_examples=200, deadline=None)
def test_random_bytes_never_crash(payload):
    try:
        message = decode_message(payload)
    except SerializationError:
        return
    assert isinstance(message, SyncMessage)
    assert isinstance(message.mode, MetadataMode)
    assert isinstance(message.values, np.ndarray)


@given(
    data=st.data(),
    num_values=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=150, deadline=None)
def test_mutated_valid_messages_never_crash(data, num_values):
    """Flip a byte anywhere in a valid message: decode must either fail
    cleanly or produce a structurally valid message."""
    values = np.arange(num_values, dtype=np.uint32)
    if num_values == 0:
        payload = encode_message(MetadataMode.EMPTY, values)
    else:
        selection = np.arange(num_values, dtype=np.uint32)
        payload = encode_message(
            MetadataMode.INDICES, values, selection=selection
        )
    position = data.draw(
        st.integers(min_value=0, max_value=max(len(payload) - 1, 0))
    )
    new_byte = data.draw(st.integers(min_value=0, max_value=255))
    mutated = bytearray(payload)
    mutated[position] = new_byte
    try:
        message = decode_message(bytes(mutated))
    except SerializationError:
        return
    assert isinstance(message, SyncMessage)
    if message.selection is not None:
        # A byte flip may set the WIDE/DELTA flags, in which case counts
        # count rows (delta values arrive flat-masked): compare against
        # the message's row count, not the raw value length.
        assert len(message.selection) == message.num_rows


@given(
    data=st.data(),
    mode=st.sampled_from(
        [MetadataMode.FULL, MetadataMode.BITVEC, MetadataMode.INDICES]
    ),
)
@settings(max_examples=100, deadline=None)
def test_truncated_messages_rejected(data, mode):
    """Any strict prefix of a non-trivial message must be rejected."""
    values = np.arange(8, dtype=np.uint32)
    selection = np.arange(8, dtype=np.uint32)
    payload = encode_message(
        mode, values, num_agreed=16, selection=selection
    )
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    try:
        message = decode_message(payload[:cut])
    except SerializationError:
        return
    # A shorter valid parse is only possible if the truncation landed on
    # a self-consistent boundary — which this format never allows for
    # strict prefixes of a fixed-count message.
    raise AssertionError(
        f"truncated {mode.name} message of {cut}/{len(payload)} bytes "
        f"decoded as {message.mode.name}"
    )


@pytest.mark.parametrize(
    "as_buffer",
    [bytes, bytearray, lambda raw: memoryview(bytearray(raw))],
    ids=["bytes", "bytearray", "memoryview"],
)
@pytest.mark.parametrize("delta", [False, True], ids=["wide", "delta"])
@pytest.mark.parametrize(
    "mode",
    [
        MetadataMode.FULL, MetadataMode.BITVEC, MetadataMode.INDICES,
        MetadataMode.GLOBAL_IDS,
    ],
    ids=lambda mode: mode.name,
)
def test_wide_and_delta_truncations_rejected_from_any_buffer(mode, delta, as_buffer):
    """The offset parser reads views, not copies: every strict prefix of a
    WIDE / DELTA message must still end in a SerializationError (never
    numpy's own ValueError for a short buffer), whatever holds the bytes."""
    values = np.arange(24, dtype=np.float64).reshape(6, 4)
    payload = encode_message(
        mode,
        values,
        num_agreed=16,
        selection=np.arange(6, dtype=np.uint32) * 2,
        width=4,
        delta_mask=(values % 3 != 0) if delta else None,
    )
    whole = decode_message(as_buffer(payload))
    assert whole.num_rows == 6 and not whole.values.flags.writeable
    for cut in range(len(payload)):
        with pytest.raises(SerializationError):
            decode_message(as_buffer(payload[:cut]))
