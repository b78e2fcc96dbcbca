"""Fuzzing the whole inbound path, now that decoding returns views.

``frame_slots`` -> EMPTY short-cut -> ``decode_update`` ->
``FieldSpec.reduce`` / ``set``, driven through the real
``GluonSubstrate.receive_*_all`` over a stub inbox that delivers each
buffer exactly as handed (``bytes``, ``bytearray`` or ``memoryview``).
Whatever arrives — random bytes, a valid frame with one byte flipped, any
truncation — only :class:`SerializationError` / :class:`SyncError` may
escape, and nothing the decoder hands out is writable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.frame import decode_frame, encode_frame
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.serialization import (
    decode_message,
    empty_message,
    encode_message,
    is_empty_message,
)
from repro.core.substrate import bind_sync_plans, setup_substrates
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.errors import SerializationError, SyncError
from repro.graph.generators import rmat
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner

REJECTIONS = (SerializationError, SyncError)
BUFFER_TYPES = [bytes, bytearray, lambda raw: memoryview(bytearray(raw))]
BUFFER_IDS = ["bytes", "bytearray", "memoryview"]
EDGES = rmat(scale=7, edge_factor=8, seed=2)


class Inbox:
    """A transport stub: delivers the buffers it holds, untouched."""

    def __init__(self):
        self.mail = []

    def receive_all(self, host):
        mail, self.mail = self.mail, []
        return mail


def make_fields(kind, part):
    n = part.num_nodes
    if kind == "scalar":
        return [FieldSpec("v", np.full(n, 50, dtype=np.uint32), MIN)]
    return [FieldSpec("rows", np.zeros((n, 5), dtype=np.float32), ADD)]


class Cluster:
    """Two hvc hosts with one bound field; host 1's traffic is captured."""

    def __init__(self, kind, level):
        self.kind = kind
        self.partitioned = make_partitioner("hvc").partition(EDGES, 2)
        self.transport = InProcessTransport(2)
        self.subs = setup_substrates(self.partitioned, self.transport, level)
        self.transport.end_round()
        self.fields = [make_fields(kind, p) for p in self.partitioned.partitions]
        bind_sync_plans(range(2), self.subs, self.fields, [s.book for s in self.subs])
        self.inbox = Inbox()
        self.subs[0].plane.transport = self.inbox

    def capture(self, phase, share):
        """The valid wire buffer host 1 sends host 0 in ``phase`` when
        ``share`` of the proxies agreed between them are dirty.  A wide
        field's rows differ from the baseline in every column (it ships
        the rows); a "delta" one's in column 0 only, so it ships a delta."""
        sub, (field,) = self.subs[1], self.fields[1]
        field.values[...] = np.random.default_rng(7).integers(
            1, 40, size=field.values.shape
        )
        if self.kind == "delta" and phase == "broadcast":
            field.commit_broadcast(np.arange(sub.num_local_nodes))
            field.values[:, 0] += 1
        elif self.kind == "delta":
            field.values[:, 1:] = 0  # the reduce's baseline: ADD's identity
        ((_, agreed),) = sub.plan.fields[0].sends[phase]
        dirty = np.zeros(sub.num_local_nodes, dtype=bool)
        dirty[agreed[: max(1, int(len(agreed) * share))]] = True
        stage = sub.stage_reduce if phase == "reduce" else sub.stage_broadcast
        stage(0, field, np.flatnonzero(dirty))
        sub.flush_phase(1)
        ((_, buffer),) = self.transport.receive_all(0)
        return buffer

    def deliver(self, phase, buffer):
        self.inbox.mail = [(1, buffer)]
        receive = (
            self.subs[0].receive_reduce_all
            if phase == "reduce"
            else self.subs[0].receive_broadcast_all
        )
        return receive(self.fields[0])


OSTI, OTI, OSI, UNOPT = (
    OptimizationLevel.OSTI, OptimizationLevel.OTI,
    OptimizationLevel.OSI, OptimizationLevel.UNOPT,
)
#: name -> (field kind, level, phase, dirty share, expected mode).
SHAPES = {
    "scalar-indices": ("scalar", OTI, "broadcast", 0.0, "INDICES"),
    "scalar-bitvec": ("scalar", OSTI, "broadcast", 0.5, "BITVEC"),
    "scalar-full": ("scalar", OTI, "reduce", 1.0, "FULL"),
    "scalar-global-ids": ("scalar", UNOPT, "reduce", 0.3, "GLOBAL_IDS"),
    "wide-bitvec": ("wide", OTI, "reduce", 0.3, "BITVEC"),
    "wide-global-ids": ("wide", OSI, "broadcast", 0.3, "GLOBAL_IDS"),
    "delta-bitvec": ("delta", OSTI, "broadcast", 0.3, "BITVEC"),
    "delta-full": ("delta", OTI, "reduce", 1.0, "FULL"),
}


def framed(payload):
    """``payload`` as the one-slot frame a one-field phase sends."""
    return encode_frame([payload])


def cluster_and_buffer(shape):
    kind, level, phase, share, mode = SHAPES[shape]
    cluster = Cluster(kind, level)
    buffer = cluster.capture(phase, share)
    (payload,) = decode_frame(buffer)
    message = decode_message(payload)
    assert message.mode.name == mode, shape
    assert (message.width > 0) == (kind != "scalar")
    assert (message.delta_mask is not None) == (kind == "delta")
    return cluster, phase, buffer


@pytest.mark.parametrize("as_buffer", BUFFER_TYPES, ids=BUFFER_IDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_valid_traffic_applies_the_same_from_any_buffer_type(shape, as_buffer):
    cluster, phase, raw = cluster_and_buffer(shape)
    reference, _, _ = cluster_and_buffer(shape)
    expected = reference.deliver(phase, raw)
    changed = cluster.deliver(phase, as_buffer(raw))
    assert np.array_equal(changed[0], expected[0]) and len(changed[0])
    for got, want in zip(cluster.fields[0], reference.fields[0]):
        assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("as_buffer", BUFFER_TYPES, ids=BUFFER_IDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_truncation_is_rejected(shape, as_buffer):
    """Every prefix of the whole frame, and every prefix of its one
    sub-message injected as a one-slot frame."""
    cluster, phase, raw = cluster_and_buffer(shape)
    for cut in range(len(raw)):
        with pytest.raises(REJECTIONS):
            cluster.deliver(phase, as_buffer(raw[:cut]))
    (payload,) = decode_frame(raw)
    payload = bytes(payload)
    # From one byte on: a zero-length slot is the frame's "no message".
    for cut in range(1, len(payload)):
        if cut == 2 and is_empty_message(payload[:2]):
            continue  # a message cut to its header *is* an EMPTY message
        with pytest.raises(REJECTIONS):
            cluster.deliver(phase, as_buffer(framed(payload[:cut])))


@pytest.mark.parametrize("as_buffer", BUFFER_TYPES, ids=BUFFER_IDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_single_byte_flips_never_escape(shape, as_buffer):
    cluster, phase, raw = cluster_and_buffer(shape)
    rng = np.random.default_rng(11)
    # Every byte of the headers and metadata, a sample of the values.
    positions = list(range(min(len(raw), 48))) + rng.integers(
        0, len(raw), size=40
    ).tolist()
    for position in positions:
        for flipped in {raw[position] ^ 0xFF, raw[position] ^ 0x01, 0x00, 0xC0}:
            mutated = bytearray(raw)
            mutated[position] = flipped
            try:
                cluster.deliver(phase, as_buffer(bytes(mutated)))
            except REJECTIONS:
                pass


@given(payload=st.binary(max_size=200), whole_frame=st.booleans(), wide=st.booleans())
@settings(max_examples=300, deadline=None)
def test_random_bytes_never_escape(payload, whole_frame, wide):
    """The bytes are the whole frame, or one slot's message."""
    cluster = _RANDOM_CLUSTERS[wide]
    # A zero-length slot is the frame's "no message".
    buffer = payload if whole_frame else framed(payload or None)
    for as_buffer in BUFFER_TYPES:
        for phase in ("reduce", "broadcast"):
            try:
                cluster.deliver(phase, as_buffer(buffer))
            except REJECTIONS:
                pass


_RANDOM_CLUSTERS = {
    wide: Cluster("delta" if wide else "scalar", OptimizationLevel.OSTI)
    for wide in (True, False)
}


@pytest.mark.parametrize("as_buffer", BUFFER_TYPES, ids=BUFFER_IDS)
def test_decoded_arrays_are_read_only_views(as_buffer):
    values = np.arange(12, dtype=np.float32).reshape(4, 3)
    mask = values % 2 == 0
    selection = np.array([0, 2, 5, 7], dtype=np.uint32)
    messages = [
        encode_message(MetadataMode.FULL, np.arange(6, dtype=np.uint32)),
        encode_message(
            MetadataMode.INDICES, np.arange(4, dtype=np.int64), selection=selection
        ),
        encode_message(MetadataMode.GLOBAL_IDS, values, selection=selection, width=3),
        encode_message(
            MetadataMode.BITVEC, values, num_agreed=9, selection=selection, width=3,
            delta_mask=mask,
        ),
    ]
    for raw in messages:
        message = decode_message(as_buffer(raw))
        assert not message.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            message.values.reshape(-1)[:1] = 0
        if message.mode is not MetadataMode.FULL:
            assert np.array_equal(message.selection, selection)
        if message.mode in (MetadataMode.INDICES, MetadataMode.GLOBAL_IDS):
            assert not message.selection.flags.writeable
    for sub in decode_frame(as_buffer(b"\x01\x00\x02\x00\x00\x00\x00\x00")):
        assert sub.readonly or as_buffer is not bytes


@pytest.mark.parametrize(
    "header",
    [b"\x80\x00", b"\x40\x00", b"\xc0\x02", b"\x00\x08", b"\x00\xff", b"\x01\x00"],
    ids=["wide-flag", "delta-flag", "both-flags", "dtype-8", "dtype-255", "full-tag"],
)
def test_near_empty_headers_are_not_taken_for_empty(header):
    """Two bytes with a flag bit, an unknown dtype code or another tag
    take the full decoder, and its error — never the silent short-cut."""
    assert not is_empty_message(header)
    assert not is_empty_message(memoryview(header))
    cluster = Cluster("scalar", OptimizationLevel.OSTI)
    with pytest.raises(SerializationError):
        cluster.deliver("reduce", framed(header))


def test_exactly_the_empty_message_is_skipped_without_decoding(monkeypatch):
    import repro.comm.codec as codec

    assert is_empty_message(empty_message(np.float64))
    assert not is_empty_message(b"\x00") and not is_empty_message(b"\x00\x00\x00")
    monkeypatch.setattr(
        codec, "read_message", lambda *args: pytest.fail("EMPTY was decoded")
    )
    for buffer in (framed(b"\x00\x00"), b"\x01\x00\x02\x00\x00\x00\x00\x03"):
        cluster = Cluster("scalar", OptimizationLevel.OSTI)
        assert cluster.deliver("reduce", buffer) == [None]  # nothing changed


def test_rows_of_the_wrong_width_are_rejected_by_name():
    """A well-formed message whose row width is not the field's would
    otherwise broadcast against (or silently into) the field's rows."""
    cluster = Cluster("wide", OptimizationLevel.OTI)
    agreed = cluster.subs[0].plan.fields[0].recv["reduce"][1]
    ones = np.ones((len(agreed), 5), dtype=np.float32)
    assert cluster.deliver(
        "reduce", framed(encode_message(MetadataMode.FULL, ones, width=5))
    )[0].any()
    for payload in (
        encode_message(MetadataMode.FULL, ones[:, 0]),  # scalar into rows
        encode_message(MetadataMode.FULL, ones[:, :4], width=4),
        encode_message(
            MetadataMode.FULL, ones[:, :4], width=4, delta_mask=np.eye(len(ones), 4) > 0
        ),
    ):
        with pytest.raises(SyncError, match="width"):
            cluster.deliver("reduce", framed(payload))
    scalar = Cluster("scalar", OptimizationLevel.OTI)
    with pytest.raises(SyncError, match="width"):
        scalar.deliver("reduce", framed(encode_message(MetadataMode.FULL, ones, width=5)))


def test_indices_naming_a_position_twice_are_rejected():
    """Positions ``[0, 0]`` with values ``[3, 45]`` would leave a MIN
    master at 45, not 3: a repeated ID is applied last-write-wins."""
    cluster = Cluster("scalar", OptimizationLevel.OSTI)
    values = np.array([3, 45], dtype=np.uint32)
    for positions in ([0, 0], [1, 0]):
        payload = encode_message(
            MetadataMode.INDICES, values, selection=np.array(positions, dtype=np.uint32)
        )
        with pytest.raises(SyncError, match="from 1 names a position twice or out of order"):
            cluster.deliver("reduce", framed(payload))
    ok = encode_message(
        MetadataMode.INDICES, values, selection=np.array([0, 1], dtype=np.uint32)
    )
    assert cluster.deliver("reduce", framed(ok))[0].any()


def test_global_ids_naming_a_node_twice_are_rejected():
    cluster = Cluster("scalar", OptimizationLevel.UNOPT)
    gid = int(cluster.partitioned.partitions[0].local_to_global[0])
    payload = encode_message(
        MetadataMode.GLOBAL_IDS, np.array([3, 45], dtype=np.uint32),
        selection=np.array([gid, gid], dtype=np.uint32),
    )
    with pytest.raises(SyncError, match="from 1 names a global node twice"):
        cluster.deliver("reduce", framed(payload))
    assert cluster.fields[0][0].values[0] == 50  # nothing was applied


def test_wide_indices_naming_a_row_twice_are_rejected():
    """An ADD field would end with the last row (9), not the sum (10)."""
    cluster = Cluster("wide", OptimizationLevel.OTI)
    rows = np.array([[1] * 5, [9] * 5], dtype=np.float32)
    payload = encode_message(
        MetadataMode.INDICES, rows, selection=np.array([0, 0], dtype=np.uint32),
        width=5,
    )
    with pytest.raises(SyncError, match="from 1 names a position twice"):
        cluster.deliver("reduce", framed(payload))
    assert not cluster.fields[0][0].values.any()
