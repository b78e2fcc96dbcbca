"""Channel layer: staging, flushing, drain checks, and the comm plane."""

import numpy as np
import pytest

import repro.comm.channel as channel_module
from repro.comm.channel import Channel, CommPlane
from repro.comm.frame import decode_frame, frame_overhead
from repro.core.serialization import empty_message
from repro.errors import SyncError, TransportError
from repro.network.transport import InProcessTransport
from repro.observability.metrics import MetricsRegistry

EMPTY = empty_message(np.dtype(np.uint32))


class TestChannel:
    def test_stage_then_take_frame(self):
        chan = Channel(0, 1)
        chan.stage(2, b"second")
        chan.stage(0, b"first")
        assert chan.staged_fields == 2
        frame = chan.take_frame(3)
        assert decode_frame(frame) == [b"first", None, b"second"]
        assert chan.staged_fields == 0

    def test_idle_channel_takes_no_frame(self):
        assert Channel(0, 1).take_frame(4) is None

    def test_duplicate_stage_rejected(self):
        chan = Channel(0, 1)
        chan.stage(1, b"x")
        with pytest.raises(SyncError, match="already staged"):
            chan.stage(1, b"y")

    def test_negative_field_index_rejected(self):
        with pytest.raises(SyncError, match=">= 0"):
            Channel(0, 1).stage(-1, b"x")

    def test_staged_index_outside_frame_rejected(self):
        chan = Channel(0, 1)
        chan.stage(5, b"x")
        with pytest.raises(SyncError, match="outside the 3-field frame"):
            chan.take_frame(3)

    def test_a_quiet_frame_is_encoded_once(self, monkeypatch):
        """A quiet peer's frame (every slot EMPTY or absent) is re-sent
        as the very bytes object built the first time; a frame carrying
        data is always encoded afresh."""
        encoded = []
        real = channel_module.encode_frame
        monkeypatch.setattr(
            channel_module, "encode_frame", lambda subs: encoded.append(subs) or real(subs)
        )
        chan = Channel(0, 1)
        frames = []
        for payload in (EMPTY, EMPTY, b"data", b"data", EMPTY, EMPTY):
            chan.stage(1, payload)
            frames.append(chan.take_frame(2))
        assert [decode_frame(f) for f in frames] == [
            [None, p] for p in (EMPTY, EMPTY, b"data", b"data", EMPTY, EMPTY)
        ]
        assert frames[1] is frames[0] and frames[5] is frames[4]
        assert len(encoded) == 4  # first EMPTY, both data frames, EMPTY again
        # A different quiet shape (one more slot) is its own frame.
        chan.stage(0, EMPTY)
        chan.stage(1, EMPTY)
        assert decode_frame(chan.take_frame(2)) == [EMPTY, EMPTY]
        assert len(encoded) == 5

    def test_assert_drained_passes_when_empty(self):
        chan = Channel(0, 1)
        chan.stage(0, b"x")
        chan.take_frame(1)
        chan.assert_drained()

    def test_assert_drained_names_the_channel_and_fields(self):
        chan = Channel(2, 5)
        chan.stage(1, b"x")
        chan.stage(3, b"y")
        with pytest.raises(
            TransportError, match=r"channel 2->5 holds 2 staged"
        ) as excinfo:
            chan.assert_drained()
        assert "[1, 3]" in str(excinfo.value)


class TestCommPlane:
    def test_no_self_channel(self):
        plane = CommPlane(1, InProcessTransport(2))
        with pytest.raises(SyncError, match="no channel to itself"):
            plane.channel(1)

    def test_aggregate_buffers_until_flush(self):
        transport = InProcessTransport(3)
        plane = CommPlane(0, transport)
        plane.stage_all(0, (1,), (b"aa",))
        plane.stage_all(1, (2,), (b"bb",))
        assert transport.receive_all(1) == []
        flushed = plane.flush(2, peer_order=[1, 2])
        assert [peer for peer, _ in flushed] == [1, 2]
        (sender, frame), = transport.receive_all(1)
        assert sender == 0
        assert decode_frame(frame) == [b"aa", None]
        (sender, frame), = transport.receive_all(2)
        assert decode_frame(frame) == [None, b"bb"]

    def test_flush_reports_frame_bytes(self):
        transport = InProcessTransport(2)
        plane = CommPlane(0, transport)
        plane.stage_all(0, (1,), (b"abc",))
        ((peer, nbytes),) = plane.flush(2, peer_order=[1])
        assert peer == 1
        assert nbytes == frame_overhead(2) + 3
        transport.receive_all(1)

    def test_flush_clears_and_plane_drains(self):
        transport = InProcessTransport(2)
        plane = CommPlane(0, transport)
        plane.stage_all(0, (1,), (b"x",))
        plane.flush(1, peer_order=[1])
        plane.assert_drained()
        transport.receive_all(1)

    def test_unflushed_plane_fails_drain_check(self):
        plane = CommPlane(0, InProcessTransport(2))
        plane.stage_all(0, (1,), (b"x",))
        with pytest.raises(TransportError, match="un-flushed channel"):
            plane.assert_drained()

    def test_receive_parses_per_sender(self):
        transport = InProcessTransport(3)
        for src in (1, 2):
            peer_plane = CommPlane(src, transport)
            peer_plane.stage_all(0, (0,), (b"from%d" % src,))
            peer_plane.flush(1, peer_order=[0])
        plane = CommPlane(0, transport)
        frames = plane.receive()
        assert [
            (sender, [bytes(buffer[start:end]) for start, end in slots])
            for sender, buffer, slots in frames
        ] == [(1, [b"from1"]), (2, [b"from2"])]

    def test_a_repeated_quiet_frame_is_parsed_once(self, monkeypatch):
        """The receiver keeps a sender's last all-EMPTY frame: the same
        buffer object again gets the same slots without a parse; a data
        frame, or an equal but distinct buffer, is parsed."""
        parsed = []
        real = channel_module.frame_slots
        monkeypatch.setattr(
            channel_module, "frame_slots", lambda buf: parsed.append(buf) or real(buf)
        )
        transport = InProcessTransport(2)
        sender = CommPlane(1, transport)
        plane = CommPlane(0, transport)
        seen = []
        for payload in (EMPTY, EMPTY, b"data", EMPTY):
            sender.stage_all(0, (0,), (payload,))
            sender.flush(1, peer_order=[0])
            ((_, buffer, slots),) = plane.receive()
            seen.append([bytes(buffer[start:end]) for start, end in slots])
        assert seen == [[EMPTY], [EMPTY], [b"data"], [EMPTY]]
        assert len(parsed) == 3  # the second EMPTY frame is the first one
        transport.send(1, 0, bytes(bytearray(parsed[0])))  # equal, not identical
        assert plane.receive() == [(1, parsed[0], [(6, 8)])]
        assert len(parsed) == 4

    def test_flush_metrics(self):
        metrics = MetricsRegistry()
        transport = InProcessTransport(3)
        plane = CommPlane(0, transport, metrics=metrics)
        plane.stage_all(0, (1,), (b"a",))
        plane.stage_all(1, (1,), (b"b",))
        plane.stage_all(0, (2,), (b"c",))
        plane.flush(2, peer_order=[1, 2])
        assert metrics.counter_total("channel_flushes_total") == 2
        histogram = metrics.histogram("channel_fields_per_flush")
        assert histogram.count == 2
        assert histogram.total == 3  # two fields to peer 1, one to peer 2
        transport.receive_all(1)
        transport.receive_all(2)
