"""RingTransport: the in-process transport's contract over shared memory.

These tests exercise the inter-process surface directly — slot framing,
phase counters and doorbells, delivery order, per-receiving-host
isolation, the slot-release rule — and the fault-injection satellite:
drop/dup/corrupt across a real process boundary must reproduce the exact
recovery accounting the simulated :class:`FaultyTransport` produces.
(The file keeps its name from the ``mp.Queue`` transport it replaced:
the contract is the same one.)
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import struct
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import frame_crc
from repro.errors import HostCrashedError, TransportError
from repro.parallel import rings
from repro.parallel.rings import RingFabric, RingTransport
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.transport import FaultyTransport

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX multiprocessing required"
)


def _ctx():
    return multiprocessing.get_context("fork")


@pytest.fixture
def make_fabric(no_leaked_segments):
    """``make_fabric(hosts, slots, room)``: a ring for every ordered pair;
    ``/dev/shm`` must be as it was at test end."""

    def make(num_hosts, slots=8, room=64):
        pairs = itertools.permutations(range(num_hosts), 2)
        return RingFabric(
            num_hosts, {pair: (slots, room) for pair in pairs}, _ctx()
        )

    return make


def _payloads(delivered):
    return [(sender, bytes(view)) for sender, view in delivered]


# ---------------------------------------------------------------------------
# Child-process bodies (module-level for clean fork semantics).
# ---------------------------------------------------------------------------


def _echo_child(fabric, results):  # pragma: no cover - runs in a child
    """Host 1: receive a phase from host 0, send it back reversed."""
    transport = RingTransport(fabric, receive_timeout_s=30)
    got = _payloads(transport.receive_all(1))
    for _, payload in got:
        transport.send(1, 0, payload[::-1])
    transport.finish_phase(1)
    results.put(got)


def _interleaved_child(fabric, barrier):  # pragma: no cover - child
    """Hosts 1 and 2 share one transport; send interleaved to host 0."""
    transport = RingTransport(fabric, receive_timeout_s=30)
    transport.send(2, 0, b"from-2-first")
    transport.send(1, 0, b"from-1")
    transport.send(2, 0, b"from-2-second")
    transport.finish_phase(1)
    transport.finish_phase(2)
    barrier.wait(timeout=30)


def _faulty_receiver_child(fabric, plan, results):  # pragma: no cover
    """Host 1 behind its own reliability layer; reports what survived."""
    rings = RingTransport(fabric, receive_timeout_s=30)
    wrapper = FaultyTransport(2, FaultInjector(plan), inner=rings)
    payloads = wrapper.receive_all(1)
    results.put(
        {
            "payloads": _payloads(payloads),
            "checksum_failures": wrapper.faults.checksum_failures,
            "duplicates_discarded": wrapper.faults.duplicates_discarded,
        }
    )


class TestCrossProcess:
    def test_send_receive_echo_roundtrip(self, make_fabric):
        ctx = _ctx()
        fabric = make_fabric(2)
        results = ctx.Queue()
        child = ctx.Process(
            target=_echo_child, args=(fabric, results), daemon=True
        )
        child.start()
        transport = RingTransport(fabric, receive_timeout_s=30)
        messages = [b"alpha", b"beta", b"gamma"]
        for message in messages:
            transport.send(0, 1, message)
        transport.finish_phase(0)
        echoed = transport.receive_all(0)
        child_saw = results.get(timeout=30)
        child.join(timeout=30)
        assert not child.is_alive()
        assert child_saw == [(0, m) for m in messages]
        assert echoed == [(1, m[::-1]) for m in messages]

    def test_delivery_is_ascending_sender_fifo(self, make_fabric):
        """The simulated mailbox order, reproduced across processes."""
        ctx = _ctx()
        fabric = make_fabric(3)
        barrier = ctx.Barrier(2)
        child = ctx.Process(
            target=_interleaved_child, args=(fabric, barrier), daemon=True
        )
        child.start()
        transport = RingTransport(fabric, receive_timeout_s=30)
        transport.finish_phase(0)
        delivered = transport.receive_all(0)
        barrier.wait(timeout=30)
        child.join(timeout=30)
        assert not child.is_alive()
        assert delivered == [
            (1, b"from-1"),
            (2, b"from-2-first"),
            (2, b"from-2-second"),
        ]


class TestPhaseBuffers:
    """In-process protocol checks (the rings work fine single-process)."""

    def test_markers_are_isolated_per_receiving_host(self, make_fabric):
        """A worker owning hosts 1 and 2 on one transport: host 2's
        receives must neither consume host 1's doorbells nor be satisfied
        by a peer's *next* phase — the old marker-theft race, now a
        counter compare."""
        fabric = make_fabric(3)
        sender = RingTransport(fabric, receive_timeout_s=5)
        owner = RingTransport(fabric, receive_timeout_s=5)
        # Every host finishes phases 0 and 1 up front (the BSP pattern);
        # host 0 also ships one phase-0 frame to host 1.
        sender.send(0, 1, b"p0")
        sender.finish_phase(0)
        sender.finish_phase(0)
        for _ in range(2):
            owner.finish_phase(1)
            owner.finish_phase(2)
        assert owner.pending(1) == 1
        assert owner.receive_all(1) == [(0, b"p0")]
        assert owner.receive_all(2) == []
        assert owner.receive_all(2) == []  # host 1's bells are untouched
        assert owner.receive_all(1) == []

    def test_a_fast_peers_next_phase_never_stands_in_for_a_slow_peer(
        self, make_fabric
    ):
        """Host 1 is two phases in, host 2 none: host 0 still waits."""
        fabric = make_fabric(3)
        peers = RingTransport(fabric)
        waiter = RingTransport(fabric, receive_timeout_s=0.05)
        peers.send(1, 0, b"phase-0")
        peers.finish_phase(1)
        peers.send(1, 0, b"phase-1")
        peers.finish_phase(1)  # two doorbells at host 0, both from host 1
        with pytest.raises(TransportError, match="timed out"):
            waiter.receive_all(0)

    def test_a_frame_sent_one_phase_ahead_waits_its_turn(self, make_fabric):
        fabric = make_fabric(2)
        producer = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        producer.send(0, 1, b"now")
        producer.finish_phase(0)
        producer.send(0, 1, b"next")  # phase 1, before host 1 read phase 0
        assert consumer.receive_all(1) == [(0, b"now")]
        assert consumer.pending(1) == 1
        producer.finish_phase(0)
        assert consumer.receive_all(1) == [(0, b"next")]

    def test_pending_counts_only_the_hosts_own_frames(self, make_fabric):
        fabric = make_fabric(3)
        sender = RingTransport(fabric)
        owner = RingTransport(fabric)
        sender.send(0, 1, b"x")
        sender.send(0, 1, b"y")
        sender.send(0, 2, b"z")
        assert owner.pending(1) == 2
        assert owner.pending(2) == 1
        assert owner.pending(0) == 0

    def test_end_round_rejects_undelivered_frames(self, make_fabric):
        fabric = make_fabric(2)
        sender = RingTransport(fabric)
        receiver = RingTransport(fabric, receive_timeout_s=5)
        sender.finish_phase(0)
        assert receiver.receive_all(1) == []
        receiver.end_round()  # drained: fine
        sender.send(0, 1, b"stranded")  # a phase nobody will receive
        with pytest.raises(TransportError, match="undelivered"):
            receiver.end_round()
        sender.end_round()  # not host 1's server: not its business

    def test_guards(self, make_fabric):
        fabric = make_fabric(2)
        transport = RingTransport(fabric)
        with pytest.raises(TransportError, match="out of range"):
            transport.send(0, 7, b"x")
        with pytest.raises(TransportError, match="itself"):
            transport.send(0, 0, b"x")
        with pytest.raises(TransportError, match="bytes-like"):
            transport.send(0, 1, "text")
        transport.crash(1)
        assert transport.is_crashed(1)
        assert transport.crashed_hosts == frozenset({1})
        with pytest.raises(HostCrashedError):
            transport.send(0, 1, b"x")

    def test_a_pair_the_plan_never_routes_has_no_ring(self):
        fabric = RingFabric(3, {(0, 1): (2, 8)}, _ctx())
        transport = RingTransport(fabric)
        transport.send(0, 1, b"routed")
        with pytest.raises(TransportError, match="exceeds"):
            transport.send(0, 2, b"unrouted")

    def test_receive_timeout_names_a_dead_cluster(self, make_fabric):
        fabric = make_fabric(2)
        transport = RingTransport(fabric, receive_timeout_s=0.05)
        with pytest.raises(TransportError, match="a worker likely died"):
            transport.receive_all(0)

    def test_a_receiver_stops_waiting_once_its_coordinator_is_gone(
        self, make_fabric, monkeypatch
    ):
        """A forked worker whose parent pid no longer matches the
        coordinator's gives up after one liveness poll, long before its
        receive timeout."""
        monkeypatch.setattr(rings, "LIVENESS_POLL_S", 0.05)
        monkeypatch.setattr(
            multiprocessing, "parent_process", lambda: SimpleNamespace(pid=-1)
        )
        transport = RingTransport(make_fabric(2), receive_timeout_s=60)
        started = time.monotonic()
        with pytest.raises(TransportError, match="coordinator is gone"):
            transport.receive_all(0)
        assert time.monotonic() - started < 5

    def test_a_live_coordinator_keeps_the_receiver_waiting(
        self, make_fabric, monkeypatch
    ):
        """While the parent is the coordinator, the polls run out the
        whole receive timeout."""
        monkeypatch.setattr(rings, "LIVENESS_POLL_S", 0.05)
        monkeypatch.setattr(
            multiprocessing,
            "parent_process",
            lambda: SimpleNamespace(pid=os.getppid()),
        )
        transport = RingTransport(make_fabric(2), receive_timeout_s=0.4)
        started = time.monotonic()
        with pytest.raises(TransportError, match="a worker likely died"):
            transport.receive_all(0)
        assert time.monotonic() - started >= 0.4

    def test_a_single_host_fabric_has_no_rings(self, make_fabric):
        fabric = make_fabric(1)
        transport = RingTransport(fabric)
        assert not fabric.rings
        transport.finish_phase(0)
        assert transport.receive_all(0) == []
        transport.end_round()


class TestSlots:
    """The ring itself: sizes, wrap-around, release, integrity."""

    ROOM = 24

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(
            st.sampled_from([0, 2, ROOM - 1, ROOM]) | st.integers(0, ROOM),
            min_size=1, max_size=12,
        ),
        slots=st.integers(1, 4),
        data=st.data(),
    )
    def test_any_size_up_to_the_slot_round_trips(self, sizes, slots, data):
        """0 bytes, the 2-byte EMPTY, exactly-fits — one frame per phase,
        so the ring wraps at every offset — and one byte over is refused."""
        fabric = RingFabric(2, {(0, 1): (slots, self.ROOM)}, _ctx())
        producer = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        for size in sizes:
            payload = data.draw(st.binary(min_size=size, max_size=size))
            producer.send(0, 1, payload)
            producer.finish_phase(0)
            assert consumer.receive_all(1) == [(0, payload)]
            consumer.finish_phase(1)  # releases the slot
        with pytest.raises(TransportError, match="exceeds the ring's 24-byte"):
            producer.send(0, 1, bytes(self.ROOM + 1))

    @settings(max_examples=60, deadline=None)
    @given(slots=st.integers(1, 5), offset=st.integers(0, 4), batch=st.data())
    def test_wrap_around_at_every_offset(self, slots, offset, batch):
        """A full ring's worth of frames written starting at any slot;
        one more is refused by the head/tail check, not written."""
        offset %= slots
        fabric = RingFabric(2, {(0, 1): (slots, 16)}, _ctx())
        producer = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        for i in range(offset):  # advance head and tail to ``offset``
            producer.send(0, 1, b"skip%d" % i)
            producer.finish_phase(0)
            assert consumer.receive_all(1) == [(0, b"skip%d" % i)]
            consumer.finish_phase(1)  # releases the slot
        frames = batch.draw(
            st.lists(st.binary(max_size=16), min_size=slots, max_size=slots)
        )
        for frame in frames:
            producer.send(0, 1, frame)
        with pytest.raises(TransportError, match="is full"):
            producer.send(0, 1, b"one too many")
        producer.finish_phase(0)
        assert consumer.receive_all(1) == [(0, f) for f in frames]

    PER_PHASE = 2

    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(st.sampled_from([0, 1, "receive"]), max_size=40),
        counts=st.lists(st.integers(0, PER_PHASE), min_size=40, max_size=40),
    )
    def test_random_phase_skew_between_two_producers(self, script, counts):
        """Hosts 0 and 1 each run up to one phase ahead of host 2, in any
        interleaving, over rings of exactly two phases of slots: every
        phase arrives whole, in order, ascending sender, and no send ever
        finds its ring full."""
        shape = {(src, 2): (2 * self.PER_PHASE, 8) for src in (0, 1)}
        fabric = RingFabric(3, shape, _ctx())
        producers = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        sent = {0: [], 1: []}  # per producer, the frames of each phase
        received = 0
        for step, count in zip(script, counts):
            if step == "receive":
                if min(len(sent[0]), len(sent[1])) <= received:
                    continue  # would block: a peer has not finished
                assert consumer.receive_all(2) == [
                    (src, f) for src in (0, 1) for f in sent[src][received]
                ]
                consumer.finish_phase(2)  # as a worker's next flush does
                received += 1
            elif len(sent[step]) <= received + 1:
                frames = [
                    b"%d:%d:%d" % (step, len(sent[step]), i)
                    for i in range(count)
                ]
                for frame in frames:
                    producers.send(step, 2, frame)
                producers.finish_phase(step)
                sent[step].append(frames)

    CARGO = b"precious cargo"

    @pytest.mark.parametrize("at", [*range(16), *range(24, 24 + len(CARGO))])
    def test_a_byte_flipped_in_the_slot_fails_the_crc(self, make_fabric, at):
        """With views out, the slot is the only place corruption can be
        caught: the receiver verifies the bytes it is about to hand on —
        sequence number, checksum, length and every payload byte."""
        fabric = make_fabric(2)
        producer = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        producer.send(0, 1, self.CARGO)
        producer.finish_phase(0)
        fabric.slots[fabric.rings[0, 1].base + at] ^= 0x10
        with pytest.raises(TransportError, match="failed its pipe CRC"):
            consumer.receive_all(1)

    def test_a_flipped_phase_tag_strands_the_frame(self, make_fabric):
        """The one header field outside the CRC: the frame is never
        delivered to the wrong phase, and the round cannot close on it."""
        fabric = make_fabric(2)
        producer = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        producer.send(0, 1, self.CARGO)
        producer.finish_phase(0)
        fabric.slots[fabric.rings[0, 1].base + 16] ^= 0x10
        assert consumer.receive_all(1) == []
        with pytest.raises(TransportError, match="undelivered"):
            consumer.end_round()

    def test_a_forged_sequence_namespace_is_refused(self, make_fabric):
        fabric = make_fabric(2)
        producer = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        producer.send(0, 1, b"x")
        producer.finish_phase(0)
        ring = fabric.rings[0, 1]
        forged = 1 << 40  # host 1's namespace, with a checksum to match
        struct.pack_into(
            "<QI", fabric.slots, ring.base, forged,
            frame_crc(forged, b"x"),
        )
        with pytest.raises(TransportError, match="sequence namespace 1"):
            consumer.receive_all(1)

    def test_views_are_read_only_and_stable_until_the_next_receive(
        self, make_fabric
    ):
        """The slot-release rule: what ``receive_all`` hands out is the
        consumer's until its next ``receive_all`` on that host — the
        producer is refused a slot rather than allowed to overwrite."""
        fabric = make_fabric(2, slots=2, room=8)
        producer = RingTransport(fabric)
        consumer = RingTransport(fabric, receive_timeout_s=5)
        producer.send(0, 1, b"first")
        producer.send(0, 1, b"second")
        producer.finish_phase(0)
        views = [view for _, view in consumer.receive_all(1)]
        assert all(view.readonly for view in views)
        with pytest.raises(TypeError):
            views[0][0] = 0
        with pytest.raises(TransportError, match="is full"):
            producer.send(0, 1, b"clobber")
        assert [bytes(v) for v in views] == [b"first", b"second"]
        producer.finish_phase(0)
        assert consumer.receive_all(1) == []  # releases both slots
        producer.send(0, 1, b"other")
        assert bytes(views[0]) == b"other"  # the view was the slot itself

    def _one_worker_rounds(self, fabric, phases):
        """Both hosts on one transport, two frames 0 -> 1 per phase, in the
        order a worker drives a phase: sends, finishes, receives."""
        transport = RingTransport(fabric, receive_timeout_s=5)
        for phase in range(phases):
            frames = [b"a%d" % phase, b"b%d" % phase]
            for frame in frames:
                transport.send(0, 1, frame)
            transport.finish_phase(0)
            transport.finish_phase(1)
            assert transport.receive_all(0) == []
            assert transport.receive_all(1) == [(0, f) for f in frames]
        transport.end_round()

    def test_two_phases_of_slots_are_enough_and_necessary(self, make_fabric):
        """The capacity rule, at its worst case (one worker: the producer
        is the consumer).  Phase p's slots are released by the receiver's
        ``finish_phase`` of p+1, after p+1's sends: two phases are in
        flight, never three — so 2 x 2 slots run forever, and 3 refuse."""
        self._one_worker_rounds(make_fabric(2, slots=4, room=8), phases=9)
        with pytest.raises(TransportError, match="is full"):
            self._one_worker_rounds(make_fabric(2, slots=3, room=8), phases=2)


class TestFaultInjectionAcrossProcesses:
    """Satellite: transient faults across a real process boundary must
    reproduce the simulated FaultyTransport's recovery accounting."""

    PLAN = FaultPlan(
        drop_rate=0.15, corrupt_rate=0.1, duplicate_rate=0.1, seed=7
    )
    MESSAGES = [f"payload-{i}".encode() * 3 for i in range(60)]

    def _reference(self):
        """The same traffic through the all-in-process stack."""
        wrapper = FaultyTransport(2, FaultInjector(self.PLAN))
        for message in self.MESSAGES:
            wrapper.send(0, 1, message)
        payloads = wrapper.receive_all(1)
        return wrapper, payloads

    def test_recovery_accounting_matches_simulated(self, make_fabric):
        ref_wrapper, ref_payloads = self._reference()

        ctx = _ctx()
        fabric = make_fabric(2, slots=2 * len(self.MESSAGES), room=64)
        results = ctx.Queue()
        child = ctx.Process(
            target=_faulty_receiver_child,
            args=(fabric, self.PLAN, results),
            daemon=True,
        )
        child.start()
        rings = RingTransport(fabric, receive_timeout_s=30)
        wrapper = FaultyTransport(2, FaultInjector(self.PLAN), inner=rings)
        for message in self.MESSAGES:
            wrapper.send(0, 1, message)
        rings.finish_phase(0)
        report = results.get(timeout=30)
        child.join(timeout=30)
        assert not child.is_alive()

        # Send-side accounting: identical injector draws, identical cost.
        assert ref_wrapper.faults.total_injected > 0  # the test is live
        assert wrapper.faults.dropped == ref_wrapper.faults.dropped
        assert wrapper.faults.corrupted == ref_wrapper.faults.corrupted
        assert wrapper.faults.duplicated == ref_wrapper.faults.duplicated
        assert wrapper.faults.fault_bytes == ref_wrapper.faults.fault_bytes
        assert (
            wrapper.faults.framing_bytes == ref_wrapper.faults.framing_bytes
        )
        # Receive-side accounting, detected across the process boundary.
        assert (
            report["checksum_failures"]
            == ref_wrapper.faults.checksum_failures
        )
        assert (
            report["duplicates_discarded"]
            == ref_wrapper.faults.duplicates_discarded
        )
        # The reliability layer delivered the clean sequence either way.
        assert report["payloads"] == _payloads(ref_payloads)
        assert [p for _, p in report["payloads"]] == self.MESSAGES
        # Wire bytes match: every transmission was recorded symmetrically.
        recorded = rings.stats.take()
        ring_bytes = sum(
            nbytes
            for per_src in recorded.values()
            for bucket in per_src.values()
            for _, nbytes in bucket
        )
        assert ring_bytes == ref_wrapper.stats.total_bytes
