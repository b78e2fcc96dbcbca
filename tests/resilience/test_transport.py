"""Unit tests for the fault-injecting transport and its reliability layer."""

import dataclasses

import pytest

from repro.core.serialization import FRAME_OVERHEAD
from repro.errors import HostCrashedError, TransportError
from repro.resilience.faults import CrashFault, FaultInjector, FaultPlan
from repro.resilience.transport import FaultStats, FaultyTransport


def make_transport(num_hosts=2, **plan_kwargs):
    injector = FaultInjector(FaultPlan(**plan_kwargs))
    return FaultyTransport(num_hosts, injector)


class TestCleanChannel:
    def test_delivery_unchanged(self):
        t = make_transport()
        t.send(0, 1, b"alpha")
        t.send(0, 1, b"beta")
        assert [(s, p) for s, p in t.receive_all(1)] == [
            (0, b"alpha"),
            (0, b"beta"),
        ]
        assert t.faults.total_injected == 0

    def test_framing_overhead_accounted(self):
        t = make_transport()
        t.send(0, 1, b"12345")
        assert t.stats.total_bytes == 5 + FRAME_OVERHEAD
        assert t.faults.framing_bytes == FRAME_OVERHEAD
        assert t.take_round_fault_bytes() == 0

    def test_non_bytes_payload_rejected(self):
        t = make_transport()
        with pytest.raises(TransportError):
            t.send(0, 1, "not bytes")

    def test_round_lifecycle_delegates(self):
        t = make_transport()
        t.send(0, 1, b"x")
        assert t.pending(1) == 1
        t.receive_all(1)
        t.end_round()
        assert t.num_hosts == 2


class TestLossyChannel:
    def test_drops_are_retransmitted(self):
        t = make_transport(drop_rate=1.0, seed=5)
        t.send(0, 1, b"must arrive")
        assert [p for _, p in t.receive_all(1)] == [b"must arrive"]
        assert t.faults.dropped == 1
        # Wire carried the wasted copy and the retransmission.
        frame_len = len(b"must arrive") + FRAME_OVERHEAD
        assert t.stats.total_bytes == 2 * frame_len
        assert t.faults.fault_bytes == frame_len
        assert t.take_round_fault_bytes() == frame_len
        assert t.take_round_fault_bytes() == 0  # drained

    def test_corruption_detected_and_healed(self):
        t = make_transport(corrupt_rate=1.0, seed=6)
        t.send(0, 1, b"fragile")
        assert [p for _, p in t.receive_all(1)] == [b"fragile"]
        assert t.faults.corrupted == 1
        assert t.faults.checksum_failures == 1

    def test_duplicates_discarded(self):
        t = make_transport(duplicate_rate=1.0, seed=7)
        t.send(0, 1, b"once")
        assert [p for _, p in t.receive_all(1)] == [b"once"]
        assert t.faults.duplicated == 1
        assert t.faults.duplicates_discarded == 1

    def test_mixed_faults_preserve_payload_stream(self):
        t = make_transport(
            drop_rate=0.2, corrupt_rate=0.2, duplicate_rate=0.2, seed=11
        )
        sent = [bytes([i]) * 3 for i in range(64)]
        for payload in sent:
            t.send(0, 1, payload)
        received = [p for _, p in t.receive_all(1)]
        assert received == sent
        assert t.faults.total_injected > 0

    def test_total_injected_counts_all_kinds(self):
        t = make_transport(drop_rate=1.0, seed=1)
        t.send(0, 1, b"a")
        t.receive_all(1)
        stats = t.faults
        assert stats.total_injected == (
            stats.dropped + stats.duplicated + stats.corrupted
        )


class TestCrashDelegation:
    def test_crash_propagates_host_id(self):
        t = make_transport(num_hosts=3)
        t.crash(1)
        assert t.is_crashed(1)
        assert t.crashed_hosts == frozenset({1})
        with pytest.raises(HostCrashedError) as exc:
            t.receive_all(1)
        assert exc.value.host == 1

    def test_send_to_dead_host_rejected(self):
        t = make_transport(num_hosts=3, crashes=(CrashFault(2, 1),))
        t.crash(2)
        with pytest.raises(HostCrashedError):
            t.send(0, 2, b"x")


class TestSequenceContinuity:
    def test_injector_survives_transport_rebirth(self):
        # Recovery replaces the transport but keeps the injector; sequence
        # numbers must stay unique so stale frames can never be replayed.
        injector = FaultInjector(FaultPlan())
        first = FaultyTransport(2, injector)
        first.send(0, 1, b"old")
        reborn = FaultyTransport(2, injector)
        reborn.send(0, 1, b"new")
        assert injector._seq == 2
        assert [p for _, p in reborn.receive_all(1)] == [b"new"]


class TestFaultStats:
    def test_absorb_adds_every_counter(self):
        # Distinct values per field, so a counter absorb forgets (or adds
        # into the wrong field) cannot cancel out.
        names = [f.name for f in dataclasses.fields(FaultStats)]
        total = FaultStats(**{name: i + 1 for i, name in enumerate(names)})
        total.absorb(FaultStats(**{name: 10 * (i + 1) for i, name in enumerate(names)}))
        assert dataclasses.asdict(total) == {name: 11 * (i + 1) for i, name in enumerate(names)}
