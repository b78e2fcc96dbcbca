"""The round → spans/metrics mapping, driven without an executor.

``repro.observability.rounds`` takes a tracer / registry and a measured
:class:`~repro.parallel.runner.RoundData`; a hand-made round is enough
to check the span tree's shape and its byte attribution.
"""

import pytest

from repro.network.stats import RoundTraffic
from repro.observability import MetricsRegistry, Tracer
from repro.observability.rounds import (
    message_observer,
    publish_round_metrics,
    trace_round,
)
from repro.parallel.runner import RoundData

ENGINES = ["galois", "galois", "irgl"]


def hand_made_round(phase_records=None):
    """Three hosts; host 2 computes longest; 600 bytes on the wire."""
    reduce_msgs = [(1, 0, 100), (2, 0, 300)]
    broadcast_msgs = [(0, 1, 150), (0, 2, 50)]
    if phase_records is None:
        phase_records = [
            ("reduce:dist", reduce_msgs, 3.0, 1.0),
            ("broadcast:dist", broadcast_msgs, 1.0, 1.0),
        ]
    return RoundData(
        comp_times=[0.25, 0.5, 1.0],
        comm_time=2.0,
        traffic=RoundTraffic(messages=reduce_msgs + broadcast_msgs),
        phase_records=phase_records,
        translation_deltas={1: 5},
        active=7,
        fault_bytes=0,
        residual_sum=None,
    )


def traced(data, cursor=10.0, round_index=4):
    tracer = Tracer()
    tracer.advance_to(cursor)
    trace_round(
        tracer, round_index, data, app="bfs", policy="cvc", engines=ENGINES
    )
    return tracer


class TestTraceRound:
    def test_round_spans_start_at_the_cursor_and_advance_it(self):
        tracer = traced(hand_made_round())
        rounds = tracer.spans_named("round")
        assert [span.host for span in rounds] == [0, 1, 2]
        for span in rounds:
            assert span.begin_s == 10.0
            assert span.duration_s == 3.0  # slowest compute + comm window
            assert span.tags == {
                "round": 4, "app": "bfs", "policy": "cvc", "active_nodes": 7,
            }
        assert tracer.cursor == 13.0

    def test_compute_and_sync_nest_inside_the_round(self):
        tracer = traced(hand_made_round())
        for host, round_span in enumerate(tracer.spans_named("round")):
            (compute,) = [
                s for s in tracer.spans_named("compute") if s.host == host
            ]
            (sync,) = [s for s in tracer.spans_named("sync") if s.host == host]
            assert round_span.contains(compute)
            assert round_span.contains(sync)
            assert compute.duration_s == [0.25, 0.5, 1.0][host]
            assert compute.tags["engine"] == ENGINES[host]
            # BSP: the shared window opens when the slowest host is done.
            assert sync.begin_s == 11.0
            assert sync.duration_s == 2.0

    def test_sync_spans_carry_per_host_bytes(self):
        tracer = traced(hand_made_round())
        sent = [s.tags["bytes_sent"] for s in tracer.spans_named("sync")]
        received = [s.tags["bytes_recv"] for s in tracer.spans_named("sync")]
        assert sent == [200, 100, 300]
        assert received == [400, 150, 50]

    def test_phases_nest_inside_sync_apportioned_by_bytes(self):
        tracer = traced(hand_made_round())
        for host, sync in enumerate(tracer.spans_named("sync")):
            phases = [
                s for s in tracer.spans_for_host(host) if s.cat == "sync-phase"
            ]
            assert [s.name for s in phases] == ["reduce:dist", "broadcast:dist"]
            reduce_span, broadcast_span = phases
            assert all(sync.contains(s) for s in phases)
            # 400 of 600 bytes were reduce traffic: two thirds of the window.
            assert reduce_span.begin_s == sync.begin_s
            assert reduce_span.duration_s == pytest.approx(2.0 * 400 / 600)
            assert broadcast_span.begin_s == pytest.approx(reduce_span.end_s)
            assert broadcast_span.end_s == pytest.approx(sync.end_s)
        reduce_spans = tracer.spans_named("reduce:dist")
        assert [s.tags["bytes"] for s in reduce_spans] == [0, 100, 300]
        assert [s.tags["bytes_recv"] for s in reduce_spans] == [400, 0, 0]
        assert [s.tags["messages"] for s in reduce_spans] == [0, 1, 1]
        broadcast_spans = tracer.spans_named("broadcast:dist")
        assert [s.tags["bytes"] for s in broadcast_spans] == [200, 0, 0]
        assert [s.tags["messages"] for s in broadcast_spans] == [2, 0, 0]

    def test_spans_keep_what_pricing_the_round_needs(self):
        """Each host's staged sub-messages and its translations: the
        per-field wire is derived from exactly these."""
        tracer = traced(hand_made_round())
        assert [s.tags["translations"] for s in tracer.spans_named("sync")] == [0, 5, 0]
        assert [s.tags["staged"] for s in tracer.spans_named("reduce:dist")] == [
            [], [(0, 100)], [(0, 300)],
        ]
        assert [s.tags["staged"] for s in tracer.spans_named("broadcast:dist")] == [
            [(1, 150), (2, 50)], [], [],
        ]

    def test_serialize_and_apply_split_each_phase_by_wall_ratio(self):
        tracer = traced(hand_made_round())
        (reduce_span,) = [
            s for s in tracer.spans_named("reduce:dist") if s.host == 0
        ]
        serialize = [
            s for s in tracer.spans_named("serialize") if s.host == 0
        ][0]
        apply = [s for s in tracer.spans_named("apply") if s.host == 0][0]
        assert reduce_span.contains(serialize) and reduce_span.contains(apply)
        # 3 s serializing vs 1 s applying: a 3:1 split of the phase.
        assert serialize.duration_s == pytest.approx(0.75 * reduce_span.duration_s)
        assert apply.begin_s == pytest.approx(serialize.end_s)
        assert apply.end_s == pytest.approx(reduce_span.end_s)

    def test_no_phase_records_means_no_phase_spans(self):
        """The process runtime reports rounds without phase records."""
        tracer = traced(hand_made_round(phase_records=[]))
        assert {span.name for span in tracer.spans} == {
            "round", "compute", "sync",
        }
        assert tracer.cursor == 13.0

    def test_byte_free_phases_share_the_window_equally(self):
        empty = [("reduce:dist", [], 0.0, 0.0), ("broadcast:dist", [], 0.0, 0.0)]
        tracer = traced(hand_made_round(phase_records=empty))
        durations = {
            s.duration_s for s in tracer.spans if s.cat == "sync-phase"
        }
        assert durations == {1.0}


class TestRoundMetrics:
    def test_round_aggregates(self):
        metrics = MetricsRegistry()
        publish_round_metrics(metrics, hand_made_round())
        publish_round_metrics(metrics, hand_made_round())
        assert metrics.counter_total("rounds_total") == 2
        assert metrics.counter_total("comm_time_seconds_total") == 4.0
        assert metrics.counter_total("comp_time_seconds_total") == 2.0
        assert metrics.gauge("active_nodes").value == 7

    def test_message_observer_reconciles_per_host(self):
        metrics = MetricsRegistry()
        observe = message_observer(metrics, 3)
        for src, dst, nbytes in hand_made_round().traffic.messages:
            observe(src, dst, nbytes)
        assert metrics.counter_total("messages_total") == 4
        assert metrics.counter_total("bytes_sent_total") == 600
        assert metrics.counter_total("bytes_recv_total") == 600
        assert metrics.counter("bytes_sent_total", host=2).value == 300
        assert metrics.counter("bytes_recv_total", host=0).value == 400
