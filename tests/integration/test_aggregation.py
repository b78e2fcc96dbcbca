"""Cross-field message aggregation: reduction, accounting, drain guard.

One framed buffer per peer per phase replaces one message per field,
peer, and phase; the per-field wire it replaces is derived from a traced
aggregated run (:func:`repro.analysis.experiments.per_field_rounds`,
pinned by ``test_per_field_ablation.py``).
"""

import numpy as np
import pytest

from repro.analysis.experiments import per_field_rounds
from repro.core.optimization import OptimizationLevel
from repro.errors import TransportError
from repro.graph.generators import rmat
from repro.observability import Observability
from repro.observability.metrics import NULL_METRICS
from repro.resilience import FaultPlan, ResilienceConfig
from repro.systems import run_app
from tests.conftest import sync_one_field

EDGES = rmat(scale=8, edge_factor=6, seed=13)


def run_pair(app, policy="cvc", level=None, num_hosts=4):
    """An aggregated run's rounds beside the per-field wire derived from it:
    ``(messages, comm_time)`` per round, each."""
    result = run_app(
        "d-galois", app, EDGES, num_hosts=num_hosts, policy=policy, level=level,
        observability=Observability(metrics=NULL_METRICS),
    )
    aggregated = [(r.comm_messages, r.comm_time) for r in result.rounds]
    per_field = [
        (traffic.num_messages, comm_time)
        for traffic, comm_time in per_field_rounds(result)
    ]
    return aggregated, per_field


class TestMessageReduction:
    def test_two_field_sweep_halves_messages(self):
        """bc's forward sweep syncs 2 fields: exactly half the messages.

        The backward sweep syncs a single field, so its rounds keep
        message parity; every round must land on one of the two exact
        ratios, and the two-field rounds must exist.
        """
        aggregated, per_field = run_pair("bc")
        assert len(aggregated) == len(per_field)
        two_field_pairs = []
        for agg_round, field_round in zip(aggregated, per_field):
            if field_round[0] == agg_round[0]:
                continue  # single-field (backward) round: parity
            assert field_round[0] == 2 * agg_round[0]
            two_field_pairs.append((agg_round, field_round))
        assert two_field_pairs, "bc never hit a two-field round"
        agg_messages = sum(a[0] for a, _ in two_field_pairs)
        field_messages = sum(b[0] for _, b in two_field_pairs)
        assert agg_messages > 0
        assert field_messages / agg_messages >= 2.0
        # Fewer messages means less per-message alpha cost: the
        # two-field sweep's simulated communication time must improve.
        agg_time = sum(a[1] for a, _ in two_field_pairs)
        field_time = sum(b[1] for _, b in two_field_pairs)
        assert agg_time < field_time

    def test_single_field_app_message_parity(self):
        """With one field there is nothing to aggregate: same count."""
        aggregated, per_field = run_pair("bfs", level=OptimizationLevel.OSTI)
        assert [r[0] for r in aggregated] == [r[0] for r in per_field]


class TestAccounting:
    def test_metrics_reconcile_with_transport_exactly(self):
        """Published byte counters == transport stats, framing included."""
        obs = Observability()
        result = run_app(
            "d-galois", "sssp", EDGES, num_hosts=4, policy="cvc",
            observability=obs,
        )
        transport = result.executor.transport
        assert (
            obs.metrics.counter_total("bytes_sent_total")
            == transport.stats.total_bytes
        )
        assert (
            obs.metrics.counter_total("bytes_recv_total")
            == transport.stats.total_bytes
        )
        assert obs.metrics.counter_total("channel_flushes_total") > 0
        histogram = obs.metrics.histogram("channel_fields_per_flush")
        assert histogram.count == obs.metrics.counter_total(
            "channel_flushes_total"
        )

    def test_metrics_reconcile_under_faults(self):
        """Retransmissions and CRC framing stay inside the == invariant."""
        obs = Observability()
        plan = FaultPlan.parse("drop:0.05,dup:0.05,corrupt:0.02", seed=5)
        result = run_app(
            "d-galois", "bfs", EDGES, num_hosts=4, policy="cvc",
            observability=obs,
            resilience=ResilienceConfig(plan=plan),
        )
        transport = result.executor.transport
        assert (
            obs.metrics.counter_total("bytes_sent_total")
            == transport.stats.total_bytes
        )


class TestDrainGuard:
    def test_round_close_detects_unflushed_channel(self):
        """A sub-message staged past its phase flush fails the round."""
        result = run_app("d-galois", "bfs", EDGES, num_hosts=4, policy="cvc")
        executor = result.executor
        parts = executor.partitioned.partitions
        substrate = executor.substrates[0]
        flushes = []

        def stage_after_last_flush(host):
            # end_phase follows each host's flush, once per phase: the
            # round's final call is past every flush of both phases.
            flushes.append(host)
            if len(flushes) == 2 * len(parts):
                substrate.plane.stage_all(0, substrate.plan.peer_order[:1], [b"\x00\x01"])

        with pytest.raises(TransportError, match="un-flushed channel"):
            sync_one_field(
                executor.partitioned, executor.substrates,
                [fields[0] for fields in executor.fields],
                [np.zeros(part.num_nodes, dtype=bool) for part in parts],
                end_phase=stage_after_last_flush,
            )
