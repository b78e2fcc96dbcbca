"""Cross-field message aggregation: equivalence, reduction, accounting.

The channel layer must be invisible to the application: aggregated and
``--no-aggregation`` runs produce bitwise-identical results for every
app x policy x optimization level, while the aggregated wire carries a
fraction of the messages (one framed buffer per peer per phase instead
of one message per field, peer, and phase).
"""

import numpy as np
import pytest

from repro.core.optimization import OptimizationLevel
from repro.errors import TransportError
from repro.graph.generators import rmat
from repro.observability import Observability
from repro.resilience import FaultPlan, ResilienceConfig
from repro.systems import run_app
from tests.conftest import sync_one_field

EDGES = rmat(scale=8, edge_factor=6, seed=13)

RESULT_KEY = {
    "bfs": "dist",
    "sssp": "dist",
    "cc": "label",
    "pr": "rank",
    "pr-push": "rank",
    "kcore": "alive",
    "bc": "delta",
}


def answer(result, app):
    executor = result.executor
    return executor.app.gather_master_values(
        executor.partitioned.partitions, executor.states, RESULT_KEY[app]
    )


def run_pair(app, policy="cvc", level=None, num_hosts=4):
    kwargs = dict(num_hosts=num_hosts, policy=policy, level=level)
    aggregated = run_app("d-galois", app, EDGES, **kwargs)
    ablated = run_app(
        "d-galois", app, EDGES, aggregate_comm=False, **kwargs
    )
    return aggregated, ablated


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("app", sorted(RESULT_KEY))
    @pytest.mark.parametrize("policy", ["oec", "cvc"])
    @pytest.mark.parametrize(
        "level", [OptimizationLevel.UNOPT, OptimizationLevel.OSTI]
    )
    def test_apps_identical_across_policies_and_levels(
        self, app, policy, level
    ):
        aggregated, ablated = run_pair(app, policy=policy, level=level)
        # Bitwise: no rounding — the channel layer must not perturb a
        # single bit of any app's answer.
        assert np.array_equal(answer(aggregated, app), answer(ablated, app))
        assert aggregated.num_rounds == ablated.num_rounds
        assert aggregated.converged and ablated.converged

    @pytest.mark.parametrize(
        "policy", ["oec", "iec", "cvc", "hvc", "jagged"]
    )
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_full_policy_level_grid_on_sssp(self, policy, level):
        aggregated, ablated = run_pair("sssp", policy=policy, level=level)
        assert np.array_equal(
            answer(aggregated, "sssp"), answer(ablated, "sssp")
        )

    def test_byte_payloads_identical_modulo_framing(self):
        """Per-round sub-message bytes differ only by the frame headers."""
        aggregated, ablated = run_pair("bfs")
        assert len(aggregated.rounds) == len(ablated.rounds)
        for agg_round, abl_round in zip(aggregated.rounds, ablated.rounds):
            # Aggregation never sends more messages, and each aggregated
            # message costs exactly one frame header over its payloads.
            assert agg_round.comm_messages <= abl_round.comm_messages


class TestMessageReduction:
    def test_two_field_sweep_halves_messages(self):
        """bc's forward sweep syncs 2 fields: exactly half the messages.

        The backward sweep syncs a single field, so its rounds keep
        message parity; every round must land on one of the two exact
        ratios, and the two-field rounds must exist.
        """
        aggregated, ablated = run_pair("bc")
        assert len(aggregated.rounds) == len(ablated.rounds)
        two_field_pairs = []
        for agg_round, abl_round in zip(aggregated.rounds, ablated.rounds):
            if abl_round.comm_messages == agg_round.comm_messages:
                continue  # single-field (backward) round: parity
            assert abl_round.comm_messages == 2 * agg_round.comm_messages
            two_field_pairs.append((agg_round, abl_round))
        assert two_field_pairs, "bc never hit a two-field round"
        agg_messages = sum(a.comm_messages for a, _ in two_field_pairs)
        abl_messages = sum(b.comm_messages for _, b in two_field_pairs)
        assert agg_messages > 0
        assert abl_messages / agg_messages >= 2.0
        # Fewer messages means less per-message alpha cost: the
        # two-field sweep's simulated communication time must improve.
        agg_time = sum(a.comm_time for a, _ in two_field_pairs)
        abl_time = sum(b.comm_time for _, b in two_field_pairs)
        assert agg_time < abl_time

    def test_single_field_app_message_parity(self):
        """With one field there is nothing to aggregate: same count."""
        aggregated, ablated = run_pair("bfs", level=OptimizationLevel.OSTI)
        assert sum(r.comm_messages for r in aggregated.rounds) == sum(
            r.comm_messages for r in ablated.rounds
        )


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

    def test_no_aggregation_run_never_flushes_channels(self):
        obs = Observability()
        run_app(
            "d-galois", "bfs", EDGES, num_hosts=4, policy="cvc",
            observability=obs, aggregate_comm=False,
        )
        assert obs.metrics.counter_total("channel_flushes_total") == 0


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
                substrate.plane.stage(substrate.plan.peer_order[0], 0, b"\x00\x01")

        with pytest.raises(TransportError, match="un-flushed channel"):
            sync_one_field(
                executor.partitioned, executor.substrates,
                [fields[0] for fields in executor.fields],
                [np.zeros(part.num_nodes, dtype=bool) for part in parts],
                end_phase=stage_after_last_flush,
            )
