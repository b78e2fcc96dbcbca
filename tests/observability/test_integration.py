"""Observability wired through the runtime: reconciliation, no-op path,
resilience spans, and executor timeline invariants."""

import pytest

from repro import generators, run_app
from repro.observability import NULL_OBSERVABILITY, Observability, Span
from repro.observability.metrics import Counter, Gauge, Histogram
from repro.resilience import FaultPlan, ResilienceConfig


def small_edges(seed=0):
    return generators.rmat(scale=8, edge_factor=8, seed=seed)


class TestMetricsReconciliation:
    @pytest.fixture(scope="class")
    def observed_bfs(self):
        obs = Observability()
        result = run_app(
            "d-galois", "bfs", small_edges(), num_hosts=4, policy="cvc",
            observability=obs,
        )
        return result, obs

    def test_byte_counters_reconcile_exactly_with_commstats(self, observed_bfs):
        result, obs = observed_bfs
        stats = result.executor.transport.stats
        assert obs.metrics.counter_total("bytes_sent_total") == stats.total_bytes
        assert obs.metrics.counter_total("bytes_recv_total") == stats.total_bytes
        assert obs.metrics.counter_total("messages_total") == stats.total_messages
        assert obs.metrics.histogram("message_size_bytes").total == (
            stats.total_bytes
        )

    def test_byte_counters_reconcile_with_run_result(self, observed_bfs):
        result, obs = observed_bfs
        assert obs.metrics.counter_total("bytes_sent_total") == (
            result.communication_volume + result.construction_bytes
        )
        assert obs.metrics.counter("construction_bytes_total").value == (
            result.construction_bytes
        )

    def test_per_host_send_counters_match_pair_bytes(self, observed_bfs):
        result, obs = observed_bfs
        stats = result.executor.transport.stats
        for h in range(4):
            expected = sum(stats.pair_bytes(h, d) for d in range(4))
            assert obs.metrics.counter("bytes_sent_total", host=h).value == (
                expected
            )

    def test_round_and_mode_metrics_match_result(self, observed_bfs):
        result, obs = observed_bfs
        assert obs.metrics.counter("rounds_total").value == result.num_rounds
        assert obs.metrics.histogram("round_bytes").total == (
            result.communication_volume
        )
        mode_counts = {
            mode.name: count for mode, count in result.mode_counts.items()
        }
        for name, count in mode_counts.items():
            assert obs.metrics.counter(
                "metadata_mode_total", mode=name
            ).value == count

    def test_metrics_snapshot_attached_to_result(self, observed_bfs):
        result, obs = observed_bfs
        assert result.metrics == obs.metrics.to_dict()
        assert result.metrics["counters"]["rounds_total"] == result.num_rounds


class TestNoOpPath:
    def test_default_executor_holds_the_null_singletons(self):
        result = run_app(
            "d-galois", "bfs", small_edges(), num_hosts=2, policy="oec"
        )
        executor = result.executor
        assert executor.obs is NULL_OBSERVABILITY
        assert executor.tracer.enabled is False
        assert executor.metrics.enabled is False
        assert executor.tracer.spans == ()
        assert executor.metrics.instruments() == []
        assert result.metrics == {}

    def test_untraced_run_allocates_no_spans_or_samples(self, monkeypatch):
        def forbid(cls):
            def boom(self, *args, **kwargs):
                raise AssertionError(
                    f"{cls.__name__} allocated during an untraced run"
                )

            return boom

        for cls in (Span, Counter, Gauge, Histogram):
            monkeypatch.setattr(cls, "__init__", forbid(cls))
        result = run_app(
            "d-galois", "bfs", small_edges(1), num_hosts=2, policy="oec"
        )
        assert result.converged

    def test_untraced_results_match_traced_results(self):
        plain = run_app(
            "d-galois", "sssp", small_edges(2), num_hosts=4, policy="iec"
        )
        traced = run_app(
            "d-galois", "sssp", small_edges(2), num_hosts=4, policy="iec",
            observability=Observability(),
        )
        assert plain.num_rounds == traced.num_rounds
        assert plain.communication_volume == traced.communication_volume
        assert plain.total_time == traced.total_time


class TestExecutorTimeline:
    @pytest.fixture(scope="class")
    def traced(self):
        obs = Observability()
        result = run_app(
            "d-galois", "bfs", small_edges(4), num_hosts=3, policy="cvc",
            observability=obs,
        )
        return result, obs.tracer

    @pytest.fixture(scope="class")
    def tracer(self, traced):
        return traced[1]

    def test_construction_precedes_rounds(self, tracer):
        partition = tracer.spans_named("partition")[0]
        memoization = tracer.spans_named("memoization")[0]
        first_round = tracer.spans_named("round")[0]
        assert partition.end_s <= memoization.begin_s + 1e-12
        assert memoization.end_s <= first_round.begin_s + 1e-12

    def test_rounds_advance_monotonically(self, tracer):
        rounds = tracer.spans_for_host(0)
        round_spans = [s for s in rounds if s.name == "round"]
        for earlier, later in zip(round_spans, round_spans[1:]):
            assert earlier.tags["round"] + 1 == later.tags["round"]
            assert later.begin_s >= earlier.end_s - 1e-12

    def test_compute_and_sync_nest_inside_round(self, tracer):
        for round_span in tracer.spans_named("round"):
            children = tracer.children_of(round_span)
            names = {c.name for c in children}
            assert "compute" in names and "sync" in names

    def test_sync_span_bytes_sum_to_round_bytes(self, traced):
        result, tracer = traced
        by_round = {}
        for span in tracer.spans_named("sync"):
            by_round.setdefault(span.tags["round"], 0)
            by_round[span.tags["round"]] += span.tags["bytes_sent"]
        assert by_round == {
            record.round_index: record.comm_bytes
            for record in result.rounds
        }


class TestResilienceObservability:
    def test_crash_recovery_emits_resilience_spans_and_metrics(self):
        obs = Observability()
        plan = FaultPlan.parse("crash:1@2", seed=0)
        result = run_app(
            "d-galois", "bfs", small_edges(5), num_hosts=4, policy="oec",
            resilience=ResilienceConfig(plan=plan, checkpoint_every=1),
            observability=obs,
        )
        assert result.num_recoveries == 1
        recovery_spans = obs.metrics  # registry
        assert recovery_spans.counter("recoveries_total").value == 1
        assert recovery_spans.counter("recovery_bytes_total").value == (
            result.recovery_events[0]["recovery_bytes"]
        )
        assert recovery_spans.counter("checkpoints_total").value == (
            result.num_checkpoints
        )
        spans = obs.tracer.spans_named("recovery")
        assert len(spans) == 1
        assert spans[0].cat == "resilience"
        assert spans[0].tags["hosts"] == [1]
        checkpoint_spans = obs.tracer.spans_named("checkpoint")
        assert len(checkpoint_spans) == result.num_checkpoints

    def test_fault_gauges_survive_rebinds(self):
        """A crash rebinds the fabric; the gauges count the whole run's
        faults, not the post-recovery fabric's."""
        obs = Observability()
        plan = FaultPlan.parse("crash:1@3,drop:0.05,dup:0.05", seed=0)
        result = run_app(
            "d-galois", "bfs", generators.rmat(9, 8, 3), num_hosts=4, policy="cvc",
            resilience=ResilienceConfig(plan=plan, checkpoint_every=2),
            observability=obs,
        )
        assert result.num_recoveries == 1
        charged = result.recovery_bytes - sum(
            event["recovery_bytes"] for event in result.recovery_events
        )
        assert charged > 0
        assert result.metrics["gauges"]["fault_bytes"] == charged
        faults = result.executor.fault_stats
        assert result.metrics["gauges"]["faults_injected"] == faults.total_injected > 0

    def test_process_fault_counters_reach_the_coordinator(self):
        """The process runtime's workers count faults on their own fabrics
        and ship the counters back at stop.  A sender counts each
        ``corrupted`` / ``duplicated`` and its receiver, often on another
        worker, the matching rejection — so a counter lost on the way back
        breaks an equality."""
        plan = FaultPlan.parse("drop:0.05,dup:0.05,corrupt:0.05", seed=0)

        def run(**runtime):
            return run_app(
                "d-galois", "pr", generators.rmat(9, 8, 3), num_hosts=4, policy="cvc",
                resilience=ResilienceConfig(plan=plan), observability=Observability(),
                **runtime,
            )

        result, simulated = run(runtime="process", workers=2), run()
        assert result.metrics["gauges"]["fault_bytes"] == result.recovery_bytes
        faults = result.executor.fault_stats
        assert faults.checksum_failures == faults.corrupted > 0
        assert faults.duplicates_discarded == faults.duplicated > 0
        assert faults.framing_bytes == simulated.executor.fault_stats.framing_bytes


class TestStagedProgram:
    def test_staged_app_runs_observed_and_traces_its_stage_switch(self):
        """bc's two stages run in one executor: one memoization exchange,
        one ``stage`` span, and the same run as an unobserved one."""
        obs = Observability()
        edges = small_edges(6)
        result = run_app(
            "d-galois", "bc", edges, num_hosts=2, policy="oec", observability=obs,
        )
        plain = run_app("d-galois", "bc", edges, num_hosts=2, policy="oec")
        assert result.summary() == plain.summary()
        assert len(obs.tracer.spans_named("memoization")) == 1
        (switch,) = obs.tracer.spans_named("stage")
        assert switch.cat == "construction" and switch.tags["stage"] == 1
        assert switch.tags["level"] > 0
        assert obs.metrics.counter("rounds_total").value == result.num_rounds
