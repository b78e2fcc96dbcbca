"""StreamingSession lifecycle, mirroring, host turnover, observability."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.graph.edgelist import EdgeList
from repro.observability import Observability
from repro.observability.metrics import MetricsRegistry
from repro.service.cache import ServiceCache
from repro.streaming.batch import MutationBatch, random_mutation_batch
from repro.streaming.session import StreamingSession, mirror_batch


def small_graph(seed=2, n=40, m=180):
    rng = np.random.default_rng(seed)
    return EdgeList(
        n,
        rng.integers(0, n, size=m, dtype=np.uint32),
        rng.integers(0, n, size=m, dtype=np.uint32),
    )


def one_edge_delete(session):
    edges = session.version.edges
    return MutationBatch(
        delete_src=edges.src[:1], delete_dst=edges.dst[:1]
    )


class TestMirrorBatch:
    def test_adds_reverse_twins(self):
        batch = MutationBatch(
            insert_src=[1], insert_dst=[2],
            delete_src=[3], delete_dst=[4],
        )
        mirrored = mirror_batch(batch)
        inserted = set(
            zip(mirrored.insert_src.tolist(), mirrored.insert_dst.tolist())
        )
        deleted = set(
            zip(mirrored.delete_src.tolist(), mirrored.delete_dst.tolist())
        )
        assert inserted == {(1, 2), (2, 1)}
        assert deleted == {(3, 4), (4, 3)}

    def test_idempotent(self):
        batch = MutationBatch(
            insert_src=[1, 2], insert_dst=[2, 1],
            delete_src=[3], delete_dst=[4],
        )
        once = mirror_batch(batch)
        twice = mirror_batch(once)
        assert once.batch_hash() == twice.batch_hash()

    def test_self_loops_not_duplicated(self):
        mirrored = mirror_batch(
            MutationBatch(insert_src=[5], insert_dst=[5])
        )
        assert mirrored.num_inserts == 1

    def test_weights_mirror_with_edges(self):
        mirrored = mirror_batch(
            MutationBatch(
                insert_src=[1], insert_dst=[2], insert_weight=[7]
            )
        )
        assert mirrored.insert_weight.tolist() == [7, 7]


class TestLifecycle:
    def test_apply_before_run_rejected(self):
        session = StreamingSession(
            "d-galois", "bfs", small_graph(), num_hosts=2
        )
        with pytest.raises(ExecutionError, match="run\\(\\) the base"):
            session.apply_batch(MutationBatch())

    def test_run_twice_rejected(self):
        session = StreamingSession(
            "d-galois", "bfs", small_graph(), num_hosts=2
        )
        session.run()
        with pytest.raises(ExecutionError, match="already ran"):
            session.run()

    def test_staged_app_replays_each_version(self):
        """bc streams: every batch replays both stages from scratch, and
        the result equals a cold run of the new version bitwise."""
        session = StreamingSession("d-galois", "bc", small_graph(), num_hosts=2)
        session.run()
        step = session.apply_batch(one_edge_delete(session))
        assert step.strategy == "replay"
        assert step.result.converged
        cold = session.cold_values(session.cold_run())
        for key, values in session.values().items():
            np.testing.assert_array_equal(values, cold[key], err_msg=key)

    def test_symmetrized_app_mirrors_batches(self):
        session = StreamingSession(
            "d-galois", "cc", small_graph(), num_hosts=2
        )
        session.run()
        n = session.version.edges.num_nodes
        # A one-direction insert between two brand-new vertices...
        batch = MutationBatch(add_nodes=2, insert_src=[n], insert_dst=[n + 1])
        step = session.apply_batch(batch)
        # ...lands as both directions in the symmetric graph.
        assert step.inserted_edges == 2
        pairs = set(
            zip(
                session.version.edges.src.tolist(),
                session.version.edges.dst.tolist(),
            )
        )
        assert (n, n + 1) in pairs
        assert (n + 1, n) in pairs

    def test_replay_applies_in_order(self):
        session = StreamingSession(
            "d-galois", "bfs", small_graph(), num_hosts=2
        )
        session.run()
        rng = np.random.default_rng(4)
        batches = [
            random_mutation_batch(
                session.version.edges, rng,
                delete_fraction=0.02, insert_fraction=0.0,
            )
        ]
        # The second batch must validate against version 1's edges, so
        # build it after peeking at the first application.
        steps = session.replay(batches)
        assert [s.version for s in steps] == [1]
        assert session.version.version == 1
        assert len(session.results) == 2  # cold run + one step

    def test_a_session_holding_only_the_executor_still_mutates(self):
        """The executor holds no result: once the session holds a copy
        without it, the result object is freed, and ``apply_mutations``
        still resumes from the executor alone."""
        session = StreamingSession("d-galois", "bfs", small_graph(), num_hosts=2)
        gc.collect()
        gc.disable()
        try:
            base = session.run()
            freed = weakref.ref(base)
            session.results[0] = dataclasses.replace(base)  # no ``executor``
            del base
            assert freed() is None
            step = session.apply_batch(one_edge_delete(session))
        finally:
            gc.enable()
        assert step.result.executor is session.executor
        cold = session.cold_values(session.cold_run())
        for key, values in session.values().items():
            assert np.array_equal(values, cold[key])

    def test_step_hash_chain_matches_version(self):
        session = StreamingSession(
            "d-galois", "bfs", small_graph(), num_hosts=2
        )
        session.run()
        step = session.apply_batch(one_edge_delete(session))
        assert step.content_hash == session.version.content_hash
        assert step.version == 1
        assert step.to_dict()["rounds"] == step.result.num_rounds


class TestHostTurnover:
    def test_reused_plus_rebuilt_reconcile_with_hosts(self):
        cache = ServiceCache(metrics=MetricsRegistry())
        session = StreamingSession(
            "d-galois", "bfs", small_graph(), num_hosts=4,
            policy="oec", cache=cache,
        )
        session.run()
        before = list(session.partitioned.partitions)
        step = session.apply_batch(one_edge_delete(session))
        assert step.hosts_reused + step.hosts_rebuilt == 4
        assert step.hosts_reused > 0
        # A reused host keeps its partition *object*; nothing is pickled.
        kept = [
            new is old
            for new, old in zip(session.partitioned.partitions, before)
        ]
        assert sum(kept) == step.hosts_reused
        # Only version 0 goes through the cache (whole-partition level).
        assert cache.stats()["partition"]["entries"] == 1

    def test_base_version_from_cache_streams_identically(self):
        """A second session warm-starts version 0 (partition + address
        books) from the shared cache; its memoization patch starts from
        those books and must cost and answer exactly the same."""
        cache = ServiceCache(metrics=MetricsRegistry())
        rows = []
        for _ in range(2):
            session = StreamingSession(
                "d-galois", "bfs", small_graph(), num_hosts=4,
                policy="oec", cache=cache,
            )
            base = session.run()
            step = session.apply_batch(one_edge_delete(session))
            rows.append((
                base.partition_cache_hit, step.hosts_reused,
                step.hosts_rebuilt, step.result.construction_bytes,
                step.result.communication_volume, step.result.num_rounds,
                session.values()["dist"].tobytes(),
            ))
        assert [row[0] for row in rows] == [False, True]
        assert rows[0][1:] == rows[1][1:]


class TestObservability:
    def test_streaming_spans_and_counters_recorded(self):
        obs = Observability()
        session = StreamingSession(
            "d-galois", "bfs", small_graph(), num_hosts=4,
            policy="oec", observability=obs,
        )
        session.run()
        step = session.apply_batch(one_edge_delete(session))
        assert obs.tracer.spans_named("delta-partition")
        assert obs.tracer.spans_named("affected-frontier")
        assert obs.tracer.spans_named("apply-mutations")
        delta_span = obs.tracer.spans_named("delta-partition")[0]
        assert delta_span.cat == "streaming"
        assert delta_span.tags["reused"] == step.hosts_reused
        assert delta_span.tags["rebuilt"] == step.hosts_rebuilt
        assert obs.metrics.counter_total("streaming_mutations_total") == 1
        assert obs.metrics.counter_total("streaming_resumes_total") == 1
        assert (
            obs.metrics.counter_total("streaming_partitions_reused_total")
            == step.hosts_reused
        )
        assert (
            obs.metrics.counter_total("streaming_partitions_rebuilt_total")
            == step.hosts_rebuilt
        )
        assert (
            obs.metrics.counter_total("streaming_affected_vertices_total")
            == step.affected_count
        )

    def test_driver_spans_are_monotone(self):
        """One simulated cursor: streaming steps follow the rounds before
        them and precede the rounds after them, in order."""
        obs = Observability()
        session = StreamingSession(
            "d-galois", "bfs", small_graph(), num_hosts=4,
            policy="oec", observability=obs,
        )
        session.run()
        marker = len(obs.tracer.spans)
        last_round_end = max(
            span.end_s for span in obs.tracer.spans_named("round")
        )
        session.apply_batch(one_edge_delete(session))
        tracer = obs.tracer
        (delta,) = tracer.spans_named("delta-partition")
        (plan,) = tracer.spans_named("affected-frontier")
        (apply,) = tracer.spans_named("apply-mutations")
        next_round_begin = min(
            span.begin_s
            for span in tracer.spans[marker:]
            if span.name == "round"
        )
        assert delta.begin_s >= last_round_end
        assert delta.end_s <= plan.begin_s
        assert plan.end_s <= apply.begin_s
        assert apply.end_s <= next_round_begin
        assert tracer.cursor == pytest.approx(
            max(span.end_s for span in tracer.spans)
        )
