"""Incremental recomputation: plan strategies, and bitwise identity.

The headline acceptance property: streaming incremental re-execution
must be bitwise identical to a cold full recompute for bfs, cc, and
pagerank, across multiple partition policies.
"""

import numpy as np
import pytest

from repro.apps.base import AppContext
from repro.graph.edgelist import EdgeList
from repro.streaming.batch import MutationBatch, random_mutation_batch
from repro.streaming.incremental import plan_incremental
from repro.streaming.session import StreamingSession

_INF = np.iinfo(np.uint32).max


def path_effect(edges, batch):
    new_edges, effect = batch.apply(edges)
    return new_edges, effect


class TestPlanStrategies:
    def _path(self):
        # 0 -> 1 -> 2 -> 3, unweighted.
        return EdgeList(
            4,
            np.array([0, 1, 2], dtype=np.uint32),
            np.array([1, 2, 3], dtype=np.uint32),
        )

    def test_bfs_delete_resets_downstream_dag(self):
        edges = self._path()
        batch = MutationBatch(delete_src=[1], delete_dst=[2])
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "bfs",
            edges,
            new_edges,
            effect,
            {"dist": np.array([0, 1, 2, 3], dtype=np.uint32)},
            AppContext(num_global_nodes=4, source=0),
        )
        assert plan.strategy == "min-plus"
        assert not plan.full_restart
        # 2 lost its support edge; 3's support came from 2.
        assert plan.affected.tolist() == [False, False, True, True]
        # Nothing finite borders the torn-off suffix: empty frontier.
        assert plan.frontier_count == 0

    def test_bfs_insert_only_pushes_from_inserted_sources(self):
        edges = self._path()
        batch = MutationBatch(insert_src=[0], insert_dst=[3])
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "bfs",
            edges,
            new_edges,
            effect,
            {"dist": np.array([0, 1, 2, 3], dtype=np.uint32)},
            AppContext(num_global_nodes=4, source=0),
        )
        assert plan.strategy == "min-plus"
        assert plan.affected_count == 0
        assert plan.frontier.tolist() == [True, False, False, False]

    def test_source_never_affected(self):
        edges = self._path()
        batch = MutationBatch(delete_src=[0], delete_dst=[1])
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "bfs",
            edges,
            new_edges,
            effect,
            {"dist": np.array([0, 1, 2, 3], dtype=np.uint32)},
            AppContext(num_global_nodes=4, source=0),
        )
        assert not plan.affected[0]
        assert plan.affected.tolist() == [False, True, True, True]

    def test_zero_weight_falls_back_to_replay(self):
        edges = EdgeList(
            3,
            np.array([0, 1], dtype=np.uint32),
            np.array([1, 2], dtype=np.uint32),
            np.array([0, 1], dtype=np.uint32),  # zero weight: cyclic DAG risk
        )
        batch = MutationBatch(delete_src=[1], delete_dst=[2])
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "sssp",
            edges,
            new_edges,
            effect,
            {"dist": np.array([0, 0, 1], dtype=np.uint32)},
            AppContext(num_global_nodes=3, source=0),
        )
        assert plan.strategy == "replay"
        assert plan.full_restart

    def test_cc_delete_resets_whole_torn_component(self):
        # Two symmetric components: {0,1,2} and {3,4}.
        edges = EdgeList(
            5,
            np.array([0, 1, 1, 2, 3, 4], dtype=np.uint32),
            np.array([1, 0, 2, 1, 4, 3], dtype=np.uint32),
        )
        batch = MutationBatch(delete_src=[1, 2], delete_dst=[2, 1])
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "cc",
            edges,
            new_edges,
            effect,
            {"label": np.array([0, 0, 0, 3, 3], dtype=np.uint32)},
            AppContext(num_global_nodes=5),
        )
        assert plan.strategy == "component"
        # The whole component of the torn edge resets; {3,4} untouched.
        assert plan.affected.tolist() == [True, True, True, False, False]

    def test_cc_insert_only_merges_without_reset(self):
        edges = EdgeList(
            4,
            np.array([0, 1, 2, 3], dtype=np.uint32),
            np.array([1, 0, 3, 2], dtype=np.uint32),
        )
        batch = MutationBatch(
            insert_src=[1, 2], insert_dst=[2, 1]
        )
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "cc",
            edges,
            new_edges,
            effect,
            {"label": np.array([0, 0, 2, 2], dtype=np.uint32)},
            AppContext(num_global_nodes=4),
        )
        assert plan.affected_count == 0
        # Inserted endpoints push so the smaller label can flow.
        assert plan.frontier[1] and plan.frontier[2]

    def test_pagerank_always_replays(self):
        edges = self._path()
        batch = MutationBatch(insert_src=[3], insert_dst=[0])
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "pagerank", edges, new_edges, effect, {},
            AppContext(num_global_nodes=4),
        )
        assert plan.strategy == "replay"
        assert plan.full_restart
        assert plan.affected_fraction(4) == 1.0

    def test_new_vertices_start_cold(self):
        edges = self._path()
        batch = MutationBatch(add_nodes=1, insert_src=[3], insert_dst=[4])
        new_edges, effect = path_effect(edges, batch)
        plan = plan_incremental(
            "bfs",
            edges,
            new_edges,
            effect,
            {"dist": np.array([0, 1, 2, 3], dtype=np.uint32)},
            AppContext(num_global_nodes=5, source=0),
        )
        assert plan.affected[4]
        # 3 is finite and has the new edge into the affected vertex.
        assert plan.frontier[3]


def _random_base(seed, n=48, m=220):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.uint32)
    dst = rng.integers(0, n, size=m, dtype=np.uint32)
    return EdgeList(n, src, dst)


def _assert_stream_matches_cold(session, make_batch, num_batches):
    """Apply batches drawn against each successive version, then compare
    the streamed values to a cold recompute of the final version."""
    for _ in range(num_batches):
        session.apply_batch(make_batch(session.version.edges))
    warm = session.values()
    cold = session.cold_values(session.cold_run())
    assert set(warm) == set(cold)
    for key in cold:
        assert np.array_equal(warm[key], cold[key]), key


class TestBitwiseIdentity:
    """Streaming == cold recompute, the ISSUE acceptance bar."""

    @pytest.mark.parametrize(
        "app,policy",
        [
            ("bfs", "oec"),
            ("bfs", "cvc"),
            ("cc", "iec"),
            ("cc", "hvc"),
            ("pagerank", "oec"),
            ("pagerank", "jagged"),
        ],
    )
    def test_incremental_equals_cold(self, app, policy):
        session = StreamingSession(
            "d-galois", app, _random_base(5), num_hosts=4, policy=policy
        )
        session.run()
        rng = np.random.default_rng(17)

        def make_batch(edges):
            return random_mutation_batch(
                edges,
                rng,
                delete_fraction=0.01,
                insert_fraction=0.01,
                add_nodes=1,
            )

        _assert_stream_matches_cold(session, make_batch, num_batches=2)

    def test_sssp_weighted_with_node_churn(self):
        session = StreamingSession(
            "d-ligra", "sssp", _random_base(9), num_hosts=3, policy="random"
        )
        session.run()
        rng = np.random.default_rng(23)

        def make_batch(edges):
            return random_mutation_batch(
                edges,
                rng,
                delete_fraction=0.01,
                insert_fraction=0.02,
                delete_node_count=1,
                add_nodes=1,
            )

        _assert_stream_matches_cold(session, make_batch, num_batches=2)

    def test_kcore_replays_correctly(self):
        session = StreamingSession(
            "d-galois", "kcore", _random_base(31), num_hosts=2, policy="oec"
        )
        session.run()
        rng = np.random.default_rng(37)
        batch = random_mutation_batch(
            session.version.edges, rng,
            delete_fraction=0.02, insert_fraction=0.02,
        )
        step = session.apply_batch(batch)
        assert step.strategy == "replay"
        warm = session.values()
        cold = session.cold_values(session.cold_run())
        for key in cold:
            assert np.array_equal(warm[key], cold[key]), key

    def test_incremental_strategies_actually_run(self):
        """bfs deletions use min-plus; the step records strategy + counts."""
        session = StreamingSession(
            "d-galois", "bfs", _random_base(41), num_hosts=4, policy="oec"
        )
        session.run()
        edges = session.version.edges
        batch = MutationBatch(
            delete_src=edges.src[:1], delete_dst=edges.dst[:1]
        )
        step = session.apply_batch(batch)
        assert step.strategy == "min-plus"
        assert step.affected_count >= 0
        assert step.hosts_reused + step.hosts_rebuilt == 4
        assert 0.0 <= step.affected_fraction <= 1.0
        warm = session.values()
        cold = session.cold_values(session.cold_run())
        for key in cold:
            assert np.array_equal(warm[key], cold[key]), key

    @pytest.mark.parametrize(
        "app,policy", [("bfs", "oec"), ("sssp", "iec"), ("cc", "oec")]
    )
    def test_optimized_build_keeps_incremental_strategy(self, app, policy):
        """``<app>@optimized`` is the same operator: it must plan the
        strategy its bare name plans (not silently fall back to a full
        replay) and stay bitwise equal to a cold run — on the policies
        whose dead sync phase the optimized build eliminates."""
        strategies = {}
        for name in (app, app + "@optimized"):
            session = StreamingSession(
                "d-galois", name, _random_base(43), num_hosts=4,
                policy=policy,
            )
            session.run()
            rng = np.random.default_rng(47)
            batch = random_mutation_batch(
                session.version.edges, rng,
                delete_fraction=0.02, insert_fraction=0.02,
            )
            strategies[name] = session.apply_batch(batch).strategy
            warm = session.values()
            cold = session.cold_values(session.cold_run())
            for key in cold:
                assert np.array_equal(warm[key], cold[key]), (name, key)
        assert strategies[app] != "replay"
        assert strategies[app + "@optimized"] == strategies[app]
