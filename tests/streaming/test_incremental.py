"""Incremental recomputation: plan strategies, and bitwise identity.

The headline acceptance property: streaming incremental re-execution
must be bitwise identical to a cold full recompute for every certified
spec (and, by replay, for every other app), across partition policies.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import apps
from repro.apps import make_app
from repro.apps.base import AppContext
from repro.compiler import FieldDecl, PhaseSpec, ProgramSpec, SyncDecl
from repro.compiler.program_codegen import compile_program
from repro.graph.edgelist import EdgeList
from repro.partition import make_partitioner
from repro.streaming.batch import MutationBatch, random_mutation_batch
from repro.streaming.incremental import plan_incremental
from repro.streaming.session import StreamingSession

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_algorithm.py"


def assert_matches_cold(session):
    """The session's values equal a cold recompute of its version."""
    warm = session.values()
    cold = session.cold_values(session.cold_run())
    assert set(warm) == set(cold)
    for key in cold:
        assert warm[key].tobytes() == cold[key].tobytes(), key


def zero_weight_base(seed, n=40, m=160):
    """A weighted graph where about a third of the weights are zero."""
    rng = np.random.default_rng(seed)
    return EdgeList(
        n,
        rng.integers(0, n, size=m, dtype=np.uint32),
        rng.integers(0, n, size=m, dtype=np.uint32),
        rng.integers(0, 3, size=m, dtype=np.uint32),
    )


def zero_weight_batch(session, rng):
    """A mixed batch whose inserted edges weigh 0, 1 or 2."""
    batch = random_mutation_batch(
        session.version.edges, rng, delete_fraction=0.05,
        insert_fraction=0.05, add_nodes=1,
    )
    return dataclasses.replace(
        batch,
        insert_weight=rng.integers(0, 3, size=batch.num_inserts, dtype=np.uint32),
    )


def plan_for(app_name, edges, batch, old_values, source=0):
    """The plan ``app_name`` gets for ``batch`` over a one-host layout."""
    new_edges, effect = batch.apply(edges)
    partitioned = make_partitioner("oec").partition(new_edges, 1)
    ctx = AppContext(num_global_nodes=new_edges.num_nodes, source=source)
    return plan_incremental(
        make_app(app_name), edges, new_edges, effect, old_values,
        partitioned, ctx,
    )


class TestPlanStrategies:
    def _path(self):
        # 0 -> 1 -> 2 -> 3, unweighted.
        return EdgeList(
            4,
            np.array([0, 1, 2], dtype=np.uint32),
            np.array([1, 2, 3], dtype=np.uint32),
        )

    _DIST = {"dist": np.array([0, 1, 2, 3], dtype=np.uint32)}

    def test_bfs_delete_resets_downstream_dag(self):
        batch = MutationBatch(delete_src=[1], delete_dst=[2])
        plan = plan_for("bfs", self._path(), batch, self._DIST)
        assert plan.strategy == "certified"
        assert not plan.full_restart
        # 2 lost its support edge; 3's support came from 2.
        assert plan.affected.tolist() == [False, False, True, True]
        # Nothing finite borders the torn-off suffix: empty frontier.
        assert plan.frontier_count == 0

    def test_bfs_insert_only_pushes_from_inserted_sources(self):
        batch = MutationBatch(insert_src=[0], insert_dst=[3])
        plan = plan_for("bfs", self._path(), batch, self._DIST)
        assert plan.strategy == "certified"
        assert plan.affected_count == 0
        assert plan.frontier.tolist() == [True, False, False, False]

    def test_source_never_affected(self):
        batch = MutationBatch(delete_src=[0], delete_dst=[1])
        plan = plan_for("bfs", self._path(), batch, self._DIST)
        assert not plan.affected[0]
        assert plan.affected.tolist() == [False, True, True, True]

    def test_zero_weight_plans_certified(self):
        edges = EdgeList(
            3,
            np.array([0, 1], dtype=np.uint32),
            np.array([1, 2], dtype=np.uint32),
            np.array([0, 1], dtype=np.uint32),  # a zero weight
        )
        batch = MutationBatch(delete_src=[1], delete_dst=[2])
        plan = plan_for(
            "sssp", edges, batch, {"dist": np.array([0, 0, 1], dtype=np.uint32)}
        )
        assert plan.strategy == "certified"
        assert plan.affected.tolist() == [False, False, True]
        session = StreamingSession(
            "d-galois", "sssp", zero_weight_base(3), num_hosts=3, policy="cvc"
        )
        session.run()
        rng = np.random.default_rng(3)
        for _ in range(2):
            step = session.apply_batch(zero_weight_batch(session, rng))
            assert step.strategy == "certified"
            assert_matches_cold(session)

    def test_cc_delete_tears_component_but_its_seed(self):
        # Two symmetric components: {0,1,2} and {3,4}.
        edges = EdgeList(
            5,
            np.array([0, 1, 1, 2, 3, 4], dtype=np.uint32),
            np.array([1, 0, 2, 1, 4, 3], dtype=np.uint32),
        )
        batch = MutationBatch(delete_src=[1, 2], delete_dst=[2, 1])
        plan = plan_for(
            "cc", edges, batch,
            {"label": np.array([0, 0, 0, 3, 3], dtype=np.uint32)},
        )
        assert plan.strategy == "certified"
        # The torn edge's ends reset; 0 holds its own gid (its seed) and
        # is never torn, and {3,4} is untouched.
        assert plan.affected.tolist() == [False, True, True, False, False]
        # 0 borders the tear and re-pushes its label; the torn push theirs.
        assert plan.frontier.tolist() == [True, True, True, False, False]

    def test_cc_insert_only_merges_without_reset(self):
        edges = EdgeList(
            4,
            np.array([0, 1, 2, 3], dtype=np.uint32),
            np.array([1, 0, 3, 2], dtype=np.uint32),
        )
        batch = MutationBatch(
            insert_src=[1, 2], insert_dst=[2, 1]
        )
        plan = plan_for(
            "cc", edges, batch,
            {"label": np.array([0, 0, 2, 2], dtype=np.uint32)},
        )
        assert plan.affected_count == 0
        # Inserted endpoints push so the smaller label can flow.
        assert plan.frontier[1] and plan.frontier[2]

    def test_pagerank_always_replays(self):
        batch = MutationBatch(insert_src=[3], insert_dst=[0])
        plan = plan_for("pagerank", self._path(), batch, {})
        assert plan.strategy == "replay"
        assert plan.full_restart
        assert plan.affected_fraction(4) == 1.0

    def test_new_vertices_start_cold(self):
        batch = MutationBatch(add_nodes=1, insert_src=[3], insert_dst=[4])
        plan = plan_for("bfs", self._path(), batch, self._DIST)
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
    assert_matches_cold(session)


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
        """bfs deletions plan certified; the step records strategy + counts."""
        session = StreamingSession(
            "d-galois", "bfs", _random_base(41), num_hosts=4, policy="oec"
        )
        session.run()
        edges = session.version.edges
        batch = MutationBatch(
            delete_src=edges.src[:1], delete_dst=edges.dst[:1]
        )
        step = session.apply_batch(batch)
        assert step.strategy == "certified"
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


@pytest.fixture
def widest_path(monkeypatch):
    """``WIDEST_PATH_SPEC`` from the example, registered as an app."""
    loader = importlib.util.spec_from_file_location("custom_algorithm", EXAMPLE)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    cls = type(compile_program(module.WIDEST_PATH_SPEC))
    monkeypatch.setitem(apps.APP_BY_NAME, "widest-path", cls)
    return "widest-path"


@pytest.mark.parametrize("policy", ["oec", "iec", "cvc", "hvc", "jagged", "random"])
def test_certified_spec_without_an_app_entry_streams(widest_path, policy):
    """No planner names widest path: its certificate alone makes it
    stream incrementally, bitwise equal to a cold run."""
    session = StreamingSession(
        "d-galois", widest_path, _random_base(11), num_hosts=4, policy=policy
    )
    session.run()
    rng = np.random.default_rng(13)
    for _ in range(2):
        step = session.apply_batch(
            random_mutation_batch(
                session.version.edges, rng, delete_fraction=0.05,
                insert_fraction=0.05, add_nodes=1, delete_node_count=1,
            )
        )
        assert step.strategy == "certified"
        assert_matches_cold(session)


#: Each push halves its source's value: a certified spec whose kernel
#: improves on its input, so a cycle's converged support need not lead
#: back to any root.
HALVING_SPEC = ProgramSpec(
    name="halving",
    fields=(
        FieldDecl(
            "x", np.float64, reduce="min", init="np.full(n, np.inf)",
            source_value="1.0",
        ),
    ),
    phases=(
        PhaseSpec(
            "halve", kind="frontier_push", target="x",
            kernel="{src.x} * 0.5", guard="{x} < np.inf",
        ),
    ),
    sync=(SyncDecl(field="x"),),
    frontier="source",
)


def test_ungrounded_support_is_torn(monkeypatch):
    """0 -> 1 <-> 2 converges to x = [1, 0, 0]; 1 and 2 support each
    other, and no kept support edge reaches them from the source.
    Deleting 0 -> 1 deletes no support edge, yet both must reset."""
    monkeypatch.setitem(
        apps.APP_BY_NAME, "halving", type(compile_program(HALVING_SPEC))
    )
    edges = EdgeList(
        3,
        np.array([0, 1, 2], dtype=np.uint32),
        np.array([1, 2, 1], dtype=np.uint32),
    )
    plan = plan_for(
        "halving", edges, MutationBatch(delete_src=[0], delete_dst=[1]),
        {"x": np.array([1.0, 0.0, 0.0])},
    )
    assert plan.strategy == "certified"
    assert plan.affected.tolist() == [False, True, True]
    session = StreamingSession(
        "d-galois", "halving", edges, num_hosts=2, policy="oec", source=0
    )
    session.run()
    assert session.values()["x"].tolist() == [1.0, 0.0, 0.0]
    session.apply_batch(MutationBatch(delete_src=[0], delete_dst=[1]))
    assert session.values()["x"].tolist() == [1.0, np.inf, np.inf]
    assert_matches_cold(session)
