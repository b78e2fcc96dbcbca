"""Tests for mid-run repartitioning (§4.1 footnote) and resumable runs."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import VertexProgram
from repro.apps.specs import PROGRAM_SPECS, optimized_app_names
from repro.engines import make_engine
from repro.errors import ExecutionError
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.runtime.migration import (
    gather_global,
    migratable_keys,
    migrate_states,
)
from repro.systems import prepare_input
from tests.conftest import reference_bfs, reference_pagerank, reference_sssp


def build(edges, app_name, policy, num_hosts=4, engine="galois"):
    prep = prepare_input(app_name, edges)
    partitioned = make_partitioner(policy).partition(prep.edges, num_hosts)
    executor = DistributedExecutor(
        partitioned, make_engine(engine), make_app(app_name), prep.ctx
    )
    return prep, executor


class TestResume:
    def test_run_resumes_after_round_cap(self, small_rmat):
        prep, executor = build(small_rmat, "bfs", "cvc")
        partial = executor.run(max_rounds=1)
        assert not partial.converged
        final = executor.run(resume=partial)
        assert final is partial  # same accumulated result object
        assert final.converged
        got = executor.gather_result("dist").astype(np.uint64)
        assert np.array_equal(
            got, reference_bfs(prep.edges, prep.ctx.source)
        )

    def test_resumed_rounds_are_contiguous(self, small_rmat):
        _, executor = build(small_rmat, "bfs", "cvc")
        partial = executor.run(max_rounds=2)
        result = executor.run(resume=partial)
        indices = [record.round_index for record in result.rounds]
        assert indices == list(range(1, len(indices) + 1))

    def test_run_after_convergence_raises(self, small_rmat):
        """A completed executor is single-use: rerunning it must fail
        loudly instead of silently carrying state into the next answer
        (the service worker pool constructs a fresh executor per job)."""
        from repro.errors import ExecutionError, ReproError

        _, executor = build(small_rmat, "bfs", "cvc")
        result = executor.run()
        assert result.converged
        with pytest.raises(ExecutionError, match="single-use"):
            executor.run()
        # The guard is part of the library's error contract.
        assert issubclass(ExecutionError, ReproError)

    def test_resume_matches_single_shot(self, small_rmat):
        """Splitting a run into resumed chunks changes nothing."""
        _, chunked = build(small_rmat, "sssp", "cvc")
        chunked_result = chunked.run(max_rounds=1)
        while not chunked_result.converged:
            chunked.run(max_rounds=1, resume=chunked_result)
        _, single = build(small_rmat, "sssp", "cvc")
        single_result = single.run()
        assert chunked_result.num_rounds == single_result.num_rounds
        assert (
            chunked_result.communication_volume
            == single_result.communication_volume
        )
        assert np.array_equal(
            chunked.gather_result("dist"), single.gather_result("dist")
        )


class TestRepartition:
    @pytest.mark.parametrize(
        "app_name,key,oracle",
        [
            ("bfs", "dist", reference_bfs),
            ("sssp", "dist", reference_sssp),
        ],
    )
    def test_repartition_midrun_still_correct(
        self, small_rmat, app_name, key, oracle
    ):
        prep, executor = build(small_rmat, app_name, "oec")
        partial = executor.run(max_rounds=2)
        new_partitioned = make_partitioner("cvc").partition(prep.edges, 4)
        executor.repartition(new_partitioned, partial)
        result = executor.run(resume=partial)
        assert result.converged
        assert result.policy == "cvc"
        got = executor.gather_result(key).astype(np.uint64)
        assert np.array_equal(got, oracle(prep.edges, prep.ctx.source))

    def test_repartition_pagerank(self, small_rmat):
        prep, executor = build(small_rmat, "pr", "iec", engine="ligra")
        partial = executor.run(max_rounds=5)
        new_partitioned = make_partitioner("hvc").partition(prep.edges, 4)
        executor.repartition(new_partitioned, partial)
        result = executor.run(resume=partial)
        assert result.converged
        got = executor.gather_result("rank")
        expected = reference_pagerank(small_rmat)
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_repartition_cc_many_times(self, small_rmat):
        from tests.conftest import reference_cc

        prep, executor = build(small_rmat, "cc", "oec")
        expected = reference_cc(prep.edges)
        result = None
        for policy in ("cvc", "hvc", "iec"):
            result = executor.run(max_rounds=1, resume=result)
            if result.converged:
                break
            executor.repartition(
                make_partitioner(policy).partition(prep.edges, 4), result
            )
        if not result.converged:
            executor.run(resume=result)
        got = executor.gather_result("label").astype(np.uint64)
        assert np.array_equal(got, expected)

    def test_remomoization_traffic_counted(self, small_rmat):
        prep, executor = build(small_rmat, "bfs", "oec")
        partial = executor.run(max_rounds=1)
        before = partial.construction_bytes
        executor.repartition(
            make_partitioner("cvc").partition(prep.edges, 4), partial
        )
        assert partial.construction_bytes > before

    def test_repartition_before_run_rejected(self, small_rmat):
        """Before its own run, an executor has no open run to repartition:
        another executor's result is refused by name."""
        prep, executor = build(small_rmat, "bfs", "oec")
        _, other = build(small_rmat, "bfs", "oec")
        foreign = other.run(max_rounds=1)
        with pytest.raises(ExecutionError, match="started"):
            executor.repartition(
                make_partitioner("cvc").partition(prep.edges, 4), foreign
            )

    def test_repartition_after_convergence_rejected(self, small_rmat):
        prep, executor = build(small_rmat, "bfs", "oec")
        result = executor.run()
        with pytest.raises(ExecutionError, match="converged"):
            executor.repartition(
                make_partitioner("cvc").partition(prep.edges, 4), result
            )

    def test_host_count_change_rejected(self, small_rmat):
        prep, executor = build(small_rmat, "bfs", "oec")
        partial = executor.run(max_rounds=1)
        with pytest.raises(ExecutionError, match="host count"):
            executor.repartition(
                make_partitioner("cvc").partition(prep.edges, 8), partial
            )

    def test_non_migratable_app_rejected(self, small_rmat):
        prep, executor = build(small_rmat, "kcore", "oec")
        partial = executor.run(max_rounds=1)
        with pytest.raises(ExecutionError, match="per-proxy flags"):
            executor.repartition(
                make_partitioner("cvc").partition(prep.edges, 4), partial
            )

    def test_staged_program_refuses_repartition_by_name(self, small_rmat):
        """``migrate_states`` re-runs ``make_state``, which would reset
        bc's stage index and level counter mid-run."""
        prep, executor = build(small_rmat, "bc", "oec")
        partial = executor.run(max_rounds=2)
        assert not executor.app.supports_migration
        with pytest.raises(ExecutionError, match="bc cannot change layout.*stage"):
            executor.repartition(
                make_partitioner("cvc").partition(prep.edges, 4), partial
            )


class TestMigrationPrimitives:
    def test_gather_global_collects_masters(self, small_rmat):
        prep, executor = build(small_rmat, "bfs", "cvc")
        executor.run(max_rounds=2)
        global_dist = gather_global(
            executor.partitioned, executor.states, "dist"
        )
        assert len(global_dist) == prep.edges.num_nodes
        assert global_dist[prep.ctx.source] == 0

    def test_migrate_states_preserves_masters(self, small_rmat):
        prep, executor = build(small_rmat, "bfs", "cvc")
        executor.run(max_rounds=2)
        before = gather_global(executor.partitioned, executor.states, "dist")
        new_partitioned = make_partitioner("hvc").partition(prep.edges, 4)
        new_states = migrate_states(
            executor.partitioned,
            executor.states,
            new_partitioned,
            executor.app,
            executor.ctx,
        )
        after = gather_global(new_partitioned, new_states, "dist")
        assert np.array_equal(before, after)


class TestDeclaredNodeArrays:
    """Migration moves the arrays a program declares, never whichever
    arrays happen to have one row per local node."""

    def test_pagerank_with_as_many_local_edges_as_nodes(self):
        from repro.graph.generators import rmat

        edges = rmat(4, 2, 1)
        prep, executor = build(edges, "pr", "hvc", num_hosts=2)
        host0 = executor.partitioned.partitions[0]
        assert host0.num_nodes == host0.graph.num_edges  # the coincidence
        partial = executor.run(max_rounds=2)
        executor.repartition(make_partitioner("oec").partition(prep.edges, 2), partial)
        result = executor.run(resume=partial)
        assert result.converged
        np.testing.assert_allclose(
            executor.gather_result("rank"), reference_pagerank(edges),
            rtol=1e-6,
        )

    def test_sage_on_a_host_with_feature_dim_nodes(self, small_rmat):
        """sage's (dim, dim) weight matrices are scalars of the program,
        rebuilt by ``make_state``, even where a host has dim nodes."""
        app = make_app("sage")
        old = make_partitioner("oec").partition(
            prepare_input("sage", small_rmat).edges, 2
        )
        dim = old.partitions[0].num_nodes
        prep = prepare_input("sage", small_rmat, feature_dim=dim)
        states = [app.make_state(part, prep.ctx) for part in old.partitions]
        assert states[0]["w_self"].shape == (dim, dim)  # the coincidence
        new = make_partitioner("cvc").partition(prep.edges, 2)
        moved = migrate_states(old, states, new, app, prep.ctx)
        fresh = [app.make_state(part, prep.ctx) for part in new.partitions]
        for got, init in zip(moved, fresh):
            for key in ("w_self", "w_neigh"):
                np.testing.assert_array_equal(got[key], init[key])
        np.testing.assert_array_equal(
            gather_global(new, moved, "feat"), gather_global(old, states, "feat")
        )

    @pytest.mark.parametrize(
        "name", sorted(PROGRAM_SPECS) + optimized_app_names()
    )
    def test_declared_keys_are_the_node_sized_arrays(self, small_rmat, name):
        """Where no length coincides, the declaration and the shape test a
        handwritten program falls back to pick the same keys."""
        app = make_app(name)
        prep = prepare_input(name, small_rmat, feature_dim=3)
        part = make_partitioner("oec").partition(prep.edges, 2).partitions[0]
        assert part.num_nodes not in (part.graph.num_edges, 3)
        state = app.make_state(part, prep.ctx)
        assert list(app.migratable_node_arrays) == migratable_keys(
            VertexProgram(), state, part.num_nodes
        )
