"""Unit tests for the compute engines."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.engines import ENGINE_BY_NAME, make_engine
from repro.engines.galois import GaloisEngine
from repro.engines.ligra import LigraEngine
from repro.partition import make_partitioner
from repro.runtime.timing import WorkStats
from repro.systems import prepare_input


def single_partition(edges):
    return make_partitioner("oec").partition(edges, 1).partitions[0]


class TestFactory:
    def test_all_engines_constructible(self):
        for name in ENGINE_BY_NAME:
            engine = make_engine(name)
            assert engine.name == name

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("spark")

    def test_gpu_flags(self):
        assert make_engine("irgl").is_gpu
        assert make_engine("gunrock").is_gpu
        assert not make_engine("galois").is_gpu
        assert not make_engine("ligra").is_gpu
        assert not make_engine("gemini").is_gpu


class TestComputeTime:
    def test_time_scales_with_work(self):
        engine = make_engine("galois")
        small = engine.compute_time(WorkStats(100, 10, 1))
        large = engine.compute_time(WorkStats(10000, 1000, 1))
        assert large > small > 0

    def test_gpu_faster_per_edge_than_cpu(self):
        """§5.3 attributes D-IrGL wins to GPU compute throughput."""
        cpu = make_engine("galois")
        gpu = make_engine("irgl")
        work = WorkStats(10_000_000, 0, 0)
        assert gpu.compute_time(work) < cpu.compute_time(work)

    def test_gpu_has_higher_step_overhead(self):
        cpu = make_engine("galois")
        gpu = make_engine("irgl")
        assert gpu.cost.step_overhead_s > cpu.cost.step_overhead_s


class TestGaloisLocalFixpoint:
    def test_runs_to_local_fixpoint(self, small_path):
        """On one host, async bfs finishes the whole path in one round."""
        prep = prepare_input("bfs", small_path, source=0)
        app = make_app("bfs")
        part = single_partition(prep.edges)
        state = app.make_state(part, prep.ctx)
        frontier = app.initial_frontier(part, state, prep.ctx)
        outcome = GaloisEngine().compute_round(app, part, state, frontier)
        # One step per path hop plus the final step that finds no updates.
        assert outcome.work.inner_steps == small_path.num_nodes
        assert np.array_equal(
            state["dist"], np.arange(small_path.num_nodes, dtype=np.uint32)
        )

    def test_respects_iterate_locally_false(self, small_rmat):
        prep = prepare_input("pr", small_rmat)
        app = make_app("pr")
        part = single_partition(prep.edges)
        state = app.make_state(part, prep.ctx)
        frontier = app.initial_frontier(part, state, prep.ctx)
        outcome = GaloisEngine().compute_round(app, part, state, frontier)
        assert outcome.work.inner_steps == 1

    def test_empty_frontier_is_cheap(self, small_rmat):
        prep = prepare_input("bfs", small_rmat)
        app = make_app("bfs")
        part = single_partition(prep.edges)
        state = app.make_state(part, prep.ctx)
        frontier = np.empty(0, dtype=np.intp)
        outcome = GaloisEngine().compute_round(app, part, state, frontier)
        assert outcome.work.edges_processed == 0
        assert len(outcome.updated) == 0


class TestLigraDirectionOptimization:
    def test_sparse_frontier_pushes(self, small_rmat):
        prep = prepare_input("bfs", small_rmat)
        app = make_app("bfs")
        part = single_partition(prep.edges)
        # A single low-degree node: push.
        frontier = np.array([np.argmin(part.graph.out_degree())], dtype=np.intp)
        assert (
            LigraEngine()._choose_direction(app, part, frontier) == "push"
        )

    def test_dense_frontier_pulls(self, small_rmat):
        prep = prepare_input("bfs", small_rmat)
        app = make_app("bfs")
        part = single_partition(prep.edges)
        frontier = np.arange(part.num_nodes)
        assert (
            LigraEngine()._choose_direction(app, part, frontier) == "pull"
        )

    def test_pull_only_for_apps_supporting_it(self, small_rmat):
        prep = prepare_input("sssp", small_rmat)
        app = make_app("sssp")  # push-only
        part = single_partition(prep.edges)
        frontier = np.arange(part.num_nodes)
        assert (
            LigraEngine()._choose_direction(app, part, frontier) == "push"
        )

    def test_pull_operator_always_pulls(self, small_rmat):
        prep = prepare_input("pr", small_rmat)
        app = make_app("pr")
        part = single_partition(prep.edges)
        frontier = np.empty(0, dtype=np.intp)
        assert (
            LigraEngine()._choose_direction(app, part, frontier) == "pull"
        )

    def test_direction_optimized_bfs_correct(self, small_rmat):
        """Level-synchronous bfs with direction switching matches push-only."""
        from repro.systems import run_app
        from tests.conftest import reference_bfs

        prep = prepare_input("bfs", small_rmat)
        expected = reference_bfs(prep.edges, prep.ctx.source)
        result = run_app("d-ligra", "bfs", small_rmat, num_hosts=4, policy="cvc")
        got = result.executor.gather_result("dist").astype(np.uint64)
        assert np.array_equal(got, expected)
