"""Unit tests for per-engine cost parameters and baseline engine behavior."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.engines import make_engine
from repro.engines.gemini import GeminiEngine
from repro.engines.gunrock import GunrockEngine
from repro.partition import make_partitioner
from repro.runtime.timing import WorkStats
from repro.systems import prepare_input


class TestCostParameterShapes:
    def test_gpu_engines_declare_device_transfer(self):
        for name in ("irgl", "gunrock"):
            cost = make_engine(name).cost
            assert cost.device_bandwidth_bytes_per_s is not None
            assert cost.device_latency_s > 0

    def test_cpu_engines_have_no_device_transfer(self):
        for name in ("galois", "ligra", "gemini"):
            cost = make_engine(name).cost
            assert cost.device_bandwidth_bytes_per_s is None

    def test_gpu_translation_pricier_than_cpu(self):
        """§5.6: translation hits GPUs harder (done on the host CPU)."""
        assert (
            make_engine("irgl").cost.translation_s
            > make_engine("galois").cost.translation_s
        )

    def test_gemini_engine_slower_per_edge_than_galois(self):
        assert (
            GeminiEngine.cost.per_edge_s
            > make_engine("galois").cost.per_edge_s
        )


class TestBaselineEngineStepping:
    def make(self, edges, app_name, engine_cls):
        prep = prepare_input(app_name, edges)
        part = make_partitioner("oec").partition(prep.edges, 1).partitions[0]
        app = make_app(app_name)
        state = app.make_state(part, prep.ctx)
        frontier = app.initial_frontier(part, state, prep.ctx)
        return engine_cls(), app, part, state, frontier

    @pytest.mark.parametrize("engine_cls", [GeminiEngine, GunrockEngine])
    def test_single_step_per_round(self, small_path, engine_cls):
        """Baseline engines are level-synchronous: one step per round, so
        a path graph advances exactly one hop per compute_round."""
        engine, app, part, state, frontier = self.make(
            small_path, "bfs", engine_cls
        )
        outcome = engine.compute_round(app, part, state, frontier)
        dist = state["dist"]
        assert dist[1] == 1
        assert dist[2] == np.iinfo(np.uint32).max  # not yet
        assert outcome.work.inner_steps == 1

    @pytest.mark.parametrize("engine_cls", [GeminiEngine, GunrockEngine])
    def test_work_counts_match_frontier(self, small_rmat, engine_cls):
        engine, app, part, state, frontier = self.make(
            small_rmat, "bfs", engine_cls
        )
        outcome = engine.compute_round(app, part, state, frontier)
        source_degree = part.graph.out_degree(int(frontier[0]))
        assert outcome.work.edges_processed == source_degree


class TestComputeTimeMonotonicity:
    @pytest.mark.parametrize(
        "name", ["galois", "ligra", "irgl", "gemini", "gunrock"]
    )
    def test_time_monotone_in_every_dimension(self, name):
        engine = make_engine(name)
        base = engine.compute_time(WorkStats(100, 10, 1))
        assert engine.compute_time(WorkStats(200, 10, 1)) > base
        assert engine.compute_time(WorkStats(100, 20, 1)) > base
        assert engine.compute_time(WorkStats(100, 10, 2)) > base
