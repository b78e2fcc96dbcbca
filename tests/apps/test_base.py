"""Unit tests for the vertex-program framework (repro.apps.base)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppContext, VertexProgram, gather_frontier_edges
from repro.graph.csr import CSRGraph
from repro.partition import make_partitioner


class TestGatherFrontierEdges:
    def graph(self):
        src = np.array([0, 0, 1, 3, 3, 3], dtype=np.uint32)
        dst = np.array([1, 2, 2, 0, 1, 2], dtype=np.uint32)
        return CSRGraph.from_edges(4, src, dst)

    def test_collects_frontier_out_edges(self):
        g = self.graph()
        frontier = np.array([0, 3])
        src_rep, dst, positions = gather_frontier_edges(g, frontier)
        assert len(dst) == 5  # node 0 has 2 out-edges, node 3 has 3
        assert set(src_rep.tolist()) == {0, 3}
        assert np.array_equal(g.indices[positions], dst)

    def test_empty_frontier(self):
        g = self.graph()
        src_rep, dst, positions = gather_frontier_edges(
            g, np.empty(0, dtype=np.intp)
        )
        assert len(src_rep) == len(dst) == len(positions) == 0

    def test_frontier_of_edgeless_nodes(self):
        g = self.graph()
        frontier = np.array([2])  # node 2: no out
        src_rep, dst, _ = gather_frontier_edges(g, frontier)
        assert len(dst) == 0

    def test_positions_index_weights(self):
        src = np.array([0, 1], dtype=np.uint32)
        dst = np.array([1, 0], dtype=np.uint32)
        weights = np.array([7, 9], dtype=np.uint32)
        g = CSRGraph.from_edges(2, src, dst, weights)
        _, _, positions = gather_frontier_edges(
            g, np.array([1])
        )
        assert g.weights[positions].tolist() == [9]

    @given(
        num_nodes=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_per_node_enumeration(self, num_nodes, seed):
        rng = np.random.default_rng(seed)
        num_edges = int(rng.integers(0, 80))
        src = rng.integers(0, num_nodes, size=num_edges, dtype=np.uint32)
        dst = rng.integers(0, num_nodes, size=num_edges, dtype=np.uint32)
        g = CSRGraph.from_edges(num_nodes, src, dst)
        frontier = np.flatnonzero(rng.random(num_nodes) < 0.5)
        src_rep, gathered_dst, _ = gather_frontier_edges(g, frontier)
        expected = []
        for node in frontier:
            for neighbor in g.neighbors(int(node)):
                expected.append((int(node), int(neighbor)))
        got = sorted(zip(src_rep.tolist(), gathered_dst.tolist()))
        assert got == sorted(expected)


class TestAppContext:
    def test_defaults(self):
        ctx = AppContext(num_global_nodes=10)
        assert ctx.source == 0
        assert ctx.damping == 0.85
        assert ctx.max_iterations == 100
        assert ctx.k == 2
        assert ctx.global_out_degree is None


class TestGatherMasterValues:
    def test_assembles_global_array(self, tiny_edges):
        partitioned = make_partitioner("oec").partition(tiny_edges, 2)
        app = VertexProgram()
        states = []
        for part in partitioned.partitions:
            values = part.local_to_global.astype(np.uint32) * 10
            states.append({"v": values})
        result = app.gather_master_values(
            partitioned.partitions, states, "v"
        )
        assert np.array_equal(
            result, np.arange(10, dtype=np.uint32) * 10
        )

    def test_empty_parts(self):
        app = VertexProgram()
        assert len(app.gather_master_values([], [], "v")) == 0

    def test_mirror_values_ignored(self, tiny_edges):
        """Only master values land in the global array."""
        partitioned = make_partitioner("oec").partition(tiny_edges, 2)
        app = VertexProgram()
        states = []
        for part in partitioned.partitions:
            values = np.zeros(part.num_nodes, dtype=np.uint32)
            values[: part.num_masters] = 1
            values[part.num_masters :] = 99  # must not leak
            states.append({"v": values})
        result = app.gather_master_values(
            partitioned.partitions, states, "v"
        )
        assert np.all(result == 1)


class TestVertexProgramDefaults:
    def test_base_class_contract(self):
        app = VertexProgram()
        assert app.is_reduction
        assert app.iterate_locally
        assert app.uses_frontier
        assert not app.supports_pull
        assert not app.needs_global_degrees
        assert app.supports_migration
        assert app.local_residual({}) == 0.0
        assert not app.is_globally_converged(0.0, 1, AppContext(1))
        for method in ("make_state", "make_fields", "initial_frontier"):
            with pytest.raises(NotImplementedError):
                getattr(app, method)(None, None, None) if method == (
                    "initial_frontier"
                ) else getattr(app, method)(None, None)
        with pytest.raises(NotImplementedError):
            app.step(None, None, None)
