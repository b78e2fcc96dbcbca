"""Unit tests for repro.graph.csr."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList


def build(num_nodes, pairs, weights=None):
    src = np.array([p[0] for p in pairs], dtype=np.uint32)
    dst = np.array([p[1] for p in pairs], dtype=np.uint32)
    w = None if weights is None else np.array(weights, dtype=np.uint32)
    return CSRGraph.from_edges(num_nodes, src, dst, w)


class TestConstruction:
    def test_from_edges_counts(self):
        g = build(4, [(0, 1), (0, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_from_edgelist(self):
        edges = EdgeList(
            3, np.array([0, 1], np.uint32), np.array([1, 2], np.uint32)
        )
        g = CSRGraph.from_edgelist(edges)
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = build(3, [])
        assert g.num_edges == 0
        assert g.out_degree(0) == 0

    def test_isolated_trailing_node(self):
        g = build(5, [(0, 1)])
        assert g.out_degree(4) == 0
        assert len(g.neighbors(4)) == 0

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            build(2, [(0, 3)])

    def test_mismatched_src_dst_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(
                3, np.array([0], np.uint32), np.array([1, 2], np.uint32)
            )

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0], np.uint32))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 0, 0], np.uint32))

    def test_weight_shape_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(
                np.array([0, 1]),
                np.array([0], np.uint32),
                np.array([1, 2], np.uint32),
            )


class TestAccessors:
    def test_neighbors_sorted_per_source(self):
        g = build(4, [(1, 3), (0, 2), (1, 0)])
        assert set(g.neighbors(1).tolist()) == {3, 0}
        assert g.neighbors(0).tolist() == [2]

    def test_out_degree_array(self):
        g = build(3, [(0, 1), (0, 2), (1, 2)])
        assert g.out_degree().tolist() == [2, 1, 0]

    def test_in_degree_array(self):
        g = build(3, [(0, 1), (0, 2), (1, 2)])
        assert g.in_degree().tolist() == [0, 1, 2]

    def test_degree_arrays_are_cached_read_only(self):
        """Engines and dense-pull kernels ask every round: one shared
        array per graph, which no caller can corrupt."""
        g = build(3, [(0, 1), (0, 2), (1, 2)])
        assert g.nodes_with_in_edges().tolist() == [1, 2]
        for degree in (g.out_degree, g.nodes_with_in_edges):
            assert degree() is degree()
            with pytest.raises(ValueError):
                degree()[0] = 7

    def test_out_degree_scalar(self):
        g = build(3, [(0, 1), (0, 2)])
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 1

    def test_degree_out_of_range(self):
        g = build(2, [(0, 1)])
        with pytest.raises(IndexError):
            g.out_degree(5)
        with pytest.raises(IndexError):
            g.in_degree(-1)
        with pytest.raises(IndexError):
            g.neighbors(2)

    def test_edges_roundtrip(self):
        pairs = [(0, 1), (0, 2), (2, 3), (3, 0)]
        g = build(4, pairs)
        src, dst = g.edges()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(pairs)

    def test_edge_arrays_are_edges_in_native_indices(self):
        """Built once, shared by every dense pull over the graph and
        read-only, so no run can corrupt another's edges."""
        g = build(4, [(0, 1), (0, 2), (2, 3), (3, 0), (3, 3)])
        src, dst = g.edge_arrays()
        assert g.edge_arrays()[0] is src and g.edge_arrays()[1] is dst
        assert src.dtype == dst.dtype == np.int64
        ref_src, ref_dst = g.edges()
        np.testing.assert_array_equal(src, ref_src.astype(np.int64))
        np.testing.assert_array_equal(dst, ref_dst.astype(np.int64))
        for array in (src, dst):
            with pytest.raises(ValueError):
                array[0] = 7

    def test_edge_arrays_of_an_empty_graph(self):
        src, dst = build(3, []).edge_arrays()
        assert len(src) == len(dst) == 0

    def test_edge_weights_of(self):
        g = build(3, [(0, 1), (0, 2)], weights=[5, 9])
        assert sorted(g.edge_weights_of(0).tolist()) == [5, 9]

    def test_edge_weights_of_unweighted_defaults_to_ones(self):
        g = build(3, [(0, 1), (0, 2)])
        assert g.edge_weights_of(0).tolist() == [1, 1]


class TestTranspose:
    def test_transpose_reverses_edges(self):
        g = build(3, [(0, 1), (1, 2)])
        t = g.transpose()
        assert t.neighbors(1).tolist() == [0]
        assert t.neighbors(2).tolist() == [1]

    def test_transpose_cached(self):
        g = build(3, [(0, 1)])
        assert g.transpose() is g.transpose()

    def test_transpose_preserves_weights(self):
        g = build(3, [(0, 1)], weights=[7])
        t = g.transpose()
        assert t.has_weights
        assert t.edge_weights_of(1).tolist() == [7]

    def test_double_transpose_equals_original(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert g.transpose().transpose() == g


class TestEquality:
    def test_equal_graphs(self):
        a = build(3, [(0, 1), (1, 2)])
        b = build(3, [(0, 1), (1, 2)])
        assert a == b

    def test_unequal_structure(self):
        assert build(3, [(0, 1)]) != build(3, [(0, 2)])

    def test_weighted_vs_unweighted(self):
        assert build(2, [(0, 1)]) != build(2, [(0, 1)], weights=[1])

    def test_repr_mentions_counts(self):
        text = repr(build(3, [(0, 1)]))
        assert "num_nodes=3" in text and "num_edges=1" in text


class TestPickle:
    """A pickled graph carries its CSR only; the caches rebuild on use."""

    @staticmethod
    def _warm(g):
        g.transpose()
        g.out_degree()
        g.max_out_degree()
        g.in_degree()
        g.nodes_with_in_edges()
        g.edge_arrays()
        return g

    def test_a_warm_graph_pickles_as_small_as_a_cold_one(self):
        import pickle

        pairs = [(0, 1), (0, 2), (2, 3), (3, 0), (1, 3)]
        cold = len(pickle.dumps(build(4, pairs, weights=[1, 2, 3, 4, 5])))
        warm = self._warm(build(4, pairs, weights=[1, 2, 3, 4, 5]))
        assert len(pickle.dumps(warm)) == cold

    def test_the_unpickled_graph_rebuilds_equal_derived_arrays(self):
        import pickle

        g = self._warm(build(4, [(0, 1), (0, 2), (2, 3), (3, 0)], [4, 3, 2, 1]))
        back = pickle.loads(pickle.dumps(g))
        assert back == g
        assert back.transpose() == g.transpose()
        assert back.max_out_degree() == g.max_out_degree()
        for derived in ("out_degree", "in_degree"):
            np.testing.assert_array_equal(
                getattr(back, derived)(), getattr(g, derived)()
            )
        for got, want in zip(back.edge_arrays(), g.edge_arrays()):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
