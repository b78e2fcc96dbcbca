"""Unit tests for partitioned-graph construction (repro.partition.base)."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.partition.base import (
    EdgeAssignment,
    build_partitioned_graph,
    _chunk_boundaries,
)
from repro.partition.edge_cut import OutgoingEdgeCut
from repro.partition.strategy import PartitionStrategy


class TestEdgeAssignment:
    def test_rejects_zero_hosts(self):
        with pytest.raises(PartitionError):
            EdgeAssignment(
                0, np.array([0]), np.array([], dtype=np.int32)
            )

    def test_rejects_out_of_range_master(self):
        with pytest.raises(PartitionError):
            EdgeAssignment(2, np.array([0, 2]), np.array([], dtype=np.int32))

    def test_rejects_out_of_range_edge_host(self):
        with pytest.raises(PartitionError):
            EdgeAssignment(2, np.array([0, 1]), np.array([-1]))

    def test_rejects_bad_extra_proxies_length(self):
        with pytest.raises(PartitionError):
            EdgeAssignment(
                2,
                np.array([0, 1]),
                np.array([], dtype=np.int32),
                extra_proxies=[np.array([], np.uint32)],
            )


class TestChunkBoundaries:
    def test_covers_all_items(self):
        b = _chunk_boundaries(np.array([1, 1, 1, 1]), 2)
        assert b[0] == 0 and b[-1] == 4
        assert np.all(np.diff(b) >= 0)

    def test_balances_weight(self):
        weights = np.array([10, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        b = _chunk_boundaries(weights, 2)
        # The heavy first node alone roughly balances the rest.
        assert b[1] <= 5

    def test_more_chunks_than_items(self):
        b = _chunk_boundaries(np.array([1, 1]), 5)
        assert b[0] == 0 and b[-1] == 2
        assert len(b) == 6

    def test_single_chunk(self):
        b = _chunk_boundaries(np.array([3, 1, 4]), 1)
        assert b.tolist() == [0, 3]

    def test_zero_chunks_rejected(self):
        with pytest.raises(PartitionError):
            _chunk_boundaries(np.array([1]), 0)


class TestBuildPartitionedGraph:
    def test_figure2_oec_example(self, tiny_edges):
        """Reproduce Figure 2's two-host OEC partition structure."""
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 2)
        assert partitioned.num_hosts == 2
        total_masters = sum(p.num_masters for p in partitioned.partitions)
        assert total_masters == 10
        # Edge conservation.
        total_edges = sum(p.graph.num_edges for p in partitioned.partitions)
        assert total_edges == tiny_edges.num_edges
        # OEC: mirrors never have outgoing edges.
        for part in partitioned.partitions:
            out_deg = part.graph.out_degree()
            assert not np.any(out_deg[part.num_masters :] > 0)

    def test_local_global_roundtrip(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 2)
        for part in partitioned.partitions:
            for lid in range(part.num_nodes):
                gid = part.to_global(lid)
                assert part.to_local(gid) == lid
                assert part.has_proxy(gid)

    def test_masters_first_ordering(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 2)
        for part in partitioned.partitions:
            for lid in range(part.num_nodes):
                assert part.is_master(lid) == (lid < part.num_masters)

    def test_master_locals_and_mirror_locals(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 3)
        for part in partitioned.partitions:
            assert len(part.master_locals()) == part.num_masters
            assert len(part.mirror_locals()) == part.num_mirrors
            assert part.num_masters + part.num_mirrors == part.num_nodes

    def test_mirror_master_host_consistent(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 3)
        for part in partitioned.partitions:
            for lid in part.mirror_locals():
                owner = part.master_host_of_mirror(int(lid))
                gid = part.to_global(int(lid))
                assert owner == int(partitioned.master_host[gid])
                assert owner != part.host

    def test_master_host_of_mirror_rejects_master(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 2)
        part = partitioned.partitions[0]
        with pytest.raises(IndexError):
            part.master_host_of_mirror(0)

    def test_to_local_unknown_gid_raises(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 2)
        part = partitioned.partitions[0]
        missing = [
            g for g in range(tiny_edges.num_nodes) if not part.has_proxy(g)
        ]
        if missing:
            with pytest.raises(KeyError):
                part.to_local(missing[0])

    def test_scalar_lookup_contract_without_eager_table(self, tiny_edges):
        """``to_local``/``has_proxy`` ride the lazily sorted proxy table:
        nothing is built at construction, ``int`` and ``np.integer``
        arguments agree, and every miss — absent, negative, beyond
        uint32, or on a proxy-less host — is a ``KeyError``/``False``."""
        from repro.graph.csr import CSRGraph
        from repro.partition.base import LocalPartition

        part = OutgoingEdgeCut().partition(tiny_edges, 2).partitions[1]
        assert part._l2g_order is None
        gid = part.to_global(part.num_nodes - 1)
        assert part.to_local(np.uint32(gid)) == part.to_local(gid)
        assert part.has_proxy(np.int64(gid))
        for miss in (-1, 2**32, 2**40, tiny_edges.num_nodes + 5):
            assert not part.has_proxy(miss)
            with pytest.raises(KeyError):
                part.to_local(miss)
        empty = LocalPartition(
            0,
            CSRGraph.from_edges(0, np.empty(0), np.empty(0)),
            np.empty(0, dtype=np.uint32),
            0,
            np.empty(0, dtype=np.int32),
        )
        assert not empty.has_proxy(0)
        with pytest.raises(KeyError):
            empty.to_local_array(np.array([0]))

    def test_isolated_nodes_get_masters(self):
        # Node 3 has no edges but must still be mastered somewhere.
        edges = EdgeList(
            4, np.array([0, 1], np.uint32), np.array([1, 2], np.uint32)
        )
        partitioned = OutgoingEdgeCut().partition(edges, 2)
        total_masters = sum(p.num_masters for p in partitioned.partitions)
        assert total_masters == 4

    def test_replication_factor_single_host_is_one(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 1)
        assert partitioned.replication_factor() == pytest.approx(1.0)

    def test_replication_factor_grows_with_hosts(self, small_rmat):
        rep2 = OutgoingEdgeCut().partition(small_rmat, 2).replication_factor()
        rep8 = OutgoingEdgeCut().partition(small_rmat, 8).replication_factor()
        assert rep8 > rep2 >= 1.0

    def test_mismatched_assignment_sizes_rejected(self, tiny_edges):
        assignment = EdgeAssignment(
            2,
            np.zeros(5, dtype=np.int32),  # wrong node count
            np.zeros(tiny_edges.num_edges, dtype=np.int32),
        )
        with pytest.raises(PartitionError):
            build_partitioned_graph(
                tiny_edges, assignment, PartitionStrategy.OEC, "oec"
            )

    def test_zero_hosts_rejected(self, tiny_edges):
        with pytest.raises(PartitionError):
            OutgoingEdgeCut().partition(tiny_edges, 0)
