"""The wide kernel's destination grouping: built once per layout, never stale.

``aggregate_neighbor_rows`` remembers the grouping of a read-only,
data-owning edge pair (what ``CSRGraph.edge_arrays()`` returns) per row
count, and drops it when the pair's ``edge_dst`` dies.  Writeable arrays
are regrouped on every call.  Each test runs against a fresh cache so
entries of graphs other tests still hold do not count.
"""

import gc
from unittest import mock

import numpy as np
import pytest

from repro.features import kernels
from repro.features.kernels import aggregate_neighbor_rows
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.systems import run_app

EDGES = rmat(scale=6, edge_factor=4, seed=3)


@pytest.fixture
def builds():
    """A fresh cache; yields the row counts the builder was called with."""
    calls = []
    build = kernels._group_by_destination

    def counted(edge_src, edge_dst, n):
        calls.append(n)
        return build(edge_src, edge_dst, n)

    with mock.patch.object(kernels, "_GROUPINGS", {}), mock.patch.object(
        kernels, "_group_by_destination", counted
    ):
        yield calls


def _reference(acc, features, edge_src, edge_dst):
    expected = acc.copy()
    np.add.at(expected, edge_dst, features[edge_src])
    return expected


def _frozen_pair(n=4, src=(0, 1, 3, 2, 0), dst=(1, 2, 0, 1, 3)):
    return CSRGraph.from_edges(n, np.array(src), np.array(dst)).edge_arrays()


def _featprop(hosts=8, rounds=6):
    return run_app(
        "d-galois", "featprop", EDGES, hosts, policy="cvc", feature_dim=4,
        feature_rounds=rounds,
    )


def test_a_run_groups_each_hosts_edges_once(builds):
    lookup = kernels._grouping_of
    with mock.patch.object(kernels, "_grouping_of", wraps=lookup) as lookups:
        result = _featprop()
    parts = result.executor.partitioned.partitions
    assert len(parts) == 8 and all(p.graph.num_edges for p in parts)
    assert len(result.rounds) == 6
    assert lookups.call_count == 48
    assert sorted(builds) == sorted(p.graph.num_nodes for p in parts)


def test_a_writeable_pair_is_regrouped_on_every_call(builds):
    src, dst = np.array([0, 1, 2]), np.array([1, 2, 0])
    feat = np.arange(6.0).reshape(3, 2)
    first = np.zeros((3, 2))
    aggregate_neighbor_rows(first, feat, src, dst)
    dst[:] = [0, 0, 2]
    second = np.zeros((3, 2))
    aggregate_neighbor_rows(second, feat, src, dst)
    assert np.array_equal(second, _reference(np.zeros((3, 2)), feat, src, dst))
    assert not np.array_equal(first, second)
    assert builds == [3, 3]
    assert not kernels._GROUPINGS


def test_a_frozen_pair_is_grouped_once_per_row_count(builds):
    src, dst = _frozen_pair()
    for rows in (4, 4, 6, 6, 4):
        feat = np.arange(2.0 * rows).reshape(rows, 2)
        acc = np.ones((rows, 2))
        expected = _reference(acc, feat, src, dst)
        aggregate_neighbor_rows(acc, feat, src, dst)
        assert np.array_equal(acc, expected), rows
    assert builds == [4, 6]


def test_a_frozen_pair_is_keyed_on_both_arrays(builds):
    src, dst = _frozen_pair()
    other_src = src[::-1].copy()
    other_src.flags.writeable = False
    feat = np.arange(8.0).reshape(4, 2)
    for edge_src in (src, other_src, src):
        acc = np.zeros((4, 2))
        aggregate_neighbor_rows(acc, feat, edge_src, dst)
        expected = _reference(np.zeros((4, 2)), feat, edge_src, dst)
        assert np.array_equal(acc, expected)
    assert builds == [4, 4]


def test_a_cache_hit_still_checks_the_row_count(builds):
    src, dst = _frozen_pair()  # a destination 3: out of range for 3 rows
    for _ in range(2):
        acc = np.zeros((3, 2))
        with pytest.raises(IndexError):
            aggregate_neighbor_rows(acc, np.ones((4, 2)), src, dst)
        assert not acc.any()
    assert builds == [3]


def test_a_cache_hit_still_checks_the_feature_rows(builds):
    src, dst = _frozen_pair()  # a source 3: out of range for 3 rows
    aggregate_neighbor_rows(np.zeros((4, 2)), np.ones((4, 2)), src, dst)
    acc = np.zeros((4, 2))
    with pytest.raises(IndexError):
        aggregate_neighbor_rows(acc, np.ones((3, 2)), src, dst)
    assert not acc.any()
    assert builds == [4]


def test_no_grouping_outlives_its_graph(builds):
    for _ in range(5):
        result = _featprop(hosts=4, rounds=2)
        assert len(kernels._GROUPINGS) == len(result.executor.partitioned.partitions)
        del result
        gc.collect()
        assert not kernels._GROUPINGS
    assert len(builds) == 20
