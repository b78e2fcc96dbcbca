"""One-pass construction vs the per-host-rescan algorithms it replaced.

The builder, the delta-partitioner's signatures, the Gemini baseline's
dual-representation proxies and ``EdgeList.deduplicate`` used to derive
"host *h*'s share" from full-length arrays: a boolean mask over every
edge per host, ``np.unique`` over the gathered endpoints, a stable
``argsort`` of a packed key followed by index gathers.  Those forms are
transcribed below as the reference; the shipped code (one grouping per
assignment, a mark array, a value sort of the key) must reproduce them
array for array, **dtype included**, and hand back arrays that own their
data — a view would pin a whole-graph transient for the run.

``symmetrize`` hands back its input when the input already is its own
symmetrization, and the HVC/CVC policies place each edge with one
gather; the concatenate-and-sort symmetrization and the per-edge
arithmetic they replaced are oracles here too.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.gemini import GeminiPartitioner
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.partition import PARTITIONER_BY_NAME, make_partitioner
from repro.partition import base
from repro.partition.base import (
    NO_PROXY,
    _chunk_boundaries,
    EdgeAssignment,
    HostGroups,
    build_local_partition,
    build_partitioned_graph,
)
from repro.partition.cartesian import grid_shape
from repro.partition.edge_cut import _block_owner
from repro.partition.strategy import PartitionStrategy
from repro.streaming.delta import signature_of_host

POLICIES = sorted(PARTITIONER_BY_NAME) + ["gemini-push", "gemini-pull", "arbitrary"]
HOSTS = (1, 2, 3, 5, 8)


# -- the old algorithms, kept as oracles ------------------------------------


def old_build_local_partition(edges, assignment, host):
    """Mask the whole edge list, ``np.unique`` the endpoints, int64 scratch."""
    gid_to_lid = np.full(edges.num_nodes, -1, dtype=np.int64)
    edge_mask = assignment.edge_host == host
    src = edges.src[edge_mask]
    dst = edges.dst[edge_mask]
    weight = edges.weight[edge_mask] if edges.weight is not None else None
    if assignment.extra_proxies is not None:
        extra = np.ascontiguousarray(
            assignment.extra_proxies[host], dtype=np.uint32
        )
        incident = np.unique(np.concatenate([src, dst, extra]))
    else:
        incident = np.unique(np.concatenate([src, dst]))
    owned = np.flatnonzero(assignment.master_host == host).astype(np.uint32)
    incident_owner = assignment.master_host[incident]
    mirrors = incident[incident_owner != host].astype(np.uint32)
    local_to_global = np.concatenate([owned, mirrors])
    gid_to_lid[local_to_global] = np.arange(len(local_to_global))
    graph = CSRGraph.from_edges(
        len(local_to_global),
        gid_to_lid[src].astype(np.uint32),
        gid_to_lid[dst].astype(np.uint32),
        weight,
    )
    return base.LocalPartition(
        host=host,
        graph=graph,
        local_to_global=local_to_global,
        num_masters=len(owned),
        mirror_master_host=assignment.master_host[mirrors],
    )


def old_deduplicate(edges):
    """Stable ``argsort`` of ``src * n + dst`` (``lexsort`` when weighted)."""
    if edges.num_edges == 0:
        return edges
    key = edges.src.astype(np.uint64) * np.uint64(edges.num_nodes) + edges.dst
    if edges.weight is None:
        order = np.argsort(key, kind="stable")
    else:
        order = np.lexsort((edges.weight, key))
    sorted_key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    keep = order[first]
    weight = edges.weight[keep] if edges.weight is not None else None
    return EdgeList(edges.num_nodes, edges.src[keep], edges.dst[keep], weight)


def old_symmetrize(edges):
    weight = None
    if edges.weight is not None:
        weight = np.concatenate([edges.weight, edges.weight])
    return old_deduplicate(
        EdgeList(
            edges.num_nodes,
            np.concatenate([edges.src, edges.dst]),
            np.concatenate([edges.dst, edges.src]),
            weight,
        )
    )


def old_hvc_assign(edges, num_hosts, threshold_factor=4.0):
    """Gather the in-degree per edge and both endpoints' masters, then pick."""
    in_degree = np.bincount(edges.dst, minlength=edges.num_nodes)
    avg_degree = edges.num_edges / max(edges.num_nodes, 1)
    threshold = max(1.0, threshold_factor * avg_degree)
    degree = np.bincount(edges.src, minlength=edges.num_nodes).astype(np.int64)
    degree += in_degree
    boundaries = _chunk_boundaries(degree, num_hosts)
    master_host = _block_owner(boundaries, np.arange(edges.num_nodes))
    high_degree_dst = in_degree[edges.dst] > threshold
    edge_host = np.where(
        high_degree_dst, master_host[edges.src], master_host[edges.dst]
    )
    return EdgeAssignment(num_hosts, master_host, edge_host.astype(np.int32))


def old_cvc_assign(edges, num_hosts):
    """Grid row and column arithmetic over every edge."""
    rows, cols = grid_shape(num_hosts)
    degree = np.bincount(edges.src, minlength=edges.num_nodes).astype(np.int64)
    degree += np.bincount(edges.dst, minlength=edges.num_nodes)
    boundaries = _chunk_boundaries(degree, num_hosts)
    master_host = _block_owner(boundaries, np.arange(edges.num_nodes))
    src_owner = master_host[edges.src]
    dst_owner = master_host[edges.dst]
    edge_host = (src_owner // cols) * cols + (dst_owner % cols)
    return EdgeAssignment(num_hosts, master_host, edge_host.astype(np.int32))


def old_signature_of_host(edges, assignment, host, policy_token):
    digest = hashlib.sha256()
    digest.update(
        f"HostPartition/{policy_token}/{assignment.num_hosts}/{host}".encode()
    )
    owned = np.flatnonzero(assignment.master_host == host)
    mask = assignment.edge_host == host
    digest.update(owned.astype(np.uint32).tobytes())
    src = edges.src[mask]
    dst = edges.dst[mask]
    digest.update(src.tobytes())
    digest.update(dst.tobytes())
    if edges.weight is not None:
        digest.update(edges.weight[mask].tobytes())
    if assignment.extra_proxies is not None:
        digest.update(
            np.ascontiguousarray(
                assignment.extra_proxies[host], dtype=np.uint32
            ).tobytes()
        )
    incident = np.unique(np.concatenate([src, dst]))
    mirrors = incident[assignment.master_host[incident] != host]
    digest.update(assignment.master_host[mirrors].astype(np.int32).tobytes())
    return digest.hexdigest()


def old_gemini_extra(edges, assignment, mode):
    """Gemini's dual-representation endpoints, one mask + ``np.unique`` per host."""
    other_end = edges.dst if mode == "push" else edges.src
    dual_host = assignment.master_host[other_end]
    return [
        np.unique(
            np.concatenate(
                [edges.src[dual_host == host], edges.dst[dual_host == host]]
            )
        ).astype(np.uint32)
        for host in range(assignment.num_hosts)
    ]


# -- helpers -----------------------------------------------------------------


def assert_same_array(actual, expected, what):
    if expected is None:
        assert actual is None, what
        return
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert np.array_equal(actual, expected), what
    assert actual.base is None or actual.flags.owndata, f"{what} is a view"


def assert_same_partition(actual, expected):
    assert actual.host == expected.host
    assert actual.num_masters == expected.num_masters
    for name in ("local_to_global", "mirror_master_host"):
        assert_same_array(getattr(actual, name), getattr(expected, name), name)
    for name in ("indptr", "indices", "weights"):
        assert_same_array(
            getattr(actual.graph, name), getattr(expected.graph, name), name
        )


def assert_same_edges(actual, expected):
    assert actual.num_nodes == expected.num_nodes
    for name in ("src", "dst", "weight"):
        assert_same_array(getattr(actual, name), getattr(expected, name), name)


def random_edges(rng, num_nodes, num_edges, weighted):
    """Duplicates and self-loops included; high node ids stay isolated."""
    busy = max(1, (3 * num_nodes) // 4)
    src = rng.integers(0, busy, size=num_edges, dtype=np.uint32)
    dst = rng.integers(0, busy, size=num_edges, dtype=np.uint32)
    weight = (
        rng.integers(1, 9, size=num_edges, dtype=np.uint32) if weighted else None
    )
    return EdgeList(num_nodes, src, dst, weight)


def assign(policy, edges, num_hosts, rng):
    if policy == "arbitrary":
        # Only some hosts are ever named: the rest own no edge and
        # master no node.
        used = rng.permutation(num_hosts)[: rng.integers(1, num_hosts + 1)]
        return EdgeAssignment(
            num_hosts,
            rng.choice(used, size=edges.num_nodes).astype(np.int32),
            rng.choice(used, size=edges.num_edges).astype(np.int32),
        )
    if policy.startswith("gemini"):
        return GeminiPartitioner(mode=policy.split("-")[1]).assign(edges, num_hosts)
    return make_partitioner(policy).assign(edges, num_hosts)


# -- (i) every policy, host count and weighting ------------------------------


@given(
    num_nodes=st.integers(1, 40),
    num_edges=st.integers(0, 160),
    weighted=st.booleans(),
    policy=st.sampled_from(POLICIES),
    num_hosts=st.sampled_from(HOSTS),
    block=st.sampled_from((1, 5, 64, 1 << 18)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=250, deadline=None)
def test_build_matches_per_host_rescan(
    num_nodes, num_edges, weighted, policy, num_hosts, block, seed
):
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, num_nodes, num_edges, weighted)
    with mock.patch.object(base, "_GROUP_BLOCK", block):
        assignment = assign(policy, edges, num_hosts, rng)
        built = build_partitioned_graph(
            edges, assignment, PartitionStrategy.UVC, policy
        )
        signatures = [
            signature_of_host(edges, assignment, host, policy)
            for host in range(num_hosts)
        ]
    assert built.num_hosts == num_hosts
    for host, part in enumerate(built.partitions):
        assert_same_partition(
            part, old_build_local_partition(edges, assignment, host)
        )
        if not policy.startswith("gemini"):
            # The old digest skipped the masters of Gemini's edge-less
            # extra mirrors (unsound); what holds there instead is
            # tests/streaming/test_delta.py::
            # test_equal_signature_means_identical_local_partition.
            assert signatures[host] == old_signature_of_host(
                edges, assignment, host, policy
            )
    if policy.startswith("gemini"):
        expected = old_gemini_extra(edges, assignment, policy.split("-")[1])
        for mine, theirs in zip(assignment.extra_proxies, expected):
            assert_same_array(mine, theirs, "extra_proxies")


# -- (ii) deterministic corners ----------------------------------------------


@pytest.mark.parametrize("num_hosts", [256, 257, 300, (1 << 16) + 1])
def test_grouping_key_widens_with_host_count(num_hosts):
    rng = np.random.default_rng(num_hosts)
    host_of = rng.integers(0, num_hosts, size=4000).astype(np.int32)
    host_of[:2] = (num_hosts - 1, 0)
    groups = HostGroups(host_of, num_hosts)
    for host in (0, 1, 255, 256, num_hosts - 1):
        if host < num_hosts:
            assert_same_array(
                groups.of(host),
                np.flatnonzero(host_of == host),
                f"host {host}",
            )


def test_three_hundred_hosts_match_per_host_rescan():
    rng = np.random.default_rng(300)
    edges = random_edges(rng, 500, 3000, weighted=True)
    assignment = assign("random", edges, 300, rng)
    built = build_partitioned_graph(
        edges, assignment, PartitionStrategy.UVC, "random"
    )
    for host, part in enumerate(built.partitions):
        assert_same_partition(
            part, old_build_local_partition(edges, assignment, host)
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_empty_edge_list(policy):
    edges = EdgeList(5, np.empty(0, np.uint32), np.empty(0, np.uint32))
    assignment = assign(policy, edges, 3, np.random.default_rng(0))
    built = build_partitioned_graph(
        edges, assignment, PartitionStrategy.UVC, policy
    )
    for host, part in enumerate(built.partitions):
        assert_same_partition(
            part, old_build_local_partition(edges, assignment, host)
        )
        assert part.graph.num_edges == 0


def test_standalone_host_build_restores_caller_scratch():
    rng = np.random.default_rng(7)
    edges = random_edges(rng, 30, 120, weighted=False)
    assignment = assign("cvc", edges, 4, rng)
    scratch = np.full(edges.num_nodes, NO_PROXY, dtype=np.uint32)
    part = build_local_partition(edges, assignment, 2, scratch)
    assert_same_partition(part, old_build_local_partition(edges, assignment, 2))
    assert scratch.dtype == np.uint32 and (scratch == NO_PROXY).all()


@pytest.mark.parametrize("delta", [-1, 1])
def test_misaligned_edge_host_still_rejected(delta):
    rng = np.random.default_rng(9)
    edges = random_edges(rng, 10, 20, weighted=False)
    assignment = EdgeAssignment(
        2,
        np.zeros(edges.num_nodes, dtype=np.int32),
        np.zeros(edges.num_edges + delta, dtype=np.int32),
    )
    with pytest.raises(PartitionError, match="edge_host"):
        build_partitioned_graph(edges, assignment, PartitionStrategy.OEC, "oec")
    with pytest.raises(PartitionError, match="edge_host"):
        build_local_partition(edges, assignment, 1)


# -- (iii) deduplicate / symmetrize ------------------------------------------


@given(
    num_nodes=st.integers(1, 30),
    num_edges=st.integers(0, 200),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_deduplicate_and_symmetrize_match_index_sort(
    num_nodes, num_edges, weighted, seed
):
    edges = random_edges(
        np.random.default_rng(seed), num_nodes, num_edges, weighted
    )
    assert_same_edges(edges.deduplicate(), old_deduplicate(edges))
    assert_same_edges(edges.symmetrize(), old_symmetrize(edges))


@pytest.mark.parametrize("num_nodes", [1, 1 << 16, (1 << 32) - 1])
@pytest.mark.parametrize("weighted", [False, True])
def test_key_packing_holds_at_every_node_count(num_nodes, weighted):
    top = num_nodes - 1
    ends = np.array([top, 0, top, top // 2, 0, top, top // 2], dtype=np.uint32)
    src, dst = ends, ends[::-1].copy()
    weight = np.array([5, 3, 4, 9, 1, 2, 7], dtype=np.uint32) if weighted else None
    edges = EdgeList(num_nodes, src, dst, weight)
    assert_same_edges(edges.deduplicate(), old_deduplicate(edges))
    assert_same_edges(edges.symmetrize(), old_symmetrize(edges))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_presorted_input(weighted, reverse):
    rng = np.random.default_rng(11)
    edges = old_deduplicate(random_edges(rng, 50, 400, weighted))
    if reverse:
        edges = EdgeList(
            edges.num_nodes,
            edges.src[::-1],
            edges.dst[::-1],
            edges.weight[::-1] if weighted else None,
        )
    assert_same_edges(edges.deduplicate(), old_deduplicate(edges))
    assert_same_edges(edges.symmetrize(), old_symmetrize(edges))


@given(
    num_nodes=st.integers(1, 30),
    num_edges=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_canonical_symmetric_input_comes_back_as_itself(
    num_nodes, num_edges, seed
):
    edges = old_symmetrize(
        random_edges(np.random.default_rng(seed), num_nodes, num_edges, False)
    )
    assert edges.symmetrize() is edges
    assert_same_edges(edges.symmetrize(), old_symmetrize(edges))


def _pairs(num_nodes, pairs):
    src = np.array([s for s, _ in pairs], dtype=np.uint32)
    dst = np.array([d for _, d in pairs], dtype=np.uint32)
    return EdgeList(num_nodes, src, dst)


def _canonical(num_nodes, pairs):
    return old_symmetrize(_pairs(num_nodes, pairs))


def _shuffled_symmetric():
    edges = _canonical(6, [(0, 1), (1, 2), (2, 5), (3, 3), (4, 0)])
    order = np.random.default_rng(4).permutation(edges.num_edges)
    assert (np.diff(order) < 0).any()
    return EdgeList(edges.num_nodes, edges.src[order], edges.dst[order])


def _duplicated_symmetric():
    # The self-loop doubled: still sorted and its own transpose, so only
    # the strictly-increasing filter rejects it.
    edges = _canonical(6, [(0, 1), (1, 2), (2, 5), (3, 3), (4, 0)])
    (loop,) = np.flatnonzero(edges.src == edges.dst)
    keep = np.insert(np.arange(edges.num_edges), loop, loop)
    return EdgeList(edges.num_nodes, edges.src[keep], edges.dst[keep])


def _weighted_symmetric():
    edges = _canonical(6, [(0, 1), (1, 2), (2, 5)])
    return edges.with_unit_weights()


def test_directed_three_cycle_passes_both_filters_and_is_rebuilt():
    # Sorted, duplicate-free, sum(src) == sum(dst) and every node has
    # in-degree == out-degree: only the transpose check tells.
    cycle = EdgeList(
        3, np.array([0, 1, 2], np.uint32), np.array([1, 2, 0], np.uint32)
    )
    assert int(cycle.src.sum()) == int(cycle.dst.sum())
    assert np.array_equal(np.bincount(cycle.src), np.bincount(cycle.dst))
    result = cycle.symmetrize()
    assert result is not cycle
    assert result.num_edges == 6
    assert_same_edges(result, old_symmetrize(cycle))


@pytest.mark.parametrize(
    "make", [_shuffled_symmetric, _duplicated_symmetric, _weighted_symmetric]
)
def test_symmetric_but_not_canonical_is_rebuilt(make):
    edges = make()
    result = edges.symmetrize()
    assert result is not edges
    assert_same_edges(result, old_symmetrize(edges))


@pytest.mark.parametrize(
    "pairs, canonical",
    [([], True), ([(0, 1)], False), ([(1, 0)], False), ([(2, 2)], True)],
)
def test_zero_and_one_edge_lists(pairs, canonical):
    edges = _pairs(3, pairs)
    assert (edges.symmetrize() is edges) == canonical
    assert_same_edges(edges.symmetrize(), old_symmetrize(edges))


def test_widest_node_ids_take_the_fast_path():
    top = (1 << 32) - 2
    edges = _canonical(top + 1, [(0, top), (top, top), (top // 2, 0), (1, top)])
    assert edges.symmetrize() is edges
    assert_same_edges(edges.symmetrize(), old_symmetrize(edges))


@given(
    num_nodes=st.integers(1, 40),
    num_edges=st.integers(0, 200),
    symmetric=st.booleans(),
    num_hosts=st.sampled_from(HOSTS + (300,)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_hvc_and_cvc_place_edges_as_before(
    num_nodes, num_edges, symmetric, num_hosts, seed
):
    edges = random_edges(
        np.random.default_rng(seed), num_nodes, num_edges, False
    )
    if symmetric:
        edges = edges.symmetrize()
    for policy, old_assign in (("hvc", old_hvc_assign), ("cvc", old_cvc_assign)):
        mine = make_partitioner(policy).assign(edges, num_hosts)
        theirs = old_assign(edges, num_hosts)
        for name in ("master_host", "edge_host"):
            assert getattr(mine, name).dtype == np.int32, (policy, name)
            assert_same_array(
                getattr(mine, name), getattr(theirs, name), f"{policy} {name}"
            )


# -- (iv) per-host content signatures ----------------------------------------


def test_signature_digest_is_the_old_digest():
    # Host 0 owns {0, 1} and two edges, host 1 owns {2, 3, 5} and mirrors
    # node 0 and node 4, host 2 owns {4} and no edge; node 5 is isolated.
    edges = EdgeList(
        6,
        np.array([0, 1, 2, 3, 0], dtype=np.uint32),
        np.array([1, 2, 0, 4, 1], dtype=np.uint32),
        np.array([4, 1, 7, 2, 4], dtype=np.uint32),
    )
    assignment = EdgeAssignment(
        3,
        np.array([0, 0, 1, 1, 2, 1], dtype=np.int32),
        np.array([0, 0, 1, 1, 0], dtype=np.int32),
    )
    signatures = [
        signature_of_host(edges, assignment, host, "hand") for host in range(3)
    ]
    assert signatures == [
        old_signature_of_host(edges, assignment, host, "hand")
        for host in range(3)
    ]
    assert len(set(signatures)) == 3
