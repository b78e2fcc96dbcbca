"""Betweenness centrality vs a Brandes oracle.

BC's backward phase is the only workload whose field writes at the edge
*source*, so these tests double as the integration tests of the
``sync<WriteLocation, ReadLocation>`` generality.
"""

from collections import deque

import numpy as np
import pytest

from repro.graph.generators import path_graph, star_graph
from repro.systems import prepare_input, run_app


def brandes_dependency(edges, source):
    """Single-source Brandes dependency scores (the oracle)."""
    n = edges.num_nodes
    adjacency = [[] for _ in range(n)]
    for s, d in zip(edges.src.tolist(), edges.dst.tolist()):
        adjacency[s].append(d)
    dist = [-1] * n
    sigma = [0.0] * n
    dist[source] = 0
    sigma[source] = 1.0
    order = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    delta = [0.0] * n
    for v in reversed(order):
        for w in adjacency[v]:
            if dist[w] == dist[v] + 1:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
    return np.array(delta)


def distributed_bc(edges, system="d-galois", **kwargs):
    result = run_app(system, "bc", edges, **kwargs)
    got = result.executor.gather_result("delta")
    return result, got


@pytest.mark.parametrize("policy", ["oec", "iec", "cvc", "hvc"])
def test_matches_brandes_all_policies(small_rmat, policy):
    prep = prepare_input("bc", small_rmat)
    expected = brandes_dependency(prep.edges, prep.ctx.source)
    _, got = distributed_bc(small_rmat, num_hosts=4, policy=policy)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("system", ["d-ligra", "d-irgl", "d-hybrid"])
def test_matches_brandes_systems(small_rmat, system):
    prep = prepare_input("bc", small_rmat)
    expected = brandes_dependency(prep.edges, prep.ctx.source)
    _, got = distributed_bc(small_rmat, system=system, num_hosts=4)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("num_hosts", [1, 2, 8])
def test_matches_brandes_host_counts(small_rmat, num_hosts):
    prep = prepare_input("bc", small_rmat)
    expected = brandes_dependency(prep.edges, prep.ctx.source)
    _, got = distributed_bc(small_rmat, num_hosts=num_hosts, policy="cvc")
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


def test_path_graph_dependencies():
    """On a path 0->..->n-1 from source 0, delta[i] = n-1-i."""
    n = 12
    edges = path_graph(n)
    _, got = distributed_bc(edges, num_hosts=3, policy="oec", source=0)
    expected = np.array([n - 1 - i for i in range(n)], dtype=float)
    np.testing.assert_allclose(got, expected)


def test_star_graph_dependencies():
    """Star hub: every leaf is reached directly; no intermediaries."""
    edges = star_graph(8)
    _, got = distributed_bc(edges, num_hosts=2, policy="cvc", source=0)
    expected = np.zeros(8)
    expected[0] = 7.0  # source accumulates its leaves' dependencies
    np.testing.assert_allclose(got, expected)


def test_rounds_cover_both_phases(small_rmat):
    """One executor's result spans the forward and backward stages."""
    result, _ = distributed_bc(small_rmat, num_hosts=4, policy="cvc")
    assert result.app == "bc"
    assert result.converged
    # At least (depth) forward rounds plus (depth) backward rounds.
    assert result.num_rounds >= 4
    indices = [record.round_index for record in result.rounds]
    assert indices == list(range(1, len(indices) + 1))


def test_sigma_counts_are_integers(small_rmat):
    """Shortest-path counts must come out exact (they are whole numbers)."""
    result, _ = distributed_bc(small_rmat, num_hosts=4, policy="hvc")
    executor = result.executor
    sigma = executor.app.gather_master_values(
        executor.partitioned.partitions, executor.states, "sigma"
    )
    assert np.allclose(sigma, np.round(sigma))


@pytest.mark.parametrize("runtime", ["simulated", "process"])
def test_one_memoization_exchange(small_rmat, runtime):
    """The backward stage rebinds with the address books the forward
    stage holds: bc pays exactly bfs's exchange on the same layout."""
    workers = 2 if runtime == "process" else None
    result, _ = distributed_bc(
        small_rmat, num_hosts=4, policy="cvc", runtime=runtime, workers=workers
    )
    bfs = run_app("d-galois", "bfs", small_rmat, num_hosts=4, policy="cvc")
    assert result.construction_bytes == bfs.construction_bytes > 0
    assert result.executor.states[0]["stage"] == 1
