"""Shared fixtures: small deterministic graphs and reference algorithms."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from repro.core.substrate import bind_sync_plans
from repro.graph.edgelist import EdgeList
from repro.graph.generators import erdos_renyi, grid_graph, path_graph, rmat
from repro.runtime.round import synchronize


#: The distributed engines a sweep draws its system from.
DISTRIBUTED_SYSTEMS = ("d-galois", "d-ligra", "d-irgl", "d-hybrid")

#: Draws per sweep under ``--hypothesis-profile=deep``: the streaming
#: planner oracle and the confined-recovery sweep at full depth.  Run
#: them alone: the profile also raises every Hypothesis test that sets
#: no ``max_examples`` of its own to this count.
DEEP_EXAMPLES = 3000
settings.register_profile("deep", max_examples=DEEP_EXAMPLES, deadline=None)


def sweep_settings(examples: int) -> settings:
    """A sweep's settings: ``examples`` draws under the default profile,
    :data:`DEEP_EXAMPLES` under the deep one."""
    deep = settings.default is settings.get_profile("deep")
    return settings(max_examples=DEEP_EXAMPLES if deep else examples, deadline=None)


def random_edges(seed: int, n: int, m: int, weighted: bool) -> EdgeList:
    """``m`` uniform random edges over ``n`` nodes (weights 1..19)."""
    rng = np.random.default_rng(seed)
    return EdgeList(
        n,
        rng.integers(0, n, size=m, dtype=np.uint32),
        rng.integers(0, n, size=m, dtype=np.uint32),
        rng.integers(1, 20, size=m, dtype=np.uint32) if weighted else None,
    )


@pytest.fixture(scope="session")
def tiny_edges() -> EdgeList:
    """The paper's running example graph (Figure 2): 10 nodes A..J.

    Node letters map to integers A=0 .. J=9.
    """
    pairs = [
        (0, 1),  # A -> B
        (0, 4),  # A -> E
        (1, 2),  # B -> C
        (1, 6),  # B -> G
        (4, 5),  # E -> F
        (5, 2),  # F -> C
        (5, 8),  # F -> I
        (2, 3),  # C -> D
        (6, 7),  # G -> H
        (2, 9),  # C -> J
        (6, 9),  # G -> J
        (3, 7),  # D -> H
    ]
    src = np.array([p[0] for p in pairs], dtype=np.uint32)
    dst = np.array([p[1] for p in pairs], dtype=np.uint32)
    return EdgeList(10, src, dst)


@pytest.fixture(scope="session")
def small_rmat() -> EdgeList:
    """A small scale-free graph for end-to-end tests."""
    return rmat(scale=9, edge_factor=8, seed=3)


@pytest.fixture(scope="session")
def medium_rmat() -> EdgeList:
    """A medium scale-free graph for integration tests."""
    return rmat(scale=11, edge_factor=16, seed=5)


@pytest.fixture(scope="session")
def small_er() -> EdgeList:
    """A small uniform random graph (no degree skew)."""
    return erdos_renyi(300, avg_degree=6.0, seed=17)


@pytest.fixture(scope="session")
def small_grid() -> EdgeList:
    """A high-diameter grid graph."""
    return grid_graph(12, 12)


@pytest.fixture(scope="session")
def small_path() -> EdgeList:
    """A directed path (worst-case round count)."""
    return path_graph(40)


def bind_one_field(subs, fields):
    """Bind one field per host; returns each host's resolved ``FieldPlan``."""
    bind_sync_plans(
        range(len(subs)), subs, [[f] for f in fields], [s.book for s in subs]
    )
    return [sub.plan.fields[0] for sub in subs]


def sync_one_field(partitioned, subs, fields, dirty_masks, **kwargs):
    """One collective over one field per host, via the shared driver.

    A reduce-only collective is a field declared
    ``sync_phases={"reduce"}``.  The dirty sets are given, and every
    proxy the collective wrote, dirtied or refreshed is returned, as
    per-host bool masks (the collective itself takes and gives sorted
    index sets).
    """
    touched = [np.empty(0, dtype=np.intp) for _ in dirty_masks]
    bind_one_field(subs, fields)
    synchronize(
        range(len(subs)),
        subs,
        [[field] for field in fields],
        partitioned.partitions,
        [SimpleNamespace(updated=np.flatnonzero(dirty)) for dirty in dirty_masks],
        touched,
        **kwargs,
    )
    masks = [np.zeros(len(dirty), dtype=bool) for dirty in dirty_masks]
    for mask, ids in zip(masks, touched):
        mask[ids] = True
    return masks


def gather_rank(executor) -> np.ndarray:
    """pr-push's global (rank + unconsumed residual) from master values.

    At termination, each master's remaining sub-tolerance residual is
    folded in so the answer matches the fixpoint as closely as the
    tolerance allows.
    """
    return executor.gather_result("rank") + executor.gather_result("residual")


# ---------------------------------------------------------------------------
# Reference (single-machine, oracle) algorithms used across app tests.
# ---------------------------------------------------------------------------


def reference_bfs(edges: EdgeList, source: int) -> np.ndarray:
    """Oracle BFS distances; unreached nodes get uint32 max."""
    inf = np.iinfo(np.uint32).max
    dist = np.full(edges.num_nodes, inf, dtype=np.uint64)
    adjacency = [[] for _ in range(edges.num_nodes)]
    for s, d in zip(edges.src.tolist(), edges.dst.tolist()):
        adjacency[s].append(d)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] == inf:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return dist


def reference_sssp(edges: EdgeList, source: int) -> np.ndarray:
    """Oracle Dijkstra distances; unreached nodes get uint32 max."""
    import heapq

    inf = np.iinfo(np.uint32).max
    dist = np.full(edges.num_nodes, inf, dtype=np.uint64)
    adjacency = [[] for _ in range(edges.num_nodes)]
    weights = (
        edges.weight
        if edges.weight is not None
        else np.ones(edges.num_edges, dtype=np.uint32)
    )
    for s, d, w in zip(
        edges.src.tolist(), edges.dst.tolist(), weights.tolist()
    ):
        adjacency[s].append((d, w))
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_cc(edges: EdgeList) -> np.ndarray:
    """Oracle connected-component labels: min global ID per component.

    ``edges`` must already be symmetrized.
    """
    parent = np.arange(edges.num_nodes, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = int(parent[x])
        return x

    for s, d in zip(edges.src.tolist(), edges.dst.tolist()):
        rs, rd = find(s), find(d)
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)
    labels = np.array(
        [find(n) for n in range(edges.num_nodes)], dtype=np.uint64
    )
    return labels


def reference_pagerank(
    edges: EdgeList,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
) -> np.ndarray:
    """Oracle pagerank in the Galois (1-d) + d*sum formulation."""
    n = edges.num_nodes
    out_degree = np.bincount(edges.src, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 - damping, dtype=np.float64)
    src = edges.src.astype(np.int64)
    dst = edges.dst.astype(np.int64)
    for iteration in range(max_iterations):
        contrib = np.where(out_degree > 0, rank / np.maximum(out_degree, 1), 0.0)
        acc = np.zeros(n, dtype=np.float64)
        np.add.at(acc, dst, contrib[src])
        new_rank = (1.0 - damping) + damping * acc
        delta = float(np.abs(new_rank - rank).sum())
        rank = new_rank
        if iteration > 0 and delta / max(n, 1) < tolerance:
            break
    return rank


def reference_kcore(edges: EdgeList, k: int) -> np.ndarray:
    """Oracle k-core membership (1/0) by iterative peeling.

    ``edges`` must already be symmetrized; degree = out-degree.
    """
    degree = np.bincount(edges.src, minlength=edges.num_nodes).astype(
        np.int64
    )
    alive = np.ones(edges.num_nodes, dtype=np.uint64)
    adjacency = [[] for _ in range(edges.num_nodes)]
    for s, d in zip(edges.src.tolist(), edges.dst.tolist()):
        adjacency[s].append(d)
    changed = True
    while changed:
        changed = False
        for node in range(edges.num_nodes):
            if alive[node] and degree[node] < k:
                alive[node] = 0
                changed = True
                for neighbor in adjacency[node]:
                    degree[neighbor] -= 1
    return alive
