"""The certified planner against the per-app planners it replaced.

``old_plan_min_plus`` and ``old_plan_component`` are the bfs/sssp and cc
planners the spec-derived planner replaced, kept verbatim as oracles: on
weights >= 1 the bfs/sssp masks must be the old ones exactly, cc's tear
may only shrink, and every resumed stream must equal a cold run bitwise.
"""

from typing import Dict, Optional
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.base import AppContext
from repro.graph.edgelist import EdgeList
from repro.streaming import incremental
from repro.streaming.batch import MutationEffect, random_mutation_batch
from repro.streaming.incremental import IncrementalPlan
from repro.streaming.session import StreamingSession
from tests.conftest import DISTRIBUTED_SYSTEMS, random_edges, sweep_settings

_UINT32_INF = np.iinfo(np.uint32).max


def _inserted_sources(
    new_edges: EdgeList, effect: MutationEffect
) -> np.ndarray:
    """Sources of the batch's inserted edges (appended at the list tail)."""
    if effect.inserted_count == 0:
        return np.empty(0, dtype=np.int64)
    return new_edges.src[new_edges.num_edges - effect.inserted_count :].astype(
        np.int64
    )


def old_plan_min_plus(
    app_name: str,
    old_edges: EdgeList,
    new_edges: EdgeList,
    effect: MutationEffect,
    old_values: Dict[str, np.ndarray],
    ctx: AppContext,
) -> Optional[IncrementalPlan]:
    old_dist = old_values["dist"]
    n_new = effect.new_num_nodes
    source = int(ctx.source)
    if not 0 <= source < len(old_dist):
        return None  # source outside the old graph: replay
    weights = (
        old_edges.weight
        if old_edges.weight is not None
        else np.ones(old_edges.num_edges, dtype=np.uint32)
    )
    if len(weights) and int(weights.min()) < 1:
        return None  # zero weights: the support DAG may cycle; replay
    dist = np.full(n_new, _UINT32_INF, dtype=np.uint32)
    dist[: len(old_dist)] = old_dist
    src = old_edges.src.astype(np.int64)
    dst = old_edges.dst.astype(np.int64)
    finite = dist[src] != _UINT32_INF
    support = finite & (
        dist[src].astype(np.uint64) + weights == dist[dst].astype(np.uint64)
    )
    affected = np.zeros(n_new, dtype=bool)
    affected[dst[support & effect.deleted_mask]] = True
    surviving = support & ~effect.deleted_mask
    s_src = src[surviving]
    s_dst = dst[surviving]
    # Transitive closure down the old shortest-path DAG (acyclic under
    # weights >= 1, so this terminates in <= diameter passes).
    while True:
        spread = affected[s_src] & ~affected[s_dst]
        if not spread.any():
            break
        affected[s_dst[spread]] = True
    affected[len(old_dist) :] = True  # new vertices start cold
    affected[source] = False  # the root's 0 is axiomatic, never derived
    reset = dist.copy()
    reset[affected] = _UINT32_INF
    reset[source] = dist[source]
    frontier = np.zeros(n_new, dtype=bool)
    nsrc = new_edges.src.astype(np.int64)
    ndst = new_edges.dst.astype(np.int64)
    boundary = (
        ~affected[nsrc] & (reset[nsrc] != _UINT32_INF) & affected[ndst]
    )
    frontier[nsrc[boundary]] = True
    inserted_src = _inserted_sources(new_edges, effect)
    if len(inserted_src):
        frontier[inserted_src[reset[inserted_src] != _UINT32_INF]] = True
    return IncrementalPlan(
        app_name=app_name,
        strategy="min-plus",
        full_restart=False,
        affected=affected,
        frontier=frontier,
    )


def old_plan_component(
    app_name: str,
    old_edges: EdgeList,
    new_edges: EdgeList,
    effect: MutationEffect,
    old_values: Dict[str, np.ndarray],
    ctx: AppContext,
) -> Optional[IncrementalPlan]:
    labels = old_values["label"]
    n_new = effect.new_num_nodes
    affected = np.zeros(n_new, dtype=bool)
    if effect.deleted_mask.any():
        torn = np.unique(
            np.concatenate(
                [
                    labels[old_edges.src[effect.deleted_mask].astype(np.int64)],
                    labels[old_edges.dst[effect.deleted_mask].astype(np.int64)],
                ]
            )
        )
        affected[: len(labels)] = np.isin(labels, torn)
    affected[len(labels) :] = True  # new vertices start cold
    # Affected vertices reset to their own gid and must re-propagate, so
    # they all push; inserted edges can merge untouched components, so
    # their endpoints push too (symmetrized input means both directions
    # appear as sources).
    frontier = affected.copy()
    inserted_src = _inserted_sources(new_edges, effect)
    if len(inserted_src):
        frontier[inserted_src] = True
    return IncrementalPlan(
        app_name=app_name,
        strategy="component",
        full_restart=False,
        affected=affected,
        frontier=frontier,
    )


@sweep_settings(240)  # about 60 per engine
@given(
    system=st.sampled_from(DISTRIBUTED_SYSTEMS),
    app=st.sampled_from(
        ["bfs", "sssp", "cc", "bfs@optimized", "sssp@optimized", "cc@optimized"]
    ),
    hosts=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from(["oec", "iec", "cvc", "hvc", "jagged", "random"]),
    seed=st.integers(0, 2**16),
    n=st.integers(6, 40),
    density=st.integers(1, 5),
    add_nodes=st.integers(0, 2),
    delete_nodes=st.integers(0, 1),
)
def test_certified_planner_against_old_planners(
    system, app, hosts, policy, seed, n, density, add_nodes, delete_nodes
):
    base = random_edges(seed, n, n * density, weighted=app.startswith("sssp"))
    session = StreamingSession(system, app, base, hosts, policy=policy)
    session.run()
    old_planner = old_plan_component if app.startswith("cc") else old_plan_min_plus
    plans = []

    def recording(*args):
        plans.append((args, incremental.plan_incremental(*args)))
        return plans[-1][1]

    rng = np.random.default_rng(seed)
    with mock.patch("repro.streaming.session.plan_incremental", recording):
        for _ in range(2):
            step = session.apply_batch(
                random_mutation_batch(
                    session.version.edges, rng, delete_fraction=0.1,
                    insert_fraction=0.1, add_nodes=add_nodes,
                    delete_node_count=delete_nodes,
                )
            )
            assert step.strategy == "certified"
            warm = session.values()
            cold = session.cold_values(session.cold_run())
            for key in cold:
                assert warm[key].tobytes() == cold[key].tobytes(), key
    for (app_obj, old_e, new_e, effect, values, _, ctx), new in plans:
        old = old_planner(app, old_e, new_e, effect, values, ctx)
        if app.startswith("cc"):
            assert not (new.affected & ~old.affected).any()
        else:
            assert new.affected.tolist() == old.affected.tolist()
            assert new.frontier.tolist() == old.frontier.tolist()


def test_dligra_bfs_stream_equals_cold_run():
    """d-ligra pulls whenever the frontier is dense; an insert that
    lowers a finite distance must still reach the pulling vertex, so the
    warm answer is the cold one (it was too high before bfs's pull lost
    its ``dist == INFINITY`` select)."""
    base = random_edges(0, 30, 90, weighted=False)
    session = StreamingSession("d-ligra", "bfs", base, 2, policy="cvc")
    session.run()
    rng = np.random.default_rng(0)
    step = session.apply_batch(
        random_mutation_batch(
            session.version.edges, rng, delete_fraction=0.1, insert_fraction=0.1
        )
    )
    assert step.strategy == "certified"
    warm = session.values()
    cold = session.cold_values(session.cold_run())
    assert warm["dist"].tobytes() == cold["dist"].tobytes()
