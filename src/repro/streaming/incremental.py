"""Incremental recomputation plans: restart only from the affected frontier.

After a mutation batch, most converged values are still correct — the
communication savings live in *not* recomputing them (the DistGNN
observation, applied to analytics).  A plan names the vertices whose
values must be **reset** (the affected set) and the vertices that must
**push** in the first resumed round (the frontier); everything else
resumes from its converged value.

Soundness arguments per strategy (bitwise identity with a cold run is
asserted by the tests; these arguments say why it holds):

``min-plus`` (bfs, sssp) — converged distances are the unique fixpoint
of min-plus relaxation.  A vertex's value can only become *stale-high*
through an insertion (fixed by propagating from inserted-edge sources)
or *stale-low* through a deletion that removed its shortest-path
support.  The affected set is the transitive closure, over the old
shortest-path DAG (edges with ``dist[u] + w == dist[v]``), of the
vertices whose support edge was deleted; those reset to infinity.  The
frontier is every unaffected finite vertex with a new-graph edge into
the affected set, plus inserted-edge sources.  With weights >= 1 the
support DAG is acyclic, making the unaffected-values-remain-achievable
induction sound; a zero weight anywhere falls back to a full replay.

``component`` (cc) — labels are min-gid per component, another unique
fixpoint.  Deleting an edge can only change labels inside the old
component(s) of its endpoints, so those components reset wholesale
(label := own gid) and re-converge among themselves; insertions only
merge, so their endpoints join the frontier and the smaller label
flows.  Requires symmetrized input (which cc already mandates).

``replay`` (pagerank and every other app) — pagerank's converged ranks
depend on the whole *iteration trajectory* (residual-based stopping),
not on a schedule-independent fixpoint, so warm-starting cannot be
bitwise-faithful.  The plan honestly requests a full restart: fresh
state replayed over the **delta-patched** partition.  Identity is then
trivial, and the streaming savings come from construction (the patch
exchange and warm partition reuse) rather than from skipped rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.base import AppContext
from repro.apps.specs import base_app_name
from repro.graph.edgelist import EdgeList
from repro.streaming.batch import MutationEffect

_UINT32_INF = np.iinfo(np.uint32).max


@dataclass
class IncrementalPlan:
    """How to resume an app after a mutation batch.

    Attributes:
        app_name: Application the plan was computed for.
        strategy: ``"min-plus"``, ``"component"``, or ``"replay"``.
        full_restart: True when the app must re-run from scratch (over
            the delta-patched partition).
        affected: Bool mask over the *new* global node IDs of vertices
            whose state resets to its initial value (None on replay).
        frontier: Bool mask of vertices pushing in the first resumed
            round (None on replay).
    """

    app_name: str
    strategy: str
    full_restart: bool
    affected: Optional[np.ndarray] = None
    frontier: Optional[np.ndarray] = None

    @property
    def affected_count(self) -> int:
        return int(self.affected.sum()) if self.affected is not None else -1

    @property
    def frontier_count(self) -> int:
        return int(self.frontier.sum()) if self.frontier is not None else -1

    def affected_fraction(self, num_nodes: int) -> float:
        if self.full_restart or num_nodes == 0:
            return 1.0
        return self.affected_count / num_nodes


def _inserted_sources(
    new_edges: EdgeList, effect: MutationEffect
) -> np.ndarray:
    """Sources of the batch's inserted edges (appended at the list tail)."""
    if effect.inserted_count == 0:
        return np.empty(0, dtype=np.int64)
    return new_edges.src[new_edges.num_edges - effect.inserted_count :].astype(
        np.int64
    )


def _plan_min_plus(
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


def _plan_component(
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


_PLANNERS = {
    "bfs": _plan_min_plus,
    "sssp": _plan_min_plus,
    "cc": _plan_component,
}


def plan_incremental(
    app_name: str,
    old_edges: EdgeList,
    new_edges: EdgeList,
    effect: MutationEffect,
    old_values: Dict[str, np.ndarray],
    ctx: AppContext,
) -> IncrementalPlan:
    """Compute the resume plan for ``app_name`` after ``effect``.

    ``old_edges``/``new_edges`` are the *prepared* (canonical) lists the
    partition was built from — symmetrized for cc — and ``old_values``
    maps the app's synchronized state keys to their converged global
    arrays on the old graph.  Apps without a value-incremental strategy
    get an honest full-restart plan.  An ``<app>@optimized`` build plans
    like its bare name: same operator, same fixpoint.
    """
    planner = _PLANNERS.get(base_app_name(app_name))
    if planner is not None:
        plan = planner(
            app_name, old_edges, new_edges, effect, old_values, ctx
        )
        if plan is not None:
            return plan
    return IncrementalPlan(
        app_name=app_name, strategy="replay", full_restart=True
    )
