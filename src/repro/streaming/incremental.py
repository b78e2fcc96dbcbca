"""Incremental recomputation plans: restart only from the affected frontier.

After a mutation batch, most converged values are still correct — the
communication savings live in *not* recomputing them (the DistGNN
observation, applied to analytics; KickStarter's trimming, Vora et al.,
ASPLOS 2017).  A plan names the vertices whose values must be **torn**
(reset to their fresh ``make_state`` value) and the vertices that must
**push** in the first resumed round (the frontier); everything else
resumes from its converged value.

One planner serves every program whose spec passes the stabilization
certificate (:func:`repro.analysis.dataflow.certificate_for`: data-driven
frontier, idempotent reductions, no master hooks, monotone kernels) and
can migrate; it reads everything from the spec, never an app name:

* **seeds** — a vertex's seed is its fresh ``make_state`` value over the
  new layout; a vertex whose old value equals its seed is *seeded* and
  never torn (deletions cannot move a value already at its seed);
* **support** — an old edge ``u -> v`` supports ``v`` when some phase's
  guard and edge filter hold and its kernel, evaluated on ``u``'s old
  value and the edge weight, equals ``v``'s old value (the spec's own
  fragment text, rendered by the codegen's renderer over global arrays);
* **tear** — the destinations of deleted support edges, closed over the
  surviving support edges and never entering a seeded vertex; any other
  unseeded vertex no surviving support path from a root (a seeded
  initial-frontier vertex) reaches is torn too, and new vertices are;
* **frontier** — torn initial-frontier vertices, plus every vertex a cold
  run would push (initial frontier or off its seed, passing a push
  guard) that has a new-graph edge into the tear or is the source of an
  inserted edge.

Every other program replays: fresh state over the **delta-patched**
partition, so identity is trivial and the savings come from
construction (the patch exchange and warm partition reuse) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.dataflow import certificate_for
from repro.apps.base import AppContext, VertexProgram
from repro.compiler.program_codegen import render_fragment
from repro.graph.edgelist import EdgeList
from repro.partition.base import PartitionedGraph
from repro.runtime.migration import gather_frontier, gather_global
from repro.streaming.batch import MutationEffect


@dataclass
class IncrementalPlan:
    """How to resume an app after a mutation batch.

    Attributes:
        app_name: Application the plan was computed for.
        strategy: ``"certified"`` or ``"replay"``.
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


def _holds(text: Optional[str], scope: dict, **placeholders) -> np.ndarray:
    """Evaluate a guard/filter fragment (``None`` holds everywhere)."""
    if text is None:
        return np.True_
    return eval(render_fragment(text, **placeholders), scope)


def _spread(mask: np.ndarray, src, dst, stop: np.ndarray) -> np.ndarray:
    """Grow ``mask`` along ``src -> dst`` until closed, never into ``stop``."""
    while True:
        grow = mask[src] & ~mask[dst] & ~stop[dst]
        if not grow.any():
            return mask
        mask[dst[grow]] = True


def plan_incremental(
    app: VertexProgram,
    old_edges: EdgeList,
    new_edges: EdgeList,
    effect: MutationEffect,
    old_values: Dict[str, np.ndarray],
    new_partitioned: PartitionedGraph,
    ctx: AppContext,
) -> IncrementalPlan:
    """Compute the resume plan for ``app`` after ``effect``.

    ``old_edges``/``new_edges`` are the *prepared* (canonical) lists the
    partitions were built from — symmetrized for cc — ``old_values``
    maps the app's per-node state keys to their converged global arrays
    on the old graph, and ``new_partitioned``/``ctx`` are the new
    version's layout and context (the seeds are read from them).
    """
    certificate = certificate_for(app)
    if not (certificate and certificate.self_stabilizing and app.supports_migration):
        return IncrementalPlan(app.name, "replay", full_restart=True)
    spec = app.spec
    parts = new_partitioned.partitions
    states = [app.make_state(part, ctx) for part in parts]
    initial = gather_frontier(
        new_partitioned,
        [app.initial_frontier(p, s, ctx) for p, s in zip(parts, states)],
    )
    seed = {key: gather_global(new_partitioned, states, key) for key in old_values}
    value = {}
    for key, fresh in seed.items():
        value[key] = fresh.copy()
        value[key][: effect.old_num_nodes] = old_values[key]
    targets = {target for phase in spec.phases for target in phase.targets}
    seeded = np.logical_and.reduce([value[f] == seed[f] for f in targets])
    scope = dict(spec.constants, np=np)
    scope.update((k, v) for k, v in states[0].items() if np.ndim(v) == 0)

    # Support: which old edges carry their destination's value.
    src, dst = old_edges.src.astype(np.int64), old_edges.dst.astype(np.int64)
    weights = np.ones(len(src), dtype=np.int64) if old_edges.weight is None else (
        old_edges.weight.astype(np.int64)
    )
    supports = {"forward": np.zeros(len(src), dtype=bool)}
    supports["transpose"] = supports["forward"].copy()
    for phase in spec.phases:
        s, d = (src, dst) if phase.orientation == "forward" else (dst, src)
        edges = dict(scope, **value, src_rep=s, dst=d, weights=weights)
        ends = dict(src="{f}[src_rep]", dst="{f}[dst]", local="{f}")
        holds = _holds(phase.guard, edges, local="{f}[src_rep]") & _holds(
            phase.edge_filter, edges, **ends
        )
        for target, kernel in phase.scatters:
            if kernel is not None:
                candidate = eval(render_fragment(kernel, **ends), edges)
                supports[phase.orientation] |= holds & (
                    candidate == value[target][d]
                )
    forward, transpose = supports["forward"], supports["transpose"]
    sup_src = np.concatenate([src[forward], dst[transpose]])
    sup_dst = np.concatenate([dst[forward], src[transpose]])
    deleted = np.concatenate(
        [effect.deleted_mask[forward], effect.deleted_mask[transpose]]
    )

    # Tear: the closure of deleted support, then every vertex left with
    # no surviving support path from a root; new vertices start cold.
    torn = (np.bincount(sup_dst[deleted], minlength=len(seeded)) > 0) & ~seeded
    sup_src, sup_dst = sup_src[~deleted], sup_dst[~deleted]
    torn = _spread(torn, sup_src, sup_dst, seeded)
    torn[effect.old_num_nodes :] = True
    grounded = _spread(initial & seeded & ~torn, sup_src, sup_dst, torn)
    torn |= ~(seeded | grounded)

    # Frontier: whoever a cold run would push, where it can reach the
    # tear or an inserted edge.
    vertices = dict(scope)
    for key, fresh in seed.items():
        reset = torn.reshape((-1,) + (1,) * (fresh.ndim - 1))
        vertices[key] = np.where(reset, fresh, value[key])
    active = initial | ~(seeded | torn)
    frontier = initial & torn
    nsrc, ndst = new_edges.src.astype(np.int64), new_edges.dst.astype(np.int64)
    inserted = slice(new_edges.num_edges - effect.inserted_count, None)
    for phase in spec.phases:
        if phase.kind != "frontier_push":
            continue
        s, d = (nsrc, ndst) if phase.orientation == "forward" else (ndst, nsrc)
        pushes = active & _holds(phase.guard, vertices, local="{f}")
        frontier[s[pushes[s] & torn[d]]] = True
        frontier[s[inserted][pushes[s[inserted]]]] = True
    return IncrementalPlan(
        app.name, "certified", full_restart=False, affected=torn,
        frontier=frontier,
    )
