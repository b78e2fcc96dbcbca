"""Betweenness centrality (single-source Brandes) — a two-phase app.

BC is the classic Gluon ecosystem benchmark that needs more than the
source->destination sync flow: the *backward* dependency accumulation
writes at the **source** of each edge and reads at the **destination**,
exercising the full ``sync<WriteLocation, ReadLocation>`` generality of the
API (Figure 4).

Phase 1 (forward): level-synchronous BFS computing, per node, its depth
``dist`` and its shortest-path count ``sigma``.  ``sigma`` uses the
reduce/broadcast split of an ADD field: partial counts accumulate in
``sigma_acc`` (reduced to masters), the master folds them into the
canonical ``sigma`` and broadcasts it.

Phase 2 (backward): dependencies flow one BFS level per round, deepest
first: ``delta[u] += sigma[u]/sigma[v] * (1 + delta[v])`` over edges
``(u, v)`` with ``dist[v] == dist[u] + 1``.  Partial dependencies
accumulate in ``delta_acc`` (written at edge *sources*), masters fold and
broadcast ``delta`` to the destination-side readers.

The two phases run as two executor passes sharing per-host state; the
transition point (the global deepest level) is a scalar all-reduce.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.apps.base import (
    AppContext,
    StepOutcome,
    VertexProgram,
    gather_frontier_edges,
)
from repro.compiler.spec import PhaseSpec, derive_phase_access
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.partition.base import LocalPartition
from repro.partition.strategy import OperatorClass
from repro.runtime.stats import RunResult
from repro.runtime.timing import WorkStats

INFINITY = np.uint32(np.iinfo(np.uint32).max)

# -- declarative phase descriptions (endpoint derivation only) --------------
#
# BC's sweeps stay handwritten (the level counter and the two-executor
# drive don't fit the codegen templates), but the FieldSpec endpoints are
# *derived* from these phase descriptions — the same
# :func:`derive_phase_access` rule the compiled apps go through — instead
# of being hand-declared location sets.

#: Forward sweep, distance relaxation: the kernel folds in the
#: ``dist[dst] > level`` accept filter (a destination-side read).
_FORWARD_RELAX = PhaseSpec(
    name="relax",
    kind="frontier_push",
    target="dist",
    kernel="np.where({dst.dist} > level, np.uint32(level + 1), {dst.dist})",
    guard="{dist} == level",
)

#: Forward sweep, shortest-path counting: push ``sigma`` along accepted
#: edges into the ADD accumulator.
_FORWARD_COUNT = PhaseSpec(
    name="count",
    kind="frontier_push",
    target="sigma_acc",
    kernel="{src.sigma}",
    guard="{dist} == level",
)

#: Backward sweep: dependency accumulation over *transposed* edges — the
#: active node sits at the original edge's destination, the write lands
#: at its source.  The kernel folds in the ``dist[pred] == level - 1``
#: predecessor filter.
_BACKWARD_DEP = PhaseSpec(
    name="dependency",
    kind="frontier_push",
    target="delta_acc",
    kernel=(
        "np.where({dst.dist} == level - 1, "
        "{dst.sigma} / np.maximum({src.sigma}, 1.0) * (1.0 + {src.delta}), "
        "0.0)"
    ),
    guard="{dist} == level",
    orientation="transpose",
)

_BC_PHASES = (_FORWARD_RELAX, _FORWARD_COUNT, _BACKWARD_DEP)


def _derived_endpoints(field, read_surface=None):
    """Union :func:`derive_phase_access` over every BC phase."""
    writes, reads = set(), set()
    for phase in _BC_PHASES:
        w, r = derive_phase_access(phase, field, read_surface=read_surface)
        writes |= w
        reads |= r
    return frozenset(writes), frozenset(reads)


DIST_WRITES, DIST_READS = _derived_endpoints("dist")
SIGMA_WRITES, SIGMA_READS = _derived_endpoints("sigma_acc", "sigma")
DELTA_WRITES, DELTA_READS = _derived_endpoints("delta_acc", "delta")


class _ForwardBC(VertexProgram):
    """Forward sweep: BFS levels + shortest-path counts."""

    name = "bc-forward"
    operator_class = OperatorClass.PUSH
    iterate_locally = False  # sigma needs strict level synchronization
    uses_frontier = True

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        n = part.num_nodes
        dist = np.full(n, INFINITY, dtype=np.uint32)
        sigma = np.zeros(n, dtype=np.float64)
        if part.has_proxy(ctx.source):
            lid = part.to_local(ctx.source)
            dist[lid] = 0
            sigma[lid] = 1.0
        return {
            "dist": dist,
            "sigma": sigma,
            "sigma_acc": np.zeros(n, dtype=np.float64),
            "level": 0,
        }

    def make_fields(self, part: LocalPartition, state: Dict) -> List[FieldSpec]:
        def fold_sigma(changed_mask: np.ndarray) -> np.ndarray:
            m = part.num_masters
            sigma = state["sigma"]
            acc = state["sigma_acc"]
            changed = acc[:m] != 0.0
            sigma[:m] += acc[:m]
            acc[:m] = 0.0
            dirty = np.zeros(part.num_nodes, dtype=bool)
            dirty[:m] = changed
            return dirty

        return [
            # dist derives both-endpoint reads: the source-side guard
            # pushes level+1, the destination-side filter rejects
            # already-settled nodes, and the backward sweep reads it on
            # both ends of the transposed edges.
            FieldSpec(
                name="dist",
                values=state["dist"],
                reduce_op=MIN,
                writes=DIST_WRITES,
                reads=DIST_READS,
            ),
            FieldSpec(
                name="sigma_acc",
                values=state["sigma_acc"],
                reduce_op=ADD,
                broadcast_values=state["sigma"],
                on_master_after_reduce=fold_sigma,
                writes=SIGMA_WRITES,
                # Derived both-endpoint reads: backward reads sigma at
                # the node *and* its predecessors.
                reads=SIGMA_READS,
            ),
        ]

    def initial_frontier(
        self, part: LocalPartition, state: Dict, ctx: AppContext
    ) -> np.ndarray:
        frontier = np.zeros(part.num_nodes, dtype=bool)
        if part.has_proxy(ctx.source):
            frontier[part.to_local(ctx.source)] = True
        return frontier

    def step(
        self,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
        direction: str = "push",
    ) -> StepOutcome:
        level = state["level"]
        state["level"] = level + 1
        dist = state["dist"]
        sigma = state["sigma"]
        sigma_acc = state["sigma_acc"]
        active = frontier & (dist == level)
        src_rep, dst, _ = gather_frontier_edges(part.graph, active)
        updated = np.zeros(part.num_nodes, dtype=bool)
        work = WorkStats(len(dst), int(active.sum()))
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        accept = dist[dst] > level  # unreached or being set this level
        dst = dst[accept]
        src_rep = src_rep[accept]
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        np.minimum.at(dist, dst, np.uint32(level + 1))
        np.add.at(sigma_acc, dst, sigma[src_rep])
        updated[dst] = True
        return StepOutcome(updated=updated, work=work)


class _BackwardBC(VertexProgram):
    """Backward sweep: dependency accumulation, deepest level first."""

    name = "bc-backward"
    operator_class = OperatorClass.PUSH
    iterate_locally = False
    uses_frontier = True

    def __init__(self, forward_states: List[Dict], max_level: int) -> None:
        self._forward_states = forward_states
        self._max_level = max_level

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        state = self._forward_states[part.host]
        n = part.num_nodes
        state["delta"] = np.zeros(n, dtype=np.float64)
        state["delta_acc"] = np.zeros(n, dtype=np.float64)
        state["blevel"] = self._max_level
        return state

    def make_fields(self, part: LocalPartition, state: Dict) -> List[FieldSpec]:
        def fold_delta(changed_mask: np.ndarray) -> np.ndarray:
            m = part.num_masters
            delta = state["delta"]
            acc = state["delta_acc"]
            changed = acc[:m] != 0.0
            delta[:m] += acc[:m]
            acc[:m] = 0.0
            dirty = np.zeros(part.num_nodes, dtype=bool)
            dirty[:m] = changed
            return dirty

        # Dependencies are *written at the edge source* and *read at the
        # edge destination* — the reverse of the §3.2 flow.  The sets are
        # derived from the transposed phase description, not declared.
        return [
            FieldSpec(
                name="delta_acc",
                values=state["delta_acc"],
                reduce_op=ADD,
                broadcast_values=state["delta"],
                on_master_after_reduce=fold_delta,
                writes=DELTA_WRITES,
                reads=DELTA_READS,
            )
        ]

    def initial_frontier(
        self, part: LocalPartition, state: Dict, ctx: AppContext
    ) -> np.ndarray:
        return np.ones(part.num_nodes, dtype=bool)

    def step(
        self,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
        direction: str = "push",
    ) -> StepOutcome:
        level = state["blevel"]
        state["blevel"] = level - 1
        updated = np.zeros(part.num_nodes, dtype=bool)
        if level < 1:
            return StepOutcome(updated=updated, work=WorkStats(0, 0))
        dist = state["dist"]
        sigma = state["sigma"]
        delta = state["delta"]
        delta_acc = state["delta_acc"]
        settled_here = dist == level
        transpose = part.graph.transpose()
        node_rep, pred, _ = gather_frontier_edges(transpose, settled_here)
        work = WorkStats(len(pred), int(settled_here.sum()))
        if len(pred) == 0:
            return StepOutcome(updated=updated, work=work)
        is_predecessor = dist[pred] == level - 1
        node_rep = node_rep[is_predecessor]
        pred = pred[is_predecessor]
        if len(pred) == 0:
            return StepOutcome(updated=updated, work=work)
        contribution = (
            sigma[pred]
            / np.maximum(sigma[node_rep], 1.0)
            * (1.0 + delta[node_rep])
        )
        np.add.at(delta_acc, pred, contribution)
        updated[pred] = True
        return StepOutcome(updated=updated, work=work)


class BetweennessCentrality(VertexProgram):
    """Single-source betweenness centrality (two-phase facade).

    Not a single-operator vertex program: :meth:`run_phases` drives the
    forward and backward sweeps through two executor passes.  The
    ``multi_phase`` flag routes :func:`repro.systems.run_app` here.
    """

    name = "bc"
    operator_class = OperatorClass.PUSH
    needs_weights = False
    symmetrize_input = False
    multi_phase = True

    def run_phases(self, make_executor, max_rounds: int = 100_000) -> RunResult:
        """Run forward + backward sweeps; returns a merged RunResult.

        ``make_executor(phase_app)`` returns a fresh executor for one
        sweep over the shared partition (a run plan's ``executor``).
        """
        forward_executor = make_executor(_ForwardBC())
        forward_result = forward_executor.run(max_rounds=max_rounds)

        dist = forward_executor.gather_result("dist")
        finite = dist[dist != INFINITY]
        max_level = int(finite.max()) if len(finite) else 0

        backward_executor = make_executor(
            _BackwardBC(forward_executor.states, max_level)
        )
        backward_result = backward_executor.run(max_rounds=max_rounds)

        merged = RunResult(
            system=forward_result.system,
            app=self.name,
            policy=forward_result.policy,
            num_hosts=forward_result.num_hosts,
        )
        merged.rounds = forward_result.rounds + backward_result.rounds
        for index, record in enumerate(merged.rounds, start=1):
            record.round_index = index
        # The second memoization exchange is the re-partitioning path of
        # §4.1's footnote; both construction phases are counted.
        merged.construction_bytes = (
            forward_result.construction_bytes
            + backward_result.construction_bytes
        )
        merged.construction_time = (
            forward_result.construction_time
            + backward_result.construction_time
        )
        merged.converged = (
            forward_result.converged and backward_result.converged
        )
        merged.translations = (
            forward_result.translations + backward_result.translations
        )
        for source in (forward_result, backward_result):
            for mode, count in source.mode_counts.items():
                merged.mode_counts[mode] = (
                    merged.mode_counts.get(mode, 0) + count
                )
        merged.replication_factor = forward_result.replication_factor
        merged.runtime = forward_result.runtime
        merged.wall_rounds_s = (
            forward_result.wall_rounds_s + backward_result.wall_rounds_s
        )
        merged.sanitizer_findings = (
            forward_result.sanitizer_findings
            + backward_result.sanitizer_findings
        )
        merged.executor = backward_executor  # type: ignore[attr-defined]
        return merged
