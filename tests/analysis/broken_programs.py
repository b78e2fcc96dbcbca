"""Deliberately-broken handwritten vertex programs.

``repro lint`` checks specs, so a handwritten program's contract is
checked where it runs: ``WrongWriteEndpoint`` and ``WrongReadEndpoint``
are the runtime sanitizer's GL201/GL202 victims, and
``UnsafeLocalIteration`` is refused when the executor binds it.  The
file defines no ``ProgramSpec``, so ``repro lint --module`` refuses it
and points to ``--sanitize``.  ``ROWMIX`` is the row-mixing reduction
the GL011 tests register.

They are all small variants of BFS so the broken declaration is the
*only* difference from a correct program.
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
from repro.core.sync_structures import ADD, MIN, FieldSpec, ReductionOp
from repro.partition.base import LocalPartition
from repro.partition.strategy import OperatorClass
from repro.runtime.timing import WorkStats

INFINITY = np.uint32(np.iinfo(np.uint32).max)

#: A reduction that is a plain max on 1-D input (so it passes every
#: GL10x law, which are measured over vectors) but rotates columns on
#: 2-D input — the row-mixing defect GL011 exists to catch.
ROWMIX = ReductionOp(
    name="rowmix",
    combine=lambda a, b: np.maximum(
        a, np.roll(b, 1, axis=-1) if b.ndim > 1 else b
    ),
    identity_for=lambda dtype: (
        np.iinfo(dtype).min
        if np.issubdtype(dtype, np.integer)
        else dtype.type(-np.inf)
    ),
    idempotent=True,
)


class _BrokenBFSBase(VertexProgram):
    """Shared BFS scaffolding; subclasses break one declaration each."""

    name = "broken-bfs"
    needs_weights = False
    operator_class = OperatorClass.PUSH

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        dist = np.full(part.num_nodes, INFINITY, dtype=np.uint32)
        if part.has_proxy(ctx.source):
            dist[part.to_local(ctx.source)] = 0
        return {"dist": dist}

    def initial_frontier(
        self, part: LocalPartition, state: Dict, ctx: AppContext
    ) -> np.ndarray:
        if part.has_proxy(ctx.source):
            return np.array([part.to_local(ctx.source)], dtype=np.intp)
        return NOTHING


#: The empty index set: frontiers and written sets are sorted local IDs.
NOTHING = np.empty(0, dtype=np.intp)


def _relax(part, state, frontier) -> StepOutcome:
    """BFS push relaxation: the fixtures' defects are declaration-only."""
    dist = state["dist"]
    usable = frontier[(dist != INFINITY)[frontier]]
    src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
    work = WorkStats(edges_processed=len(dst), nodes_processed=len(usable))
    if len(dst) == 0:
        return StepOutcome(updated=NOTHING, work=work)
    candidate = np.minimum(
        dist[src_rep].astype(np.int64) + 1, int(INFINITY)
    ).astype(np.uint32)
    before = dist.copy()
    np.minimum.at(dist, dst, candidate)
    return StepOutcome(updated=np.flatnonzero(dist != before), work=work)


class WrongWriteEndpoint(_BrokenBFSBase):
    """Writes at the destination, declares ``writes={"source"}``.

    The reduce phase only ships source-side (out-edge) mirrors, so every
    destination-mirror relaxation is silently lost — the seeded mislabel
    of EXPERIMENTS.md's worked example, and the runtime GL201 victim.
    """

    name = "wrong-write-endpoint"

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [
            FieldSpec(
                name="dist",
                values=state["dist"],
                reduce_op=MIN,
                writes={"source"},
            )
        ]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        return _relax(part, state, frontier)


class WrongReadEndpoint(_BrokenBFSBase):
    """Reads at the destination, declares ``reads={"source"}``.

    The settled-check ``dist[dst]`` consumes destination-side values the
    broadcast never refreshes (it only ships to the declared source-side
    readers) — the runtime GL202 victim.
    """

    name = "wrong-read-endpoint"

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [
            FieldSpec(
                name="dist",
                values=state["dist"],
                reduce_op=MIN,
                reads={"source"},
            )
        ]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        dist = state["dist"]
        usable = frontier[(dist != INFINITY)[frontier]]
        src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
        work = WorkStats(len(dst), len(usable))
        if len(dst) == 0:
            return StepOutcome(updated=NOTHING, work=work)
        candidate = np.minimum(
            dist[src_rep].astype(np.int64) + 1, int(INFINITY)
        ).astype(np.uint32)
        improving = candidate < dist[dst]  # destination-side settled check
        dst = dst[improving]
        candidate = candidate[improving]
        if len(dst) == 0:
            return StepOutcome(updated=NOTHING, work=work)
        before = dist.copy()
        np.minimum.at(dist, dst, candidate)
        return StepOutcome(updated=np.flatnonzero(dist != before), work=work)


class UnsafeLocalIteration(_BrokenBFSBase):
    """Local fixpoint iteration over a non-idempotent reduction: the
    executor refuses to bind it (an ADD re-applied within one round
    double-counts)."""

    name = "unsafe-local-iteration"
    iterate_locally = True

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [FieldSpec(name="dist", values=state["dist"], reduce_op=ADD)]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        return _relax(part, state, frontier)
