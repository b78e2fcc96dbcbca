"""Deliberately-broken vertex programs: one per sync-contract rule.

Each class here violates exactly the invariant its name says (plus, in a
few cases, the over-declaration warning that logically accompanies the
violation).  ``tests/analysis`` imports them to prove every lint rule
fires; the runnable ones double as runtime-sanitizer victims.  The file
is also a valid ``repro lint --module`` target.

They are all small variants of BFS so the broken declaration is the
*only* difference from a correct program.  The endpoint-sensitive
fixtures inline the push relaxation in their own ``step`` — the lint
pass infers endpoints from the method body itself, so factoring the
relaxation into a shared helper would hide it from the checker (exactly
as it would for a real user's program).
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
from repro.core.sync_structures import (
    ADD,
    ASSIGN,
    MIN,
    FieldSpec,
    ReductionOp,
)
from repro.partition.base import LocalPartition
from repro.partition.strategy import OperatorClass
from repro.runtime.timing import WorkStats

INFINITY = np.uint32(np.iinfo(np.uint32).max)

BOTH_ENDS = frozenset({"source", "destination"})

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
        frontier = np.zeros(part.num_nodes, dtype=bool)
        if part.has_proxy(ctx.source):
            frontier[part.to_local(ctx.source)] = True
        return frontier


def _relax(part, state, frontier) -> StepOutcome:
    """Push relaxation for the fixtures whose defect is declaration-only."""
    dist = state["dist"]
    usable = frontier & (dist != INFINITY)
    src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
    updated = np.zeros(part.num_nodes, dtype=bool)
    work = WorkStats(
        edges_processed=len(dst), nodes_processed=int(usable.sum())
    )
    if len(dst) == 0:
        return StepOutcome(updated=updated, work=work)
    candidate = np.minimum(
        dist[src_rep].astype(np.int64) + 1, int(INFINITY)
    ).astype(np.uint32)
    before = dist.copy()
    np.minimum.at(dist, dst, candidate)
    updated = dist != before
    return StepOutcome(updated=updated, work=work)


class WrongWriteEndpoint(_BrokenBFSBase):
    """GL001: writes at the destination, declares ``writes={"source"}``.

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
        dist = state["dist"]
        usable = frontier & (dist != INFINITY)
        src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
        updated = np.zeros(part.num_nodes, dtype=bool)
        work = WorkStats(len(dst), int(usable.sum()))
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        candidate = np.minimum(
            dist[src_rep].astype(np.int64) + 1, int(INFINITY)
        ).astype(np.uint32)
        before = dist.copy()
        np.minimum.at(dist, dst, candidate)
        updated = dist != before
        return StepOutcome(updated=updated, work=work)


class WrongReadEndpoint(_BrokenBFSBase):
    """GL002: reads at the destination, declares ``reads={"source"}``.

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
        usable = frontier & (dist != INFINITY)
        src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
        updated = np.zeros(part.num_nodes, dtype=bool)
        work = WorkStats(len(dst), int(usable.sum()))
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        candidate = np.minimum(
            dist[src_rep].astype(np.int64) + 1, int(INFINITY)
        ).astype(np.uint32)
        improving = candidate < dist[dst]  # destination-side settled check
        dst = dst[improving]
        candidate = candidate[improving]
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        before = dist.copy()
        np.minimum.at(dist, dst, candidate)
        updated = dist != before
        return StepOutcome(updated=updated, work=work)


class UnsyncedWrite(_BrokenBFSBase):
    """GL003: scatters to ``state["hops"]`` but never synchronizes it."""

    name = "unsynced-write"

    def make_state(self, part, ctx) -> Dict:
        state = super().make_state(part, ctx)
        state["hops"] = np.zeros(part.num_nodes, dtype=np.uint32)
        return state

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [FieldSpec(name="dist", values=state["dist"], reduce_op=MIN)]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        outcome = _relax(part, state, frontier)
        hops = state["hops"]
        dist = state["dist"]
        usable = frontier & (dist != INFINITY)
        _, dst, _ = gather_frontier_edges(part.graph, usable)
        np.maximum.at(hops, dst, np.uint32(1))
        return outcome


class OverDeclaredWrite(_BrokenBFSBase):
    """GL004: declares writes at both endpoints, writes only one."""

    name = "over-declared-write"

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [
            FieldSpec(
                name="dist",
                values=state["dist"],
                reduce_op=MIN,
                writes=BOTH_ENDS,
            )
        ]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        dist = state["dist"]
        usable = frontier & (dist != INFINITY)
        src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
        updated = np.zeros(part.num_nodes, dtype=bool)
        work = WorkStats(len(dst), int(usable.sum()))
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        candidate = np.minimum(
            dist[src_rep].astype(np.int64) + 1, int(INFINITY)
        ).astype(np.uint32)
        before = dist.copy()
        np.minimum.at(dist, dst, candidate)
        updated = dist != before
        return StepOutcome(updated=updated, work=work)


class OverDeclaredRead(_BrokenBFSBase):
    """GL005: declares reads at both endpoints, reads only the source."""

    name = "over-declared-read"

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [
            FieldSpec(
                name="dist",
                values=state["dist"],
                reduce_op=MIN,
                reads=BOTH_ENDS,
            )
        ]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        dist = state["dist"]
        usable = frontier & (dist != INFINITY)
        src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
        updated = np.zeros(part.num_nodes, dtype=bool)
        work = WorkStats(len(dst), int(usable.sum()))
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        candidate = np.minimum(
            dist[src_rep].astype(np.int64) + 1, int(INFINITY)
        ).astype(np.uint32)
        before = dist.copy()
        np.minimum.at(dist, dst, candidate)
        updated = dist != before
        return StepOutcome(updated=updated, work=work)


class PhantomPull(_BrokenBFSBase):
    """GL006: ``supports_pull=True`` with a push-only step."""

    name = "phantom-pull"
    supports_pull = True

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [FieldSpec(name="dist", values=state["dist"], reduce_op=MIN)]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        return _relax(part, state, frontier)


class UnsafeLocalIteration(_BrokenBFSBase):
    """GL007: local fixpoint iteration over a non-idempotent reduction."""

    name = "unsafe-local-iteration"
    iterate_locally = True

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [FieldSpec(name="dist", values=state["dist"], reduce_op=ADD)]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        return _relax(part, state, frontier)


class SameArrayHook(_BrokenBFSBase):
    """GL008: a master-side hook on a same-array (non-derived) field."""

    name = "same-array-hook"

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [
            FieldSpec(
                name="dist",
                values=state["dist"],
                reduce_op=MIN,
                on_master_after_reduce=lambda changed: changed,
            )
        ]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        return _relax(part, state, frontier)


class NonCommutativeReduce(_BrokenBFSBase):
    """GL009: synchronizes with the order-dependent ``assign``."""

    name = "non-commutative-reduce"

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [
            FieldSpec(name="dist", values=state["dist"], reduce_op=ASSIGN)
        ]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        return _relax(part, state, frontier)


class MislabeledPull(_BrokenBFSBase):
    """GL010: declares a PULL operator but gathers forward edges only."""

    name = "mislabeled-pull"
    operator_class = OperatorClass.PULL

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [FieldSpec(name="dist", values=state["dist"], reduce_op=MIN)]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        dist = state["dist"]
        usable = frontier & (dist != INFINITY)
        src_rep, dst, _ = gather_frontier_edges(part.graph, usable)
        updated = np.zeros(part.num_nodes, dtype=bool)
        work = WorkStats(len(dst), int(usable.sum()))
        if len(dst) == 0:
            return StepOutcome(updated=updated, work=work)
        candidate = np.minimum(
            dist[src_rep].astype(np.int64) + 1, int(INFINITY)
        ).astype(np.uint32)
        before = dist.copy()
        np.minimum.at(dist, dst, candidate)
        updated = dist != before
        return StepOutcome(updated=updated, work=work)


class RowMixingWideReduce(_BrokenBFSBase):
    """GL011: a wide (n, d) field reduced with a row-mixing combine.

    ``ROWMIX`` measures clean under every 1-D reduction law, so only the
    row-wise probe over matrix samples can reject it.
    """

    name = "rowmix-wide-reduce"

    def make_state(self, part, ctx) -> Dict:
        state = super().make_state(part, ctx)
        state["votes"] = np.zeros((part.num_nodes, 4), dtype=np.float64)
        return state

    def make_fields(self, part, state) -> List[FieldSpec]:
        return [
            FieldSpec(name="dist", values=state["dist"], reduce_op=MIN),
            FieldSpec(name="votes", values=state["votes"], reduce_op=ROWMIX),
        ]

    def step(self, part, state, frontier, direction="push") -> StepOutcome:
        return _relax(part, state, frontier)


#: Static rule -> the fixture class that must trigger it.
RULE_FIXTURES = {
    "GL001": WrongWriteEndpoint,
    "GL002": WrongReadEndpoint,
    "GL003": UnsyncedWrite,
    "GL004": OverDeclaredWrite,
    "GL005": OverDeclaredRead,
    "GL006": PhantomPull,
    "GL007": UnsafeLocalIteration,
    "GL008": SameArrayHook,
    "GL009": NonCommutativeReduce,
    "GL010": MislabeledPull,
    "GL011": RowMixingWideReduce,
}
