"""Streaming sessions: mutate, patch, and resume instead of recompute.

A :class:`StreamingSession` holds one application on one evolving graph
and ties the streaming pieces together: the :class:`GraphVersion` chain
(provenance hashes), :func:`delta_partition` (untouched hosts keep their
partition objects), the certified incremental planner
(:func:`plan_incremental`) and the executor's ``apply_mutations`` resume
seam (which redoes the §4.1 memoization for the rebuilt hosts only).

Lifecycle::

    session = StreamingSession("d-galois", "bfs", edges, num_hosts=4)
    session.run()                     # cold converge on version 0
    step = session.apply_batch(batch) # validate, patch, resume, converge

Each :meth:`apply_batch` produces a :class:`StreamStepResult`: the new
version's content address, the incremental plan that ran, how many hosts
were reused versus rebuilt, and the per-version
:class:`~repro.runtime.stats.RunResult` whose rounds cover only the
resumed work.  :meth:`cold_run` recomputes the current version from
scratch — the oracle every streaming result is asserted bitwise
identical to.

The session canonicalizes its base graph once at start (``deduplicate``,
plus the app's symmetrize/weight requirements) and pins the bfs/sssp
source, so every later version is a pure function of the batch sequence.
For symmetrized apps each batch is mirrored (both edge directions) before
it applies, keeping the evolving graph inside the app's input contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.errors import ExecutionError
from repro.graph.edgelist import EdgeList
from repro.observability import NULL_OBSERVABILITY
from repro.options import check_refusals
from repro.runtime.migration import migratable_keys
from repro.runtime.stats import RunResult
from repro.streaming.batch import MutationBatch
from repro.streaming.delta import delta_partition, host_signatures
from repro.streaming.incremental import plan_incremental
from repro.streaming.version import GraphVersion
from repro.systems import plan_run

def mirror_batch(batch: MutationBatch) -> MutationBatch:
    """Close a batch under edge reversal (for symmetrized-input apps).

    Every inserted and deleted ``(s, d)`` with ``s != d`` gains its
    ``(d, s)`` twin (weights mirrored), deduplicated so a batch that
    already names both directions round-trips unchanged.  Applying the
    mirrored batch to a symmetric graph yields a symmetric graph.
    """

    def closed(src, dst, weight):
        if len(src) == 0:
            return src, dst, weight
        off_diag = src != dst
        all_src = np.concatenate([src, dst[off_diag]])
        all_dst = np.concatenate([dst, src[off_diag]])
        all_w = (
            np.concatenate([weight, weight[off_diag]])
            if weight is not None
            else None
        )
        key = all_src.astype(np.uint64) << np.uint64(32) | all_dst
        _, first = np.unique(key, return_index=True)
        first.sort()
        return (
            all_src[first],
            all_dst[first],
            all_w[first] if all_w is not None else None,
        )

    ins_src, ins_dst, ins_w = closed(
        batch.insert_src, batch.insert_dst, batch.insert_weight
    )
    del_src, del_dst, _ = closed(batch.delete_src, batch.delete_dst, None)
    return MutationBatch(
        add_nodes=batch.add_nodes,
        insert_src=ins_src,
        insert_dst=ins_dst,
        insert_weight=ins_w,
        delete_src=del_src,
        delete_dst=del_dst,
        delete_nodes=batch.delete_nodes,
    )


@dataclass
class StreamStepResult:
    """One applied batch: what changed, what was saved, what it cost."""

    version: int
    content_hash: str
    batch_hash: str
    strategy: str
    affected_count: int
    frontier_count: int
    affected_fraction: float
    deleted_edges: int
    inserted_edges: int
    hosts_reused: int
    hosts_rebuilt: int
    result: RunResult

    def to_dict(self) -> dict:
        """Summary row for the CLI / bench exports."""
        return {
            "version": self.version,
            "content_hash": self.content_hash,
            "strategy": self.strategy,
            "affected": self.affected_count,
            "frontier": self.frontier_count,
            "affected_fraction": self.affected_fraction,
            "deleted_edges": self.deleted_edges,
            "inserted_edges": self.inserted_edges,
            "hosts_reused": self.hosts_reused,
            "hosts_rebuilt": self.hosts_rebuilt,
            "rounds": self.result.num_rounds,
            "comm_bytes": self.result.communication_volume,
            "comm_messages": self.result.communication_messages,
            "construction_bytes": self.result.construction_bytes,
        }


class StreamingSession:
    """One application serving one evolving graph across mutation batches.

    Args:
        system: System name (``d-galois``, ``d-ligra``, ...); resolved
            exactly as ``repro run`` resolves it.
        app_name: Application to keep converged across versions.
        edges: Base graph; deduplicated (and symmetrized/weighted per the
            app's input contract) once, then owned by the session.
        num_hosts: Host count — fixed for the session's lifetime.
        policy: Partition policy (any of the six; delta-partitioning is
            policy-agnostic).
        cache: Optional :class:`~repro.service.cache.ServiceCache`;
            version 0 is built and run through it (shared with every
            other job over the same graph, policy and host count).
        observability: Optional Observability bundle; the session records
            ``delta-partition`` / ``affected-frontier`` spans and
            ``streaming_*`` counters into it.
        Every other keyword of :func:`repro.systems.run_app` (``level``,
        ``source``, the application parameters, ``max_rounds``,
        ``compression``, ...) is forwarded to
        :func:`repro.systems.plan_run` unchanged.  What a live session
        cannot honour — the "streaming session" rows of
        :data:`repro.options.REFUSALS`: anything but a simulated,
        unsanitized, fault-free executor — raises
        :class:`ExecutionError`.
    """

    def __init__(
        self,
        system: str,
        app_name: str,
        edges: EdgeList,
        num_hosts: int,
        *,
        cache=None,
        **options,
    ) -> None:
        # Canonical base: streaming validation demands a duplicate-free
        # list, and the version chain must be a pure function of the
        # batch sequence — so normalize exactly once, up front.
        plan = plan_run(system, app_name, edges.deduplicate(), num_hosts, **options)
        check_refusals(streaming=True, **plan.execution)
        #: The current version's :class:`~repro.systems.RunPlan`.
        self.plan = plan
        self.app = plan.app
        self.num_hosts = num_hosts
        self.cache = cache
        obs = plan.observability
        if obs is None:
            obs = NULL_OBSERVABILITY
        self.tracer, self.metrics = obs.tracer, obs.metrics
        self.version = GraphVersion.initial(plan.prepared.edges)
        self.executor = None
        self.partitioned = None
        #: Per-host content signatures of the current version.
        self._signatures: List[str] = []
        self.results: List[RunResult] = []
        self.steps: List[StreamStepResult] = []

    # -- internals ---------------------------------------------------------

    def _values_of(self, executor) -> Dict[str, np.ndarray]:
        keys = migratable_keys(
            self.app,
            executor.states[0],
            executor.partitioned.partitions[0].num_nodes,
        )
        return {key: executor.gather_result(key) for key in keys}

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> RunResult:
        """Cold converge version 0; must precede :meth:`apply_batch`."""
        if self.results:
            raise ExecutionError(
                "the session already ran; apply_batch() advances it"
            )
        result = self.plan.run(self.cache)
        self.executor = result.executor  # type: ignore[attr-defined]
        self.partitioned = self.executor.partitioned
        partitioner = self.plan.partitioner
        self._signatures = host_signatures(
            self.version.edges,
            partitioner.assign(self.version.edges, self.num_hosts),
            partitioner.name,
        )
        self.results.append(result)
        return result

    def apply_batch(self, batch: MutationBatch) -> StreamStepResult:
        """Apply one mutation batch and re-converge incrementally.

        Validates the batch against the current version, advances the
        hash chain, delta-patches the partition, plans the affected
        frontier, resumes the executor (which re-memoizes the rebuilt
        hosts), and runs it to
        convergence.  Returns the step summary; the session then *is*
        the new version.
        """
        if not self.results:
            raise ExecutionError("run() the base version before mutating it")
        if self.app.symmetrize_input:
            batch = mirror_batch(batch)
        old_edges = self.version.edges
        old_partitioned = self.partitioned

        new_version, effect = self.version.apply(batch)
        new_edges = new_version.edges
        advanced = self.plan.at(new_edges)
        new_ctx = advanced.prepared.ctx

        delta_started = time.perf_counter()
        delta = delta_partition(
            old_partitioned, self._signatures, new_edges, self.plan.partitioner
        )
        delta_elapsed = time.perf_counter() - delta_started

        plan_started = time.perf_counter()
        plan = plan_incremental(
            self.app, old_edges, new_edges, effect, self.values(),
            delta.partitioned, new_ctx,
        )
        plan_elapsed = time.perf_counter() - plan_started

        if self.tracer.enabled:
            self.tracer.record_sequential(
                "delta-partition",
                delta_elapsed,
                cat="streaming",
                version=new_version.version,
                policy=old_partitioned.policy_name,
                reused=delta.num_reused,
                rebuilt=delta.num_rebuilt,
            )
            self.tracer.record_sequential(
                "affected-frontier",
                plan_elapsed,
                cat="streaming",
                version=new_version.version,
                strategy=plan.strategy,
                affected=plan.affected_count,
                frontier=plan.frontier_count,
            )

        opened = self.executor.apply_mutations(
            delta.partitioned,
            new_ctx,
            affected=None if plan.full_restart else plan.affected,
            frontier=None if plan.full_restart else plan.frontier,
            changed_hosts=delta.rebuilt_hosts,
        )
        if self.metrics.enabled:
            self.metrics.counter("streaming_mutations_total").inc()
            self.metrics.counter("streaming_partitions_reused_total").inc(
                delta.num_reused
            )
            self.metrics.counter("streaming_partitions_rebuilt_total").inc(
                delta.num_rebuilt
            )
            self.metrics.counter("streaming_affected_vertices_total").inc(
                plan.affected_count
                if not plan.full_restart
                else new_edges.num_nodes
            )

        result = self.executor.run(max_rounds=self.plan.max_rounds, resume=opened)
        self.version = new_version
        self.partitioned = delta.partitioned
        self.plan = advanced
        self._signatures = delta.signatures
        self.results.append(result)
        step = StreamStepResult(
            version=new_version.version,
            content_hash=new_version.content_hash,
            batch_hash=new_version.batch_hash,
            strategy=plan.strategy,
            affected_count=plan.affected_count,
            frontier_count=plan.frontier_count,
            affected_fraction=plan.affected_fraction(new_edges.num_nodes),
            deleted_edges=effect.deleted_count,
            inserted_edges=effect.inserted_count,
            hosts_reused=delta.num_reused,
            hosts_rebuilt=delta.num_rebuilt,
            result=result,
        )
        self.steps.append(step)
        return step

    def replay(self, batches: List[MutationBatch]) -> List[StreamStepResult]:
        """Apply a batch stream in order (the ``--stream`` entry point)."""
        return [self.apply_batch(batch) for batch in batches]

    # -- verification ------------------------------------------------------

    def values(self) -> Dict[str, np.ndarray]:
        """Converged global arrays of the current version (master values)."""
        return self._values_of(self.executor)

    def cold_run(self) -> RunResult:
        """Recompute the current version from scratch (the oracle).

        Builds a fresh partition of the current edge list and runs a
        fresh executor to convergence — no delta, no warm state, no
        memoization reuse.  Streaming correctness means
        ``cold_values(cold_run())`` equals :meth:`values` bitwise.
        """
        return replace(self.plan, observability=None).run()

    def cold_values(self, cold_result: RunResult) -> Dict[str, np.ndarray]:
        """Global arrays of a :meth:`cold_run` result, keyed like values()."""
        return self._values_of(cold_result.executor)  # type: ignore[attr-defined]
