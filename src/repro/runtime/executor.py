"""The BSP distributed executor (§2.2).

Execution proceeds in rounds: every host applies the operator to its own
partition (through its engine), then all hosts take part in a global
communication phase run by the Gluon substrate — reduce, master-side
apply, broadcast.  The round body itself (compute, the collective, the
round-close pricing) is :mod:`repro.runtime.round`, shared with the
process runtime's workers; the executor owns everything around it.
Every field's sub-messages are staged into per-peer channels and each
peer receives one aggregated multi-field buffer per phase
(``2 × peer_pairs`` messages per round instead of
``2 × num_fields × peer_pairs``).

The partition is temporally invariant (§4), so *binding a layout* — new
fabric, address books, substrates, fields, frontier — is one operation,
:meth:`DistributedExecutor._bind`; set-up, both crash recoveries,
``repartition`` and ``apply_mutations`` are its callers.  Snapshots and
crash survival are :mod:`repro.resilience.recovery`'s, round spans and
metrics :mod:`repro.observability.rounds`', state carry-over
:mod:`repro.runtime.migration`'s: plain functions called from here.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.optimization import OptimizationLevel
from repro.core.substrate import (
    GluonSubstrate,
    PreparedSync,
    SubstrateStats,
    bind_sync_plans,
    setup_substrates,
    setup_substrates_from_books,
)
from repro.core.sync_structures import FieldSpec
from repro.errors import ExecutionError
from repro.network.cost_model import CostModel, LCI_PARAMETERS, NetworkParameters
from repro.network.stats import CommStats
from repro.network.transport import InProcessTransport
from repro.observability import NULL_OBSERVABILITY, Observability
from repro.observability.rounds import (
    message_observer,
    publish_round_metrics,
    publish_run_metrics,
    trace_round,
)
from repro.partition.base import PartitionedGraph
from repro.partition.strategy import check_strategy_legal
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector
from repro.resilience.recovery import (
    ResilienceConfig,
    survive_crash,
    take_checkpoint,
)
from repro.resilience.transport import FaultStats, FaultyTransport
from repro.runtime.migration import gather_frontier, migrate_states
from repro.runtime.round import close_exchange
from repro.runtime.stats import RoundRecord, RunResult

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from repro.apps.base import AppContext, VertexProgram

#: The round-execution backends ``runtime=`` may name.
RUNTIMES = ("simulated", "process")

_SINGLE_USE = (
    "this executor's run already converged; DistributedExecutor is "
    "single-use per completed run — construct a new executor (per job), "
    "or use apply_mutations() for versioned resumption over a mutated graph"
)


class DistributedExecutor:
    """Runs one application on one partitioned graph.

    ``engine`` may be a single compute engine (homogeneous cluster) or one
    engine per host — the heterogeneous CPU+GPU clusters of the paper's
    Figure 1, where the device-optimized engine is chosen per host at
    runtime (§5.7).  The Gluon substrate is engine-agnostic, so nothing
    else changes.
    """

    def __init__(
        self,
        partitioned: PartitionedGraph,
        engine,
        app: VertexProgram,
        ctx: AppContext,
        level: OptimizationLevel = OptimizationLevel.OSTI,
        network: NetworkParameters = LCI_PARAMETERS,
        enable_sync: bool = True,
        system_name: Optional[str] = None,
        resilience: Optional[ResilienceConfig] = None,
        observability: Optional[Observability] = None,
        prepared_sync: Optional[PreparedSync] = None,
        sanitize: bool = False,
        runtime: str = "simulated",
        workers: Optional[int] = None,
    ) -> None:
        if not enable_sync and partitioned.num_hosts > 1:
            raise ExecutionError(
                "synchronization can only be disabled on a single host"
            )
        if runtime not in RUNTIMES:
            raise ExecutionError(
                f"unknown runtime {runtime!r} (known: {', '.join(RUNTIMES)})"
            )
        # Direct construction gets the verdict ``plan_run`` gives (imported
        # lazily: repro.options imports this module).
        from repro.options import check_refusals

        check_refusals(
            runtime=runtime, workers=workers, sanitize=sanitize, resilience=resilience
        )
        self.runtime = runtime
        self.workers = workers
        check_strategy_legal(
            partitioned.strategy, app.operator_class, app.is_reduction
        )
        self.partitioned = partitioned
        if isinstance(engine, (list, tuple)):
            if len(engine) != partitioned.num_hosts:
                raise ExecutionError(
                    f"got {len(engine)} engines for "
                    f"{partitioned.num_hosts} hosts"
                )
            self.engines = list(engine)
        else:
            self.engines = [engine] * partitioned.num_hosts
        self.app = app
        self.ctx = ctx
        self.level = level
        self.cost_model = CostModel(network)
        self.enable_sync = enable_sync
        # -- proxy-access sanitizer (the ``--sanitize`` debug mode) ---------
        self.sanitizer = None
        if sanitize:
            # Imported lazily: repro.analysis pulls in the experiment
            # harness, which imports this module.
            from repro.analysis.sanitizer import ProxySanitizer

            self.sanitizer = ProxySanitizer(app)
        if system_name is None:
            names = {e.name for e in self.engines}
            system_name = f"{names.pop() if len(names) == 1 else 'heterogeneous'}+gluon"
        self.system_name = system_name
        self.transport: Optional[InProcessTransport] = None
        #: Warm-start sync structures (from the service's partition cache);
        #: used once by :meth:`_setup` to skip the memoization exchange.
        self.prepared_sync = prepared_sync
        #: Bytes the memoization exchange cost (actual or credited) —
        #: harvested into the partition cache after a successful run.
        self._memoization_bytes = 0
        self.substrates: List[GluonSubstrate] = []
        self.states: List[Dict] = []
        self.fields: List[List[FieldSpec]] = []
        #: Per-host sorted local IDs of the proxies active next round
        #: (:mod:`repro.core.index_sets`).  The round runners advance
        #: them; recovery restores them.
        self.frontiers: List[np.ndarray] = []
        #: "new" until the first :meth:`run`, then "open" or "converged".
        #: The result itself is its caller's — it owns this executor
        #: (``result.executor``) and comes back through ``run(resume=)``.
        self._run_state = "new"
        #: Graph-version counter: 0 for the construction-time graph,
        #: +1 per :meth:`apply_mutations` (the streaming resume seam).
        self.version = 0
        #: Counters of this run's substrates that are no longer live —
        #: replaced by a later :meth:`_bind`, or living in the process
        #: runtime's workers, which report them at ``finish``.
        self.retired_stats = SubstrateStats()
        # -- resilience (fault injection + checkpointing + recovery) -------
        self.resilience = resilience
        self.fault_injector: Optional[FaultInjector] = None
        #: The run's transient-fault counters: every fabric a bind births
        #: (and the process runtime's workers, at ``finish``) adds to them.
        self.fault_stats: Optional[FaultStats] = None
        self.checkpoints: Optional[CheckpointManager] = None
        if resilience is not None:
            if resilience.plan is not None and not resilience.plan.is_empty:
                resilience.plan.validate_hosts(partitioned.num_hosts)
                self.fault_injector = FaultInjector(resilience.plan)
                self.fault_stats = FaultStats()
            self.checkpoints = resilience.make_checkpoint_manager()
        # Recovery accounting waiting to be attached to the next round.
        self._pending_recovery = (0, 0.0)
        # -- observability (tracing + metrics; no-op by default) ------------
        #: The tracer owns the run's only simulated cursor; every span —
        #: here, in ``resilience`` and in ``streaming`` — is placed from it.
        self.obs = observability if observability is not None else NULL_OBSERVABILITY
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        #: The round-execution backend (created on the first run() call):
        #: InProcessRunner for the simulated runtime, ProcessRunner for
        #: ``--runtime process``.  It holds no link back.
        self._runner = None

    # -- binding a layout (§4: memoize once per partition) -------------------------

    def _bind(
        self, partitioned: PartitionedGraph, ctx: AppContext,
        states: Optional[List[Dict]] = None,
        frontiers: Optional[List[np.ndarray]] = None,
        *, books=None, changed_hosts=None,
    ):
        """Bind the executor to a layout: the one place memoization is (re)done.

        Retires the old substrates' counters, births a new fabric, builds
        one substrate per host — from ``books`` when already memoized (warm
        start), else from a memoization exchange in which only
        ``changed_hosts`` of the layout being replaced take part (``None``
        = all: a cold exchange) — and closes that exchange; derives the
        field specs from ``states`` (``None`` = fresh ``app.make_state``),
        resolves the substrates' sync plans for them, and seeds
        ``frontiers`` (``None`` = ``app.initial_frontier``).
        Returns the exchange's ``(bytes, simulated_time)``, priced like a
        regular round; which account they land in is the caller's business.
        """
        for sub in self.substrates:
            self.retired_stats.absorb(sub.stats)
        previous = None
        if changed_hosts is not None and self.substrates:
            previous = (
                [sub.book for sub in self.substrates], self.partitioned, changed_hosts
            )
        self.partitioned, self.ctx = partitioned, ctx
        num_hosts = partitioned.num_hosts
        observer = None
        if self.metrics.enabled:
            observer = message_observer(self.metrics, num_hosts)
        stats = CommStats(num_hosts, observer)
        # The cluster fabric: faulty when a fault plan is injected.
        if self.fault_injector is not None:
            transport = FaultyTransport(
                num_hosts, self.fault_injector, stats=stats, faults=self.fault_stats
            )
        else:
            transport = InProcessTransport(num_hosts, stats)
        self.transport = transport
        self.substrates = []
        nbytes, sim_time = 0, 0.0
        if self.enable_sync:
            if books is not None:
                self.substrates = setup_substrates_from_books(
                    partitioned, transport, self.level, PreparedSync(books=books), self.metrics
                )
            else:
                self.substrates = setup_substrates(
                    partitioned, transport, self.level, self.metrics, previous=previous
                )
            nbytes, sim_time = close_exchange(transport, self.cost_model)
        parts = partitioned.partitions
        if states is None:
            states = [self.app.make_state(part, ctx) for part in parts]
        self.states = states
        self.fields = [
            self.app.make_fields(part, state)
            for part, state in zip(parts, states)
        ]
        if len({len(f) for f in self.fields}) != 1:
            raise ExecutionError("hosts disagree on synchronized field count")
        if self.app.iterate_locally:
            for spec in self.fields[0]:
                if not spec.reduce_op.idempotent:
                    raise ExecutionError(
                        f"{self.app.name}: field {spec.name!r} reduces with "
                        f"the non-idempotent {spec.reduce_op.name!r} but "
                        "iterate_locally is set — a local fixpoint would "
                        "re-apply contributions (double counting); set "
                        "iterate_locally = False"
                    )
        if self.substrates:
            bind_sync_plans(
                range(num_hosts), self.substrates, self.fields,
                [sub.book for sub in self.substrates], self.app.uses_frontier,
            )
        if frontiers is None:
            frontiers = [
                self.app.initial_frontier(part, state, ctx)
                for part, state in zip(parts, states)
            ]
        self.frontiers = frontiers
        return nbytes, sim_time

    def _charge_construction(self, result: RunResult, nbytes: int, started: float) -> float:
        """Account one bind as construction on ``result``; returns its wall."""
        elapsed = time.perf_counter() - started
        self._memoization_bytes = nbytes
        result.construction_bytes += nbytes
        result.construction_time += elapsed
        result.policy = self.partitioned.policy_name
        result.replication_factor = self.partitioned.replication_factor()
        if self.metrics.enabled:
            self.metrics.counter("construction_bytes_total").inc(nbytes)
        return elapsed

    def _setup(self, result: RunResult) -> None:
        """First bind: cold (full exchange) or warm (cached address books)."""
        started = time.perf_counter()
        prepared = self.prepared_sync if self.enable_sync else None
        nbytes, _ = self._bind(
            self.partitioned, self.ctx, books=prepared and prepared.books
        )
        if prepared is not None:
            # Warm start: no exchange ran; the original exchange's bytes
            # are credited so warm and cold results stay byte-identical.
            nbytes = prepared.memoization_bytes
        elapsed = self._charge_construction(result, nbytes, started)
        if self.tracer.enabled:
            # BSP rounds start where the setup pipeline leaves the cursor.
            self.tracer.record_sequential(
                "memoization", elapsed, cat="construction", app=self.app.name,
                policy=self.partitioned.policy_name, bytes=nbytes,
            )

    # -- main loop ---------------------------------------------------------------

    def run(self, max_rounds: int = 100_000, resume: Optional[RunResult] = None) -> RunResult:
        """Execute to global quiescence (or ``max_rounds`` more rounds).

        Without ``resume`` this starts the executor's one run.  An
        *unconverged* run continues with ``run(resume=result)``, which
        accumulates into (and returns) that same :class:`RunResult` — the
        hook that makes mid-run :meth:`repartition` possible.  A second
        fresh start raises, and so does resuming a converged result or
        another executor's: an executor is single-use per completed run,
        because its states, frontiers, transport, and checkpoint baseline
        all carry the finished execution.  Reusing one silently would
        leak that state into the next answer — the job service constructs
        a fresh executor per job for exactly this reason.
        """
        if resume is not None:
            result = self._open_run(resume, "resume")
        elif self._run_state != "new":
            raise ExecutionError(
                _SINGLE_USE if self._run_state == "converged" else
                "this executor's run is still open: continue it with run(resume=result)"
            )
        else:
            result = self._new_result()
            self._setup(result)
            self._start_runner(result)
            self._run_state = "open"
        executed = 0
        loop_start = time.perf_counter()
        try:
            while executed < max_rounds:
                executed += 1
                round_index = result.num_rounds + 1
                if self.fault_injector is not None:
                    crashed = self.fault_injector.take_crashes(round_index)
                    if crashed:
                        event = survive_crash(self, result, crashed, round_index, self._bind)
                        pending_bytes, pending_time = self._pending_recovery
                        self._pending_recovery = (
                            pending_bytes + event.recovery_bytes,
                            pending_time + event.recovery_time,
                        )
                        continue
                data = self._runner.run_round(self, round_index)
                if self.tracer.enabled:
                    trace_round(
                        self.tracer, round_index, data, app=self.app.name,
                        policy=self.partitioned.policy_name,
                        engines=[engine.name for engine in self.engines],
                    )
                if self.metrics.enabled:
                    publish_round_metrics(self.metrics, data)
                recovery_bytes, recovery_time = self._pending_recovery
                self._pending_recovery = (0, 0.0)
                result.recovery_bytes += data.fault_bytes
                result.rounds.append(
                    RoundRecord(
                        round_index=round_index,
                        comp_time_per_host=data.comp_times,
                        comm_time=data.comm_time,
                        comm_bytes=data.traffic.total_bytes,
                        comm_messages=data.traffic.num_messages,
                        active_nodes=data.active,
                        recovery_bytes=recovery_bytes + data.fault_bytes,
                        recovery_time=recovery_time,
                    )
                )
                if self.app.uses_frontier:
                    if data.active == 0:
                        # The process runtime merges its workers' state back.
                        self._runner.finish(self)
                        entries = self.app.next_stage(self.states[0], self.gather_result)
                        if entries is None:
                            result.converged = True
                            break
                        self._enter_stage(entries, result)
                elif self.app.is_globally_converged(data.residual_sum, round_index, self.ctx):
                    result.converged = True
                    break
                if self.checkpoints is not None and self.checkpoints.due(round_index):
                    take_checkpoint(self, result, round_index)
        except BaseException:
            self._runner.abort()
            raise
        result.wall_rounds_s += time.perf_counter() - loop_start
        if result.converged:
            self._runner.finish(self)
            self._run_state = "converged"
        self._finalize(result)
        return result

    def _open_run(self, result: RunResult, operation: str) -> RunResult:
        """``result`` if it is this executor's open run; refused by name else."""
        if getattr(result, "executor", None) is not self:
            raise ExecutionError(
                f"cannot {operation} a run not started by this executor: pass "
                "the result its run() returned"
            )
        if result.converged:
            raise ExecutionError(f"cannot {operation} a converged run: {_SINGLE_USE}")
        return result

    def _start_runner(self, result: RunResult) -> None:
        """Create and start the round backend."""
        # Imported lazily: the runners import repro.runtime.round, and
        # importing the repro.runtime package imports this module.
        from repro.parallel.runner import start_runner

        started = time.perf_counter()
        self._runner = start_runner(self)
        # Forking a worker fleet and laying out its state arena and rings
        # is real construction work: charge it where the partition build and
        # memoization exchange already land.
        result.construction_time += time.perf_counter() - started

    def _enter_stage(self, entries: Dict, result: RunResult):
        """Move every host into a staged program's next stage: ``entries``
        set, the layout rebound warm with the address books already held
        — no second exchange (§4: memoize once per partition) — under a
        fresh runner."""
        started = time.perf_counter()
        for state in self.states:
            state.update(entries)
        self._bind(self.partitioned, self.ctx, self.states, books=[s.book for s in self.substrates])
        self._start_runner(result)
        if self.tracer.enabled:
            # Overlaps the timeline (wall time, not a simulated stall).
            self.tracer.record(
                "stage", cat="construction", begin_s=self.tracer.cursor,
                duration_s=time.perf_counter() - started, **entries,
            )

    def _new_result(self) -> RunResult:
        """An empty result for the graph version the executor now holds;
        it owns the executor (nothing here links back to it)."""
        result = RunResult(
            system=self.system_name,
            app=self.app.name,
            policy=self.partitioned.policy_name,
            num_hosts=self.partitioned.num_hosts,
            runtime=self.runtime,
        )
        result.executor = self  # type: ignore[attr-defined]
        return result

    # -- changing the layout: repartitioning (§4.1 footnote) and streaming ---------

    def _relayout(
        self, feature: str, new_partitioned: PartitionedGraph, ctx: AppContext,
        result: RunResult, frontier: Optional[np.ndarray],
        keep: Optional[np.ndarray] = None, changed_hosts=None,
    ) -> float:
        """Adopt a new layout: the one body of repartition / apply_mutations.

        ``frontier`` is a global bool mask: per-node state is carried over
        wherever ``keep`` (``None`` = everywhere) allows and the mask seeds
        the new per-host frontiers; ``frontier=None`` is a full restart
        (fresh state, the app's initial frontier).  ``changed_hosts`` are
        the hosts whose :class:`LocalPartition` is not the object the
        current layout holds (``None`` = all of them).  The rebind is
        charged to ``result`` as construction; returns its wall time.
        """
        from repro.options import check_refusals  # lazily: it imports this module

        check_refusals(runtime=self.runtime, operation=feature)
        if new_partitioned.num_hosts != self.partitioned.num_hosts:
            raise ExecutionError(
                f"{feature} to a different host count is not supported"
            )
        check_strategy_legal(
            new_partitioned.strategy, self.app.operator_class, self.app.is_reduction
        )
        started = time.perf_counter()
        states = frontiers = None
        if frontier is not None:
            states = migrate_states(
                self.partitioned, self.states, new_partitioned, self.app, ctx, keep
            )
            frontiers = [
                np.flatnonzero(frontier[part.local_to_global])
                for part in new_partitioned.partitions
            ]
        nbytes, _ = self._bind(
            new_partitioned, ctx, states, frontiers, changed_hosts=changed_hosts
        )
        return self._charge_construction(result, nbytes, started)

    def repartition(self, new_partitioned: PartitionedGraph, result: RunResult) -> None:
        """Replace the partition mid-run; memoization is redone (§4.1).

        Canonical (master) values of every per-node state array migrate to
        the new layout, new substrates run a fresh memoization exchange
        (its traffic is added to ``result``'s construction bytes), and the
        frontier is rebuilt so ``run(resume=result)`` resumes seamlessly —
        i.e. :meth:`apply_mutations` with nothing mutated and everything
        kept, on the open run ``result`` that keeps accumulating.
        """
        self._open_run(result, "repartition")
        if new_partitioned.num_global_nodes != self.partitioned.num_global_nodes:
            raise ExecutionError(
                "repartitioning must keep the same global graph"
            )
        frontier = gather_frontier(self.partitioned, self.frontiers)
        elapsed = self._relayout(
            "repartition", new_partitioned, self.ctx, result, frontier
        )
        if self.tracer.enabled:
            # Overlaps the timeline (wall time, not a simulated stall).
            self.tracer.record(
                "repartition", cat="construction", begin_s=self.tracer.cursor,
                duration_s=elapsed, policy=new_partitioned.policy_name,
            )
        # Checkpoints describe the old layout; restart the baseline.
        if self.checkpoints is not None:
            take_checkpoint(self, result, result.num_rounds, rebaseline=True)

    def apply_mutations(
        self,
        new_partitioned: PartitionedGraph,
        new_ctx,
        *,
        affected: Optional[np.ndarray] = None,
        frontier: Optional[np.ndarray] = None,
        changed_hosts=None,
    ) -> RunResult:
        """Adopt a delta-partitioned graph and arm a versioned resumption.

        This is the streaming seam that relaxes the single-use run
        guard: it may only be called on a *converged* executor, swaps in
        ``new_partitioned`` (typically from
        :func:`repro.streaming.delta.delta_partition`), migrates
        canonical state to the new layout, resets the ``affected``
        vertices to their fresh-init values, seeds the ``frontier``, and
        returns a fresh, open :class:`RunResult` that ``run(resume=)``
        continues — one result per graph version.

        ``changed_hosts`` are the hosts the delta rebuilt; every other
        host's :class:`LocalPartition` must be the very object the
        executor already holds, so only the changed hosts take part in
        the memoization exchange (whose — much smaller — traffic is the
        construction communication this version pays); ``None`` is a full
        exchange.  ``affected=None`` requests a full restart: fresh
        state and initial frontier over the new partition (how
        trajectory-dependent apps like pagerank stay bitwise-faithful).
        """
        if self._run_state != "converged":
            raise ExecutionError(
                "apply_mutations requires a converged run to resume from "
                "(use repartition() to change layout mid-run)"
            )
        if (affected is None) != (frontier is None):
            raise ExecutionError(
                "affected and frontier must be given together"
            )
        keep = None
        if affected is not None:
            affected = np.ascontiguousarray(affected, dtype=bool)
            frontier = np.ascontiguousarray(frontier, dtype=bool)
            for name, mask in (("affected", affected), ("frontier", frontier)):
                if len(mask) != new_partitioned.num_global_nodes:
                    raise ExecutionError(
                        f"{name} mask has {len(mask)} entries for "
                        f"{new_partitioned.num_global_nodes} global nodes"
                    )
            # Affected vertices keep the fresh init — the reset.
            keep = ~affected
        # Fresh per-version result: construction costs of the delta land
        # here, rounds accumulate on it from the next run() call.
        result = self._new_result()
        elapsed = self._relayout(
            "apply_mutations", new_partitioned, new_ctx, result, frontier, keep,
            changed_hosts,
        )
        # Old substrates retired with the already-finalized previous
        # result; the new version accounts only its own work.
        self.retired_stats = SubstrateStats()
        self.version += 1
        self._run_state = "open"
        if self.tracer.enabled:
            self.tracer.record_sequential(
                "apply-mutations", elapsed, cat="streaming", version=self.version,
                policy=new_partitioned.policy_name, bytes=self._memoization_bytes,
                affected=int(affected.sum()) if keep is not None else -1,
                frontier=int(frontier.sum()) if keep is not None else -1,
            )
        if self.metrics.enabled:
            self.metrics.counter("streaming_resumes_total").inc()
        # Checkpoints describe the old version; restart the baseline.
        if self.checkpoints is not None:
            take_checkpoint(self, result, 0, rebaseline=True)
        return result

    # -- results ----------------------------------------------------------------------

    def _finalize(self, result: RunResult) -> None:
        if self.sanitizer is not None:
            # Recomputed whole (not appended) so resumed runs stay correct.
            result.sanitizer_findings = self.sanitizer.findings_as_dicts()
        # Recomputed (not accumulated) so resumed runs stay correct.
        totals = SubstrateStats()
        for stats in [self.retired_stats] + [sub.stats for sub in self.substrates]:
            totals.absorb(stats)
        result.translations = totals.translations
        result.mode_counts = totals.mode_counts
        if self.metrics.enabled:
            publish_run_metrics(self.metrics, result, self.fault_stats)

    def gather_result(self, key: str) -> np.ndarray:
        """Assemble the global result array for state field ``key``."""
        return self.app.gather_master_values(
            self.partitioned.partitions, self.states, key
        )

    def harvest_prepared_sync(self) -> Optional[PreparedSync]:
        """Extract the memoized sync structures for reuse by later runs.

        Returns ``None`` when there is nothing worth caching (sync
        disabled, or setup never ran).  The books are purely structural —
        a function of the partition alone — so they stay valid even after
        crashes and recoveries rebuilt the substrates.
        """
        if not self.substrates:
            return None
        return PreparedSync(
            books=[sub.book for sub in self.substrates],
            memoization_bytes=self._memoization_bytes,
        )
