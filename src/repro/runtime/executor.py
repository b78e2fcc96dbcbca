"""The BSP distributed executor (§2.2).

Execution proceeds in rounds: every host applies the operator to its own
partition (through its engine), then all hosts take part in a global
communication phase run by the Gluon substrate — reduce, master-side
apply, broadcast.  The round body itself (compute, the collective, the
round-close pricing) is :mod:`repro.runtime.round`, shared with the
process runtime's workers; the executor owns everything around it.  By
default every field's sub-messages are staged into per-peer channels and
each peer receives one aggregated multi-field buffer per phase
(``2 × peer_pairs`` messages per round instead of
``2 × num_fields × peer_pairs``).  ``aggregate_comm=False`` (the CLI's
``--no-aggregation``) puts the communication plane in pass-through mode
— one transport message per (field, peer, phase) — as an ablation; both
modes produce bitwise-identical application results.  The executor is
also the metrology layer: it records each round's simulated computation
time, exact byte trace and alpha-beta communication time, and maps them
onto trace spans and metrics.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.optimization import OptimizationLevel
from repro.core.substrate import (
    GluonSubstrate,
    PreparedSync,
    setup_substrates,
    setup_substrates_from_books,
)
from repro.core.sync_structures import FieldSpec
from repro.errors import ExecutionError
from repro.network.cost_model import CostModel, LCI_PARAMETERS, NetworkParameters
from repro.network.stats import CommStats
from repro.network.transport import InProcessTransport
from repro.observability import NULL_OBSERVABILITY, Observability
from repro.partition.base import PartitionedGraph
from repro.partition.strategy import check_strategy_legal
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector
from repro.resilience.recovery import ResilienceConfig, recover
from repro.resilience.transport import FaultyTransport
from repro.runtime.stats import RoundRecord, RunResult
from repro.runtime.timing import round_communication_time

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from repro.apps.base import AppContext, VertexProgram
    from repro.parallel.runner import RoundData


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
        aggregate_comm: bool = True,
        sanitize: bool = False,
        runtime: str = "simulated",
        workers: Optional[int] = None,
    ) -> None:
        if not enable_sync and partitioned.num_hosts > 1:
            raise ExecutionError(
                "synchronization can only be disabled on a single host"
            )
        if runtime not in ("simulated", "process"):
            raise ExecutionError(
                f"unknown runtime {runtime!r} (known: simulated, process)"
            )
        if workers is not None and runtime != "process":
            raise ExecutionError(
                "workers only applies to the process runtime"
            )
        if runtime == "process":
            # These features need the coordinator to observe host state
            # mid-round, which only the simulated runtime can do.
            if sanitize:
                raise ExecutionError(
                    "the proxy sanitizer requires --runtime simulated"
                )
            if resilience is not None:
                if resilience.plan is not None and resilience.plan.crashes:
                    raise ExecutionError(
                        "crash-fault plans require --runtime simulated "
                        "(transient drop/corrupt/dup faults are fine)"
                    )
                if resilience.checkpoint_every > 0:
                    raise ExecutionError(
                        "periodic checkpoints require --runtime simulated"
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
        self.engine = self.engines[0]
        self.app = app
        self.ctx = ctx
        self.level = level
        self.cost_model = CostModel(network)
        self.enable_sync = enable_sync
        #: Cross-field message aggregation: one framed buffer per peer per
        #: phase (False = the ``--no-aggregation`` per-field ablation).
        self.aggregate_comm = aggregate_comm
        # -- proxy-access sanitizer (the ``--sanitize`` debug mode) ---------
        self.sanitizer = None
        if sanitize:
            # Imported lazily: repro.analysis pulls in the experiment
            # harness, which imports this module.
            from repro.analysis.sanitizer import ProxySanitizer

            self.sanitizer = ProxySanitizer(app)
        if system_name is not None:
            self.system_name = system_name
        elif len(set(e.name for e in self.engines)) > 1:
            self.system_name = "heterogeneous+gluon"
        else:
            self.system_name = f"{self.engine.name}+gluon"
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
        self._result: Optional[RunResult] = None
        self._frontiers: List[np.ndarray] = []
        #: Graph-version counter: 0 for the construction-time graph,
        #: +1 per :meth:`apply_mutations` (the streaming resume seam).
        self.version = 0
        # Substrate stats carried over from before a repartition.
        self._carried_translations = 0
        self._carried_mode_counts: Dict = {}
        # -- resilience (fault injection + checkpointing + recovery) -------
        self.resilience = resilience
        self.fault_injector: Optional[FaultInjector] = None
        self.checkpoints: Optional[CheckpointManager] = None
        if resilience is not None:
            if resilience.plan is not None and not resilience.plan.is_empty:
                resilience.plan.validate_hosts(partitioned.num_hosts)
                self.fault_injector = FaultInjector(resilience.plan)
            self.checkpoints = resilience.make_checkpoint_manager()
        # Recovery accounting waiting to be attached to the next round.
        self._pending_recovery = (0, 0.0)
        # -- observability (tracing + metrics; no-op by default) ------------
        self.obs = observability if observability is not None else NULL_OBSERVABILITY
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        #: Simulated-clock cursor for span placement (advanced per round).
        self._trace_clock = 0.0
        #: The round-execution backend (created on the first run() call):
        #: InProcessRunner for the simulated runtime, ProcessRunner for
        #: ``--runtime process``.
        self._runner = None

    # -- setup ------------------------------------------------------------------

    def _make_transport(self, num_hosts: int) -> InProcessTransport:
        """The cluster fabric: faulty when a fault plan is injected."""
        stats = None
        if self.metrics.enabled:
            stats = CommStats(num_hosts, observer=self._message_observer(num_hosts))
        if self.fault_injector is not None:
            return FaultyTransport(num_hosts, self.fault_injector, stats=stats)
        return InProcessTransport(num_hosts, stats)

    def _message_observer(self, num_hosts: int):
        """Per-message metrics hook injected into the transport's stats.

        Hooking :meth:`CommStats.record` itself means the published byte
        counters reconcile exactly (==) with the transport's accounting —
        including memoization exchanges, integrity framing, and fault
        retransmissions.
        """
        sent = [
            self.metrics.counter("bytes_sent_total", host=h)
            for h in range(num_hosts)
        ]
        received = [
            self.metrics.counter("bytes_recv_total", host=h)
            for h in range(num_hosts)
        ]
        messages = self.metrics.counter("messages_total")
        sizes = self.metrics.histogram("message_size_bytes")

        def observe(src: int, dst: int, nbytes: int) -> None:
            sent[src].inc(nbytes)
            received[dst].inc(nbytes)
            messages.inc()
            sizes.observe(nbytes)

        return observe

    def _setup(self, result: RunResult) -> None:
        started = time.perf_counter()
        num_hosts = self.partitioned.num_hosts
        self.transport = self._make_transport(num_hosts)
        memoization_bytes = 0
        if self.enable_sync:
            if self.prepared_sync is not None:
                # Warm start: the address books were memoized by an
                # earlier run over the same partition.  No exchange runs;
                # the original exchange's bytes are credited so warm and
                # cold results stay byte-identical.
                self.substrates = setup_substrates_from_books(
                    self.partitioned,
                    self.transport,
                    self.level,
                    self.prepared_sync,
                    self.metrics,
                    aggregate=self.aggregate_comm,
                )
                memoization_bytes = self.prepared_sync.memoization_bytes
                result.construction_bytes += memoization_bytes
            else:
                self.substrates = setup_substrates(
                    self.partitioned,
                    self.transport,
                    self.level,
                    self.metrics,
                    aggregate=self.aggregate_comm,
                )
                memoization_bytes = self.transport.stats.total_bytes
                result.construction_bytes += memoization_bytes
                self.transport.end_round()
        self._memoization_bytes = memoization_bytes
        self.states = [
            self.app.make_state(part, self.ctx)
            for part in self.partitioned.partitions
        ]
        self.fields = [
            self.app.make_fields(part, state)
            for part, state in zip(self.partitioned.partitions, self.states)
        ]
        field_counts = {len(f) for f in self.fields}
        if len(field_counts) != 1:
            raise ExecutionError("hosts disagree on synchronized field count")
        self._frontiers = [
            self.app.initial_frontier(part, state, self.ctx)
            for part, state in zip(self.partitioned.partitions, self.states)
        ]
        elapsed = time.perf_counter() - started
        result.construction_time += elapsed
        result.replication_factor = self.partitioned.replication_factor()
        if self.tracer.enabled:
            self.tracer.record_sequential(
                "memoization",
                elapsed,
                cat="construction",
                app=self.app.name,
                policy=self.partitioned.policy_name,
                bytes=memoization_bytes,
            )
            # BSP rounds start where the setup pipeline left off.
            self._trace_clock = self.tracer.cursor
        if self.metrics.enabled:
            self.metrics.counter("construction_bytes_total").inc(
                memoization_bytes
            )

    # -- main loop ---------------------------------------------------------------

    def run(self, max_rounds: int = 100_000) -> RunResult:
        """Execute to global quiescence (or ``max_rounds`` more rounds).

        Calling ``run`` again on an *unconverged* executor resumes where
        it stopped, accumulating into the same :class:`RunResult` — the
        hook that makes mid-run :meth:`repartition` possible.  Calling it
        again after convergence raises: an executor is single-use per
        completed run, because its states, frontiers, transport, and
        checkpoint baseline all carry the finished execution.  Reusing
        one silently would leak that state into the next answer — the
        job service constructs a fresh executor per job for exactly this
        reason.
        """
        if self._result is not None and self._result.converged:
            raise ExecutionError(
                "this executor's run already converged; "
                "DistributedExecutor is single-use per completed run — "
                "construct a new executor (per job), or use "
                "apply_mutations() for versioned resumption over a "
                "mutated graph"
            )
        if self._result is None:
            self._result = RunResult(
                system=self.system_name,
                app=self.app.name,
                policy=self.partitioned.policy_name,
                num_hosts=self.partitioned.num_hosts,
                runtime=self.runtime,
            )
            self._setup(self._result)
            # The recovery protocols need a round-0 baseline to roll back
            # to even before the first periodic snapshot is due.
            self._maybe_checkpoint(0, force=True)
        result = self._result
        runner = self._ensure_runner(result)
        executed = 0
        loop_start = time.perf_counter()
        try:
            while executed < max_rounds:
                executed += 1
                round_index = result.num_rounds + 1
                if self.fault_injector is not None:
                    crashed = self.fault_injector.take_crashes(round_index)
                    if crashed:
                        self._survive_crash(crashed, round_index)
                        continue
                data = runner.run_round(round_index)
                if self.tracer.enabled:
                    self._trace_round(round_index, data)
                if self.metrics.enabled:
                    self._publish_round_metrics(data)
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
                        result.converged = True
                        break
                else:
                    if self.app.is_globally_converged(
                        data.residual_sum, round_index, self.ctx
                    ):
                        result.converged = True
                        break
                self._maybe_checkpoint(round_index)
        except BaseException:
            runner.abort()
            raise
        result.wall_rounds_s += time.perf_counter() - loop_start
        if result.converged:
            runner.finish(result)
        self._finalize(result)
        return result

    def _ensure_runner(self, result: RunResult):
        """Create the round-execution backend on the first run() call."""
        if self._runner is None:
            if self.runtime == "process":
                # Imported lazily (as is InProcessRunner below): the
                # runners import repro.runtime.round, and importing the
                # repro.runtime package imports this module.
                from repro.parallel.coordinator import ProcessRunner

                runner = ProcessRunner(self, self.workers)
                started = time.perf_counter()
                runner.start()
                # Forking the fleet and exporting the shared stores is
                # real construction work: charge it where the partition
                # build and memoization exchange already land.
                result.construction_time += time.perf_counter() - started
                self._runner = runner
            else:
                from repro.parallel.runner import InProcessRunner

                self._runner = InProcessRunner(self)
        return self._runner

    def _sanitizer_guard(self, round_index: int):
        """Per-host guarded-view factory for ``--sanitize`` (else ``None``)."""
        if self.sanitizer is None:
            return None
        parts = self.partitioned.partitions

        def guard(h: int):
            substrate = self.substrates[h] if self.substrates else None
            return self.sanitizer.guard_round(
                h, parts[h], self.fields[h], substrate, self.states[h],
                round_index,
            )

        return guard

    # -- resilience (fault injection + checkpointing + recovery) ------------------

    def _survive_crash(self, crashed: List[int], round_index: int) -> None:
        """Kill the crashed hosts, then run the configured recovery."""
        result = self._result
        self._kill_hosts(crashed)
        event = recover(self, crashed, round_index)
        result.num_recoveries += 1
        result.recovery_bytes += event.recovery_bytes
        result.recovery_time += event.recovery_time
        result.recovery_events.append(event.row())
        if self.tracer.enabled:
            # Recovery stalls the whole cluster: advance the BSP clock.
            self.tracer.record(
                "recovery",
                cat="resilience",
                begin_s=self._trace_clock,
                duration_s=event.recovery_time,
                round=round_index,
                mode=event.mode,
                hosts=list(crashed),
                bytes=event.recovery_bytes,
            )
            self._trace_clock += event.recovery_time
        if self.metrics.enabled:
            self.metrics.counter("recoveries_total").inc()
            self.metrics.counter("recovery_bytes_total").inc(
                event.recovery_bytes
            )
        pending_bytes, pending_time = self._pending_recovery
        self._pending_recovery = (
            pending_bytes + event.recovery_bytes,
            pending_time + event.recovery_time,
        )

    def _kill_hosts(self, crashed: List[int]) -> None:
        """Simulate fail-stop loss of the hosts' memory and connectivity."""
        for host in crashed:
            if self.transport is not None:
                self.transport.crash(host)
            self.states[host] = None
            self.fields[host] = None
            self._frontiers[host] = None

    def _maybe_checkpoint(self, round_index: int, force: bool = False) -> None:
        """Snapshot the execution if a checkpoint is due (or forced)."""
        if self.checkpoints is None:
            return
        if not force and not self.checkpoints.due(round_index):
            return
        snapshot = {
            "round": round_index,
            "app": self.app.name,
            "policy": self.partitioned.policy_name,
            "num_hosts": self.partitioned.num_hosts,
            "num_global_nodes": self.partitioned.num_global_nodes,
            "states": self.states,
            "frontiers": self._frontiers,
            "injector_rng": (
                self.fault_injector.rng_state()
                if self.fault_injector is not None
                else None
            ),
        }
        record = self.checkpoints.save(snapshot)
        result = self._result
        result.num_checkpoints += 1
        result.checkpoint_bytes += record.nbytes
        result.checkpoint_time += record.save_time_s
        if self.tracer.enabled:
            self.tracer.record(
                "checkpoint",
                cat="resilience",
                begin_s=self._trace_clock,
                duration_s=record.save_time_s,
                round=round_index,
                bytes=record.nbytes,
            )
        if self.metrics.enabled:
            self.metrics.counter("checkpoints_total").inc()
            self.metrics.counter("checkpoint_bytes_total").inc(record.nbytes)

    def _take_round_fault_bytes(self) -> int:
        """Drain the transient-fault overhead bytes of the open round."""
        if isinstance(self.transport, FaultyTransport):
            return self.transport.take_round_fault_bytes()
        return 0

    def _rebuild_communication(self):
        """Rebirth the fabric: new transport, fresh memoization exchange.

        Returns ``(bytes, simulated_time)`` of the exchange — the price of
        rebuilding communication state after a crash, priced with the same
        alpha-beta model as regular rounds.
        """
        num_hosts = self.partitioned.num_hosts
        self._carry_substrate_stats()
        self.transport = self._make_transport(num_hosts)
        if not self.enable_sync:
            self.substrates = []
            return 0, 0.0
        self.substrates = setup_substrates(
            self.partitioned,
            self.transport,
            self.level,
            self.metrics,
            aggregate=self.aggregate_comm,
        )
        return self._close_recovery_exchange()

    def _close_recovery_exchange(self):
        """Close a recovery-traffic round; returns (bytes, simulated_time)."""
        traffic = self.transport.stats.current_round
        nbytes = traffic.total_bytes
        sim_time = round_communication_time(
            traffic,
            self.partitioned.num_hosts,
            self.cost_model,
            [0.0] * self.partitioned.num_hosts,
        )
        self.transport.end_round()
        return nbytes, sim_time

    # -- repartitioning (§4.1 footnote) --------------------------------------------

    def repartition(self, new_partitioned: PartitionedGraph) -> None:
        """Replace the partition mid-run; memoization is redone (§4.1).

        Canonical (master) values of every per-node state array migrate to
        the new layout, new substrates run a fresh memoization exchange
        (its traffic is added to the construction bytes), and the frontier
        is rebuilt so a subsequent :meth:`run` resumes seamlessly.
        """
        if self._result is None:
            raise ExecutionError("repartition requires a started run")
        if self._result.converged:
            raise ExecutionError("cannot repartition a converged run")
        if self.runtime == "process":
            raise ExecutionError(
                "mid-run repartitioning requires --runtime simulated "
                "(the workers' shared graph store is immutable)"
            )
        if new_partitioned.num_global_nodes != self.partitioned.num_global_nodes:
            raise ExecutionError(
                "repartitioning must keep the same global graph"
            )
        if new_partitioned.num_hosts != self.partitioned.num_hosts:
            raise ExecutionError(
                "repartitioning to a different host count is not supported"
            )
        check_strategy_legal(
            new_partitioned.strategy,
            self.app.operator_class,
            self.app.is_reduction,
        )
        from repro.runtime.migration import migrate_states

        started = time.perf_counter()
        self._carry_substrate_stats()
        old_frontier_global = self._gather_frontier_global()
        new_states = migrate_states(
            self.partitioned, self.states, new_partitioned, self.app, self.ctx
        )
        self.partitioned = new_partitioned
        self.transport = self._make_transport(new_partitioned.num_hosts)
        if self.enable_sync:
            self.substrates = setup_substrates(
                new_partitioned,
                self.transport,
                self.level,
                self.metrics,
                aggregate=self.aggregate_comm,
            )
            self._result.construction_bytes += self.transport.stats.total_bytes
            self.transport.end_round()
        self.states = new_states
        self.fields = [
            self.app.make_fields(part, state)
            for part, state in zip(new_partitioned.partitions, new_states)
        ]
        self._frontiers = [
            old_frontier_global[part.local_to_global]
            for part in new_partitioned.partitions
        ]
        elapsed = time.perf_counter() - started
        self._result.construction_time += elapsed
        self._result.policy = new_partitioned.policy_name
        self._result.replication_factor = new_partitioned.replication_factor()
        if self.tracer.enabled:
            self.tracer.record(
                "repartition",
                cat="construction",
                begin_s=self._trace_clock,
                duration_s=elapsed,
                policy=new_partitioned.policy_name,
            )
        # Checkpoints describe the old layout; restart the baseline.
        if self.checkpoints is not None:
            self.checkpoints.clear()
            self._maybe_checkpoint(self._result.num_rounds, force=True)

    # -- streaming (mutation batches + versioned resumption) -----------------------

    def apply_mutations(
        self,
        new_partitioned: PartitionedGraph,
        new_ctx,
        *,
        affected: Optional[np.ndarray] = None,
        frontier: Optional[np.ndarray] = None,
        exchange=None,
    ) -> None:
        """Adopt a delta-partitioned graph and arm a versioned resumption.

        This is the streaming seam that relaxes the single-use run
        guard: it may only be called on a *converged* executor, swaps in
        ``new_partitioned`` (typically from
        :func:`repro.streaming.delta.delta_partition`), migrates
        canonical state to the new layout, resets the ``affected``
        vertices to their fresh-init values, seeds the ``frontier``, and
        opens a fresh :class:`RunResult` for the next :meth:`run` call —
        one result per graph version.

        ``exchange`` is a callable ``(transport) -> address books`` that
        runs the memoization *patch* exchange on the executor's new
        transport (so its — much smaller — traffic is the construction
        communication this version pays); ``None`` falls back to a full
        exchange.  ``affected=None`` requests a full restart: fresh
        state and initial frontier over the new partition (how
        trajectory-dependent apps like pagerank stay bitwise-faithful).
        """
        if self._result is None:
            raise ExecutionError(
                "apply_mutations requires a completed run to resume from"
            )
        if not self._result.converged:
            raise ExecutionError(
                "apply_mutations requires a converged run (use "
                "repartition() to change layout mid-run)"
            )
        if self.runtime == "process":
            raise ExecutionError(
                "apply_mutations requires --runtime simulated "
                "(the workers' shared graph store is immutable)"
            )
        if new_partitioned.num_hosts != self.partitioned.num_hosts:
            raise ExecutionError(
                "mutating to a different host count is not supported"
            )
        if (affected is None) != (frontier is None):
            raise ExecutionError(
                "affected and frontier must be given together"
            )
        check_strategy_legal(
            new_partitioned.strategy,
            self.app.operator_class,
            self.app.is_reduction,
        )
        from repro.runtime.migration import gather_global, migratable_keys

        started = time.perf_counter()
        old_partitioned = self.partitioned
        old_states = self.states
        incremental = affected is not None
        if incremental:
            affected = np.ascontiguousarray(affected, dtype=bool)
            frontier = np.ascontiguousarray(frontier, dtype=bool)
            for name, mask in (("affected", affected), ("frontier", frontier)):
                if len(mask) != new_partitioned.num_global_nodes:
                    raise ExecutionError(
                        f"{name} mask has {len(mask)} entries for "
                        f"{new_partitioned.num_global_nodes} global nodes"
                    )
            if not getattr(self.app, "supports_migration", True):
                raise ExecutionError(
                    f"{self.app.name} carries per-proxy state that cannot "
                    "be migrated; use a full-restart plan"
                )
        # Fresh per-version result: construction costs of the delta land
        # here, rounds accumulate on it from the next run() call.
        result = RunResult(
            system=self.system_name,
            app=self.app.name,
            policy=new_partitioned.policy_name,
            num_hosts=new_partitioned.num_hosts,
            runtime=self.runtime,
        )
        # Old substrates retire with the already-finalized previous
        # result; the new version accounts only its own work.
        self._carried_translations = 0
        self._carried_mode_counts = {}
        self.partitioned = new_partitioned
        self.ctx = new_ctx
        self.transport = self._make_transport(new_partitioned.num_hosts)
        memoization_bytes = 0
        if self.enable_sync:
            if exchange is not None:
                books = exchange(self.transport)
                self.substrates = setup_substrates_from_books(
                    new_partitioned,
                    self.transport,
                    self.level,
                    PreparedSync(books=books, memoization_bytes=0),
                    self.metrics,
                    aggregate=self.aggregate_comm,
                )
            else:
                self.substrates = setup_substrates(
                    new_partitioned,
                    self.transport,
                    self.level,
                    self.metrics,
                    aggregate=self.aggregate_comm,
                )
            memoization_bytes = self.transport.stats.total_bytes
            result.construction_bytes += memoization_bytes
            self.transport.end_round()
        self._memoization_bytes = memoization_bytes
        # Fresh-init state over the new partition; incremental plans then
        # overwrite unaffected vertices with their migrated converged
        # values (affected vertices keep the fresh init — the reset).
        new_states = [
            self.app.make_state(part, new_ctx)
            for part in new_partitioned.partitions
        ]
        if incremental:
            keys = migratable_keys(
                self.app,
                old_states[0],
                old_partitioned.partitions[0].num_nodes,
            )
            init_global = {
                key: gather_global(new_partitioned, new_states, key)
                for key in keys
            }
            for key in keys:
                old_global = gather_global(old_partitioned, old_states, key)
                combined = init_global[key]
                carry = ~affected[: len(old_global)]
                combined[: len(old_global)][carry] = old_global[carry]
                for part, state in zip(
                    new_partitioned.partitions, new_states
                ):
                    state[key][...] = combined[part.local_to_global]
        self.states = new_states
        self.fields = [
            self.app.make_fields(part, state)
            for part, state in zip(new_partitioned.partitions, new_states)
        ]
        if incremental:
            # Accumulator fields: masters hold the canonical totals;
            # mirror copies revert to the reduction identity.
            for part, fields in zip(new_partitioned.partitions, self.fields):
                for field in fields:
                    if not field.reduce_op.idempotent:
                        mirrors = part.mirror_locals()
                        field.values[mirrors] = field.reduce_op.identity(
                            field.dtype
                        )
            self._frontiers = [
                frontier[part.local_to_global]
                for part in new_partitioned.partitions
            ]
        else:
            self._frontiers = [
                self.app.initial_frontier(part, state, new_ctx)
                for part, state in zip(new_partitioned.partitions, new_states)
            ]
        elapsed = time.perf_counter() - started
        result.construction_time += elapsed
        result.replication_factor = new_partitioned.replication_factor()
        self.version += 1
        self._result = result
        if self.tracer.enabled:
            self.tracer.record(
                "apply-mutations",
                cat="streaming",
                begin_s=self._trace_clock,
                duration_s=elapsed,
                version=self.version,
                policy=new_partitioned.policy_name,
                bytes=memoization_bytes,
                affected=int(affected.sum()) if incremental else -1,
                frontier=int(frontier.sum()) if incremental else -1,
            )
            self._trace_clock += elapsed
        if self.metrics.enabled:
            self.metrics.counter("streaming_resumes_total").inc()
            self.metrics.counter("construction_bytes_total").inc(
                memoization_bytes
            )
        # Checkpoints describe the old version; restart the baseline.
        if self.checkpoints is not None:
            self.checkpoints.clear()
            self._maybe_checkpoint(0, force=True)

    def _gather_frontier_global(self) -> np.ndarray:
        """Union the per-host frontiers into a global boolean mask."""
        frontier = np.zeros(self.partitioned.num_global_nodes, dtype=bool)
        for part, local in zip(self.partitioned.partitions, self._frontiers):
            frontier[part.local_to_global[local]] = True
        return frontier

    # -- observability -----------------------------------------------------------

    def _trace_round(self, round_index: int, data: RoundData) -> None:
        """Emit the round's spans on every host's simulated timeline.

        BSP shape: all hosts start the round together, compute spans end
        at each host's own pace (the visual load-imbalance gap), the sync
        span covers the shared communication window, and the per-field
        reduce/broadcast phase spans nest inside it.
        """
        t0 = self._trace_clock
        num_hosts = self.partitioned.num_hosts
        comp_times, comm_time = data.comp_times, data.comm_time
        comp_max = max(comp_times) if comp_times else 0.0
        sync_start = t0 + comp_max
        sent, received = data.traffic.bytes_by_host(num_hosts)
        for h in range(num_hosts):
            self.tracer.record(
                "round",
                cat="round",
                host=h,
                begin_s=t0,
                duration_s=comp_max + comm_time,
                round=round_index,
                app=self.app.name,
                policy=self.partitioned.policy_name,
                active_nodes=data.active,
            )
            self.tracer.record(
                "compute",
                cat="compute",
                host=h,
                begin_s=t0,
                duration_s=comp_times[h],
                round=round_index,
                engine=self.engines[h].name,
            )
            self.tracer.record(
                "sync",
                cat="communication",
                host=h,
                begin_s=sync_start,
                duration_s=comm_time,
                round=round_index,
                bytes_sent=sent[h],
                bytes_recv=received[h],
            )
        self._trace_phases(
            sync_start, comm_time, data.phase_records, round_index
        )
        self._trace_clock = t0 + comp_max + comm_time

    def _trace_phases(
        self, begin_s: float, comm_time: float, records: List, round_index: int
    ) -> None:
        """Nest per-field reduce/broadcast (and serialize/apply) spans.

        The cost model prices the communication window as a whole, so the
        window is apportioned among phases by their exact byte volumes,
        and each phase is split into its serialize (encode+send) and
        apply (decode+reduce/set) halves by measured wall-time ratio.
        Each record carries its own (src, dst, nbytes) message list of
        per-field sub-message sizes — so per-field spans survive
        aggregation via byte attribution.
        """
        if not records:
            return
        num_hosts = self.partitioned.num_hosts
        phase_bytes = [
            sum(nbytes for _, _, nbytes in msgs)
            for _, msgs, _, _ in records
        ]
        grand_total = sum(phase_bytes)
        cursor = begin_s
        for (label, slice_msgs, wall_ser, wall_apply), nbytes in zip(
            records, phase_bytes
        ):
            if grand_total > 0:
                share = comm_time * (nbytes / grand_total)
            else:
                share = comm_time / len(records)
            sent = [0] * num_hosts
            received = [0] * num_hosts
            counts = [0] * num_hosts
            for src, dst, size in slice_msgs:
                sent[src] += size
                received[dst] += size
                counts[src] += 1
            wall_total = wall_ser + wall_apply
            ser_frac = (wall_ser / wall_total) if wall_total > 0 else 0.5
            for h in range(num_hosts):
                self.tracer.record(
                    label,
                    cat="sync-phase",
                    host=h,
                    begin_s=cursor,
                    duration_s=share,
                    round=round_index,
                    bytes=sent[h],
                    bytes_recv=received[h],
                    messages=counts[h],
                )
                self.tracer.record(
                    "serialize",
                    cat="serialize",
                    host=h,
                    begin_s=cursor,
                    duration_s=share * ser_frac,
                    round=round_index,
                )
                self.tracer.record(
                    "apply",
                    cat="apply",
                    host=h,
                    begin_s=cursor + share * ser_frac,
                    duration_s=share * (1.0 - ser_frac),
                    round=round_index,
                )
            cursor += share

    def _publish_round_metrics(self, data: RoundData) -> None:
        """Publish the round's aggregates into the metrics registry."""
        self.metrics.counter("rounds_total").inc()
        self.metrics.counter("comm_time_seconds_total").inc(data.comm_time)
        self.metrics.counter("comp_time_seconds_total").inc(
            max(data.comp_times) if data.comp_times else 0.0
        )
        self.metrics.histogram("round_bytes").observe(data.traffic.total_bytes)
        self.metrics.histogram("round_messages").observe(
            data.traffic.num_messages
        )
        self.metrics.gauge("active_nodes").set(data.active)

    def _finalize(self, result: RunResult) -> None:
        if self.sanitizer is not None:
            # Recomputed whole (not appended) so resumed runs stay correct.
            result.sanitizer_findings = self.sanitizer.findings_as_dicts()
        # Recomputed (not accumulated) so resumed runs stay correct.
        result.translations = self._carried_translations
        result.mode_counts = dict(self._carried_mode_counts)
        for sub in self.substrates:
            result.translations += sub.stats.translations
            for mode, count in sub.stats.mode_counts.items():
                result.mode_counts[mode] = (
                    result.mode_counts.get(mode, 0) + count
                )
        if self.metrics.enabled:
            # Gauges (idempotent) because resumed runs re-finalize.
            if isinstance(self.transport, FaultyTransport):
                faults = self.transport.faults
                self.metrics.gauge("faults_injected").set(faults.total_injected)
                self.metrics.gauge("fault_bytes").set(faults.fault_bytes)
                self.metrics.gauge("framing_bytes").set(faults.framing_bytes)
            self.metrics.gauge("replication_factor").set(
                result.replication_factor
            )
            result.metrics = self.metrics.to_dict()

    def _carry_substrate_stats(self) -> None:
        """Fold retiring substrates' stats into the carried totals."""
        for sub in self.substrates:
            self._carried_translations += sub.stats.translations
            for mode, count in sub.stats.mode_counts.items():
                self._carried_mode_counts[mode] = (
                    self._carried_mode_counts.get(mode, 0) + count
                )

    # -- results ----------------------------------------------------------------------

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
