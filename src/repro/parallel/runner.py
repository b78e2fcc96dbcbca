"""Pluggable round execution for the BSP executor.

A *host runner* executes one BSP round — the shared round body of
:mod:`repro.runtime.round` (compute on every host, then the
reduce/apply/broadcast collective), frontier advance, and the round's
raw measurements — while the executor's main loop keeps everything
around it: fault scheduling, tracing, metrics, round records, and the
convergence decision.

Two implementations exist:

* :class:`InProcessRunner` (default) — the historical simulated runtime:
  every host executes round-robin inside the calling process.
* :class:`~repro.parallel.coordinator.ProcessRunner` — hosts execute in
  forked worker processes that inherit the executor (partitions, app,
  books) and share their state through shared memory
  (``--runtime process``).

Both run the same round body and produce the same :class:`RoundData`,
so the executor's results are invariant to which runner executed the
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.network.stats import RoundTraffic
from repro.runtime.round import close_round, run_hosts


@dataclass
class RoundData:
    """One BSP round's raw measurements, runner-independent."""

    #: Simulated per-host compute seconds (includes the sync-scan term).
    comp_times: List[float]
    #: Alpha-beta communication time of the round's exact byte trace.
    comm_time: float
    #: That trace: every transport message of the round.
    traffic: RoundTraffic
    #: Sync-phase records for the tracer (empty unless tracing; see
    #: :func:`repro.runtime.round.synchronize`).
    phase_records: List
    #: Per host, the address translations this round's sync performed.
    translation_deltas: Dict[int, int]
    #: Global count of frontier-active nodes after synchronization.
    active: int
    #: Extra bytes transient faults cost this round.
    fault_bytes: int
    #: Global residual (non-frontier apps only; ``None`` otherwise).
    residual_sum: Optional[float]


class InProcessRunner:
    """The simulated runtime: all hosts round-robin in this process.

    A runner holds no link to its executor — the executor owns its
    runner, and every call is handed the executor it serves.
    """

    def start(self, ex) -> None:
        """Nothing to launch: the executor's own state is the cluster."""

    def run_round(self, ex, round_index: int) -> RoundData:
        """Execute one round on every host, in this process."""
        hosts = range(ex.partitioned.num_hosts)
        parts = ex.partitioned.partitions
        record = [] if ex.tracer.enabled else None
        guard = None
        if ex.sanitizer is not None:
            # ``--sanitize``: guarded views around each host's compute.
            def guard(h: int):
                return ex.sanitizer.guard_round(
                    h, parts[h], ex.fields[h],
                    ex.substrates[h] if ex.substrates else None,
                    ex.states[h], round_index,
                )

        comp_times, next_frontiers, counts, translation_deltas = run_hosts(
            hosts, ex.engines, ex.app, parts, ex.states,
            ex.fields, ex.frontiers, ex.substrates,
            record=record, guard=guard,
        )
        comp_times = [comp_times[h] for h in hosts]
        if ex.sanitizer is not None and ex.enable_sync:
            ex.sanitizer.note_sync_completed()
        fault_bytes = ex.transport.take_round_fault_bytes()
        traffic, comm_time = close_round(
            ex.transport, ex.engines, ex.cost_model, translation_deltas
        )
        active = sum(counts.values())
        residual_sum = None
        if ex.app.uses_frontier:
            if active > 0:
                ex.frontiers = [next_frontiers[h] for h in hosts]
        else:
            residual_sum = sum(
                ex.app.local_residual(state) for state in ex.states
            )
        return RoundData(
            comp_times=comp_times,
            comm_time=comm_time,
            traffic=traffic,
            phase_records=record or [],
            translation_deltas=translation_deltas,
            active=active,
            fault_bytes=fault_bytes,
            residual_sum=residual_sum,
        )

    def finish(self, ex) -> None:
        """Nothing to tear down."""

    def abort(self) -> None:
        """Nothing to tear down on error either."""


def start_runner(executor):
    """Create and start the round backend the executor's ``runtime`` names."""
    if executor.runtime == "process":
        # Imported lazily: the coordinator imports this module.
        from repro.parallel.coordinator import ProcessRunner

        runner = ProcessRunner()
    else:
        runner = InProcessRunner()
    runner.start(executor)
    return runner
