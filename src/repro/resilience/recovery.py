"""Recovery protocols: surviving a fail-stop host crash.

Both protocols, driven by :func:`survive_crash` from inside
:class:`~repro.runtime.executor.DistributedExecutor.run`, roll back to
the latest snapshot or, when none was taken, to round 0 — rebuilt from
the input and the partition, never stored (§4: memoize once).

* **Global checkpoint-restart** (``"restart"``) — every host rolls back
  to the rollback point; the communication state (transport,
  substrates, memoization) is rebuilt from scratch; the rounds after it
  are replayed.  Deterministic replay makes the recovered run bitwise
  identical to a fault-free one.  Always applicable.

* **Phoenix-style confined recovery** (``"confined"``) — only the reborn
  host re-initializes, from the rollback point; healthy hosts keep their
  current state.  A fresh memoization exchange (the §4.1 repartition
  machinery, over an unchanged partition) rebuilds the communication
  state, then one *healing* synchronization round — every host marks all
  its proxies dirty — lets the cluster's replicated mirrors fast-forward
  the reborn host's stale values, and the reborn host's full-frontier
  restart re-derives anything unreplicated.  Sound only for
  self-stabilizing programs (idempotent reductions with a data-driven
  frontier, e.g. bfs/sssp/cc); for anything else — pagerank's add
  reduction, topology-driven rounds — :func:`survive_crash` detects the
  mismatch and *escalates to restart*, the same classification the
  Phoenix work applies.

Recovery traffic is priced with the run's alpha-beta cost model and
recorded as ``recovery_bytes`` / ``recovery_time`` on the
:class:`~repro.runtime.stats.RunResult`, so the overhead of resilience is
reported exactly like the paper reports communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.errors import CheckpointError, ExecutionError
from repro.resilience.checkpoint import (
    CheckpointManager,
    DiskCheckpointBackend,
    MemoryCheckpointBackend,
)
from repro.resilience.faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.runtime.executor import DistributedExecutor
    from repro.runtime.stats import RunResult

#: Recognized recovery protocol names.
RECOVERY_MODES = ("restart", "confined")


@dataclass
class ResilienceConfig:
    """Everything the executor needs to make a run failable and survivable.

    Attributes:
        plan: the fault schedule (``None`` = no injection; checkpointing
            alone can still be useful).
        checkpoint_every: periodic snapshot cadence in rounds (``0`` =
            none: a crash rolls back to round 0, rebuilt from the input).
        recovery: ``"restart"`` or ``"confined"``.
        checkpoint_dir: when set, snapshots go to disk under this
            directory instead of in-process memory.
    """

    plan: Optional[FaultPlan] = None
    checkpoint_every: int = 0
    recovery: str = "restart"
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.recovery not in RECOVERY_MODES:
            raise ExecutionError(
                f"unknown recovery mode {self.recovery!r} "
                f"(known: {', '.join(RECOVERY_MODES)})"
            )
        if self.checkpoint_every < 0:
            raise ExecutionError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )

    def make_checkpoint_manager(self) -> CheckpointManager:
        """Build the checkpoint manager this config describes."""
        backend = (
            DiskCheckpointBackend(self.checkpoint_dir)
            if self.checkpoint_dir
            else MemoryCheckpointBackend()
        )
        return CheckpointManager(backend, every=self.checkpoint_every)


@dataclass
class RecoveryEvent:
    """One completed recovery, for the run's resilience accounting."""

    round_index: int
    hosts: List[int]
    mode: str
    restored_round: int
    recovery_bytes: int
    recovery_time: float
    replayed_rounds: int = 0

    def row(self) -> dict:
        """Flat dict row for tables and JSON export."""
        return {
            "round": self.round_index,
            "hosts": list(self.hosts),
            "mode": self.mode,
            "restored_round": self.restored_round,
            "recovery_bytes": self.recovery_bytes,
            "recovery_time_s": self.recovery_time,
            "replayed_rounds": self.replayed_rounds,
        }


def _is_self_stabilizing(executor: "DistributedExecutor") -> bool:
    """Whether the executor's program provably re-derives its fixed point.

    Consults the stabilization certificate
    (:func:`repro.analysis.dataflow.certificate_for`), whose
    no-master-hooks and monotone-kernel conditions go beyond the
    reductions — an idempotent program whose master hook folds an
    accumulator is *not* safe to restart from stale checkpoints.  A
    handwritten program has no spec, hence no certificate, and is never
    certified.
    """
    from repro.analysis.dataflow import certificate_for

    certificate = certificate_for(executor.app)
    return certificate is not None and certificate.self_stabilizing


def confined_applicable(executor: "DistributedExecutor") -> bool:
    """Whether confined recovery is sound for the executor's program.

    Requires a synchronized multi-host run of a self-stabilizing vertex
    program — per the stabilization certificate: a data-driven frontier,
    idempotent reductions, no master-side hooks, and monotone kernels —
    so stale checkpoint values can only lose reductions and a
    full-frontier restart re-derives the fixed point.
    """
    if not executor.enable_sync or not executor.substrates:
        return False
    if not executor.app.uses_frontier:
        return False
    if next((f for f in executor.fields if f is not None), None) is None:
        return False
    return _is_self_stabilizing(executor)


def take_checkpoint(
    executor: "DistributedExecutor", result: "RunResult", round_index: int, rebaseline: bool = False
) -> None:
    """Snapshot the execution at a round boundary and account it on ``result``.

    The snapshot schema lives here, next to :func:`_rollback_point`
    which parses and validates it.  ``rebaseline`` first forgets every
    earlier snapshot — they describe a layout or graph version the
    executor just left (:meth:`~DistributedExecutor.repartition`,
    :meth:`~DistributedExecutor.apply_mutations`).
    """
    manager = executor.checkpoints
    if rebaseline:
        manager.clear()
    record = manager.save(
        {
            "round": round_index,
            "app": executor.app.name,
            "policy": executor.partitioned.policy_name,
            "num_hosts": executor.partitioned.num_hosts,
            "states": executor.states,
            "frontiers": executor.frontiers,
        }
    )
    result.num_checkpoints += 1
    result.checkpoint_bytes += record.nbytes
    result.checkpoint_time += record.save_time_s
    if executor.tracer.enabled:
        # Snapshots overlap the timeline; they do not stall it.
        executor.tracer.record(
            "checkpoint",
            cat="resilience",
            begin_s=executor.tracer.cursor,
            duration_s=record.save_time_s,
            round=round_index,
            bytes=record.nbytes,
        )
    if executor.metrics.enabled:
        executor.metrics.counter("checkpoints_total").inc()
        executor.metrics.counter("checkpoint_bytes_total").inc(record.nbytes)


def _rollback_point(executor: "DistributedExecutor") -> dict:
    """The latest snapshot, validated, else round 0 (``states`` and
    ``frontiers`` of ``None``: ``bind`` rebuilds them from the input)."""
    if executor.checkpoints.latest() is None:
        return {"round": 0, "states": None, "frontiers": None}
    snapshot = executor.checkpoints.restore()
    if snapshot.get("num_hosts") != executor.partitioned.num_hosts:
        raise CheckpointError(
            f"checkpoint is for {snapshot.get('num_hosts')} hosts, the "
            f"cluster has {executor.partitioned.num_hosts}"
        )
    if snapshot.get("policy") != executor.partitioned.policy_name:
        raise CheckpointError(
            f"checkpoint is for policy {snapshot.get('policy')!r}, the "
            f"run now uses {executor.partitioned.policy_name!r}"
        )
    if snapshot.get("app") != executor.app.name:
        raise CheckpointError(
            f"checkpoint is for app {snapshot.get('app')!r}, not "
            f"{executor.app.name!r}"
        )
    return snapshot


def survive_crash(
    executor: "DistributedExecutor",
    result: "RunResult",
    crashed_hosts: List[int],
    round_index: int,
    bind: Callable,
) -> RecoveryEvent:
    """Lose ``crashed_hosts``, run the configured recovery, account it.

    The whole crash seam of the executor's run loop: fail-stop loss of
    the hosts' memory and connectivity, the recovery protocol (restart,
    confined, or confined escalated to restart), and its accounting on
    the open run's ``result``, trace and metrics.  ``bind`` is the executor's
    layout-binding primitive, ``bind(partitioned, ctx, states,
    frontiers) -> (bytes, simulated_time)``: both protocols rebirth the
    fabric through it — new transport, fresh memoization exchange — over
    the states and frontiers they restored (``None`` = round 0).
    """
    for host in crashed_hosts:
        executor.transport.crash(host)
        executor.states[host] = None
        executor.fields[host] = None
        executor.frontiers[host] = None
    mode = executor.resilience.recovery
    if mode == "confined" and not confined_applicable(executor):
        mode = "confined->restart"
    snapshot = _rollback_point(executor)
    if mode == "confined":
        nbytes, sim_time, replayed = _recover_confined(executor, snapshot, crashed_hosts, bind)
    else:
        nbytes, sim_time, replayed = _recover_restart(executor, result, snapshot, bind)
    event = RecoveryEvent(
        round_index=round_index,
        hosts=list(crashed_hosts),
        mode=mode,
        restored_round=int(snapshot["round"]),
        recovery_bytes=nbytes,
        recovery_time=sim_time,
        replayed_rounds=replayed,
    )
    result.num_recoveries += 1
    result.recovery_bytes += nbytes
    result.recovery_time += sim_time
    result.recovery_events.append(event.row())
    if executor.tracer.enabled:
        # Recovery stalls the whole cluster: it advances the BSP clock.
        executor.tracer.record_sequential(
            "recovery",
            sim_time,
            cat="resilience",
            round=round_index,
            mode=mode,
            hosts=list(crashed_hosts),
            bytes=nbytes,
        )
    if executor.metrics.enabled:
        executor.metrics.counter("recoveries_total").inc()
        executor.metrics.counter("recovery_bytes_total").inc(nbytes)
    return event


def _recover_restart(executor, result, snapshot, bind):
    """Global rollback: every host restarts from the rollback point, and
    ``result`` forgets the rounds after it.

    Returns ``(bytes, simulated_time, replayed_rounds)``.
    """
    nbytes, sim_time = bind(
        executor.partitioned, executor.ctx, snapshot["states"], snapshot["frontiers"]
    )
    restored_round = int(snapshot["round"])
    replayed = max(0, len(result.rounds) - restored_round)
    # The rolled-back rounds are replayed (and re-recorded); drop their
    # records so the final trace describes the logical execution.
    result.rounds = result.rounds[:restored_round]
    return nbytes, sim_time, replayed


def _recover_confined(executor, snapshot, crashed_hosts, bind):
    """Phoenix-style confined recovery: only the reborn hosts roll back.

    Returns ``(bytes, simulated_time, 0)`` — nothing is replayed.
    """
    parts = executor.partitioned.partitions
    states, frontiers = list(executor.states), list(executor.frontiers)
    for host in crashed_hosts:
        states[host] = (
            snapshot["states"][host] if snapshot["states"] is not None
            else executor.app.make_state(parts[host], executor.ctx)
        )
        # Everything the reborn host owns is suspect: activate its whole
        # local proxy set so recomputation re-derives unreplicated values.
        frontiers[host] = np.arange(parts[host].num_nodes, dtype=np.intp)
    nbytes, sim_time = bind(
        executor.partitioned, executor.ctx, states, frontiers
    )
    # Healing round: every host offers all its proxies, so healthy
    # mirrors fast-forward the reborn host's stale masters (idempotent
    # reductions make re-offering current values harmless) and the fresh
    # broadcast restores the reborn host's mirrors to canonical values.
    all_dirty = [
        SimpleNamespace(updated=np.arange(part.num_nodes, dtype=np.intp))
        for part in parts
    ]
    next_frontiers = list(frontiers)
    # Imported lazily: importing the repro.runtime package imports the
    # executor, which imports this module.
    from repro.runtime.round import close_exchange, synchronize

    synchronize(
        range(len(parts)), executor.substrates, executor.fields, parts,
        all_dirty, next_frontiers,
    )
    heal_bytes, heal_time = close_exchange(
        executor.transport, executor.cost_model
    )
    executor.frontiers = next_frontiers
    return nbytes + heal_bytes, sim_time + heal_time, 0
