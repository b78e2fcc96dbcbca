"""Recovery protocols: surviving a fail-stop host crash.

Two protocols, both driven by :func:`recover` from inside
:class:`~repro.runtime.executor.DistributedExecutor.run`:

* **Global checkpoint-restart** (``"restart"``) — every host rolls back
  to the last checkpoint; the communication state (transport, substrates,
  memoization) is rebuilt from scratch; the rounds after the checkpoint
  are replayed.  Deterministic replay makes the recovered run bitwise
  identical to a fault-free one.  Always applicable.

* **Phoenix-style confined recovery** (``"confined"``) — only the reborn
  host re-initializes, from the last checkpoint; healthy hosts keep their
  current state.  A fresh memoization exchange (the §4.1 repartition
  machinery, over an unchanged partition) rebuilds the communication
  state, then one *healing* synchronization round — every host marks all
  its proxies dirty — lets the cluster's replicated mirrors fast-forward
  the reborn host's stale values, and the reborn host's full-frontier
  restart re-derives anything unreplicated.  Sound only for
  self-stabilizing programs (idempotent reductions with a data-driven
  frontier, e.g. bfs/sssp/cc); for anything else — pagerank's add
  reduction, topology-driven rounds — :func:`recover` detects the
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
from typing import TYPE_CHECKING, List, Optional

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

#: Recognized recovery protocol names.
RECOVERY_MODES = ("restart", "confined")


@dataclass
class ResilienceConfig:
    """Everything the executor needs to make a run failable and survivable.

    Attributes:
        plan: the fault schedule (``None`` = no injection; checkpointing
            alone can still be useful).
        checkpoint_every: periodic snapshot cadence in rounds (``0`` =
            only the round-0 snapshot recovery requires).
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

    Consults the GL303 stabilization certificate
    (:func:`repro.analysis.dataflow.certificate_for`), which adds the
    no-master-hooks and (on the spec path) monotone-kernel conditions
    the old reduce-op-only heuristic missed — an idempotent program
    whose master hook folds an accumulator is *not* safe to restart
    from stale checkpoints.  Falls back to the field-level heuristic
    only when no certificate is obtainable (program source
    unavailable).
    """
    from repro.analysis.dataflow import certificate_for

    certificate = certificate_for(executor.app)
    if certificate is not None:
        return certificate.self_stabilizing
    if not executor.app.uses_frontier:
        return False
    fields = next((f for f in executor.fields if f is not None), None)
    if fields is None:
        return False
    return all(spec.reduce_op.idempotent for spec in fields)


def confined_applicable(executor: "DistributedExecutor") -> bool:
    """Whether confined recovery is sound for the executor's program.

    Requires a synchronized multi-host run of a self-stabilizing vertex
    program — per the GL303 certificate: a data-driven frontier,
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


def recover(
    executor: "DistributedExecutor",
    crashed_hosts: List[int],
    round_index: int,
) -> RecoveryEvent:
    """Run the configured recovery protocol after ``crashed_hosts`` died.

    Called with the dead hosts' state already destroyed and the transport
    already aware of the crash.  Returns the accounting event; the
    executor folds it into the :class:`~repro.runtime.stats.RunResult`.
    """
    config = executor.resilience
    if config is None:
        raise ExecutionError("recover() called on a run without resilience")
    mode = config.recovery
    if mode == "confined" and not confined_applicable(executor):
        mode = "confined->restart"
    if mode == "restart" or mode == "confined->restart":
        event = _recover_restart(executor, crashed_hosts, round_index)
    else:
        event = _recover_confined(executor, crashed_hosts, round_index)
    event.mode = mode
    return event


def _restore_snapshot(executor: "DistributedExecutor") -> dict:
    manager = executor.checkpoints
    if manager is None:
        raise CheckpointError(
            "a host crashed but the run has no checkpoint manager"
        )
    snapshot = manager.restore()
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


def _recover_restart(
    executor: "DistributedExecutor",
    crashed_hosts: List[int],
    round_index: int,
) -> RecoveryEvent:
    """Global rollback: every host restarts from the last checkpoint."""
    snapshot = _restore_snapshot(executor)
    restored_round = int(snapshot["round"])
    executor.states = list(snapshot["states"])
    executor.fields = [
        executor.app.make_fields(part, state)
        for part, state in zip(
            executor.partitioned.partitions, executor.states
        )
    ]
    executor._frontiers = list(snapshot["frontiers"])
    if (
        executor.fault_injector is not None
        and snapshot.get("injector_rng") is not None
    ):
        executor.fault_injector.restore_rng_state(snapshot["injector_rng"])
    nbytes, sim_time = executor._rebuild_communication()
    result = executor._result
    replayed = max(0, len(result.rounds) - restored_round)
    # The rolled-back rounds are replayed (and re-recorded); drop their
    # records so the final trace describes the logical execution.
    result.rounds = result.rounds[:restored_round]
    return RecoveryEvent(
        round_index=round_index,
        hosts=list(crashed_hosts),
        mode="restart",
        restored_round=restored_round,
        recovery_bytes=nbytes,
        recovery_time=sim_time,
        replayed_rounds=replayed,
    )


def _recover_confined(
    executor: "DistributedExecutor",
    crashed_hosts: List[int],
    round_index: int,
) -> RecoveryEvent:
    """Phoenix-style confined recovery: only the reborn hosts roll back."""
    snapshot = _restore_snapshot(executor)
    restored_round = int(snapshot["round"])
    parts = executor.partitioned.partitions
    for host in crashed_hosts:
        executor.states[host] = snapshot["states"][host]
        # Everything the reborn host owns is suspect: activate its whole
        # local proxy set so recomputation re-derives unreplicated values.
        executor._frontiers[host] = np.ones(parts[host].num_nodes, dtype=bool)
    executor.fields = [
        executor.app.make_fields(part, state)
        for part, state in zip(parts, executor.states)
    ]
    nbytes, sim_time = executor._rebuild_communication()
    # Healing round: every host offers all its proxies, so healthy
    # mirrors fast-forward the reborn host's stale masters (idempotent
    # reductions make re-offering current values harmless) and the fresh
    # broadcast restores the reborn host's mirrors to canonical values.
    all_dirty = [
        SimpleNamespace(updated=np.ones(part.num_nodes, dtype=bool))
        for part in parts
    ]
    next_frontiers = [frontier.copy() for frontier in executor._frontiers]
    if executor.substrates:
        # Imported lazily: importing the repro.runtime package imports
        # the executor, which imports this module.
        from repro.runtime.round import synchronize

        synchronize(
            range(len(parts)), executor.substrates, executor.fields, parts,
            all_dirty, next_frontiers,
        )
    heal_bytes, heal_time = executor._close_recovery_exchange()
    executor._frontiers = next_frontiers
    return RecoveryEvent(
        round_index=round_index,
        hosts=list(crashed_hosts),
        mode="confined",
        restored_round=restored_round,
        recovery_bytes=nbytes + heal_bytes,
        recovery_time=sim_time + heal_time,
    )
