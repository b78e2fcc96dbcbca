"""Resilience subsystem: fault injection, checkpointing, and recovery.

Makes the simulated cluster failable and survivable:

* :mod:`repro.resilience.faults` — declarative, seeded
  :class:`FaultPlan` (host crashes at a round, transient message
  drop/duplication/corruption) and its runtime :class:`FaultInjector`;
* :mod:`repro.resilience.transport` — :class:`FaultyTransport`, an
  unreliable channel plus checksum/sequence-number reliability layer over
  the in-process transport;
* :mod:`repro.resilience.checkpoint` — content-addressed snapshots of
  executor state with in-memory and on-disk backends;
* :mod:`repro.resilience.recovery` — the snapshot schema
  (:func:`take_checkpoint` writes what recovery reads back) and the
  crash seam (:func:`survive_crash`: global checkpoint-restart and
  Phoenix-style confined recovery), both called directly from
  :meth:`repro.runtime.executor.DistributedExecutor.run`.
"""

from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointRecord,
    DiskCheckpointBackend,
    MemoryCheckpointBackend,
)
from repro.resilience.faults import CrashFault, FaultInjector, FaultPlan
from repro.resilience.recovery import (
    RECOVERY_MODES,
    RecoveryEvent,
    ResilienceConfig,
    confined_applicable,
    survive_crash,
    take_checkpoint,
)
from repro.resilience.transport import FaultStats, FaultyTransport

__all__ = [
    "CheckpointManager",
    "CheckpointRecord",
    "CrashFault",
    "DiskCheckpointBackend",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FaultyTransport",
    "MemoryCheckpointBackend",
    "RECOVERY_MODES",
    "RecoveryEvent",
    "ResilienceConfig",
    "confined_applicable",
    "survive_crash",
    "take_checkpoint",
]
