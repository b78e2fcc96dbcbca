"""Execution results: per-round records and run-level aggregates.

These carry every quantity the paper's evaluation reports: execution time
split into (max) computation and (non-overlapping) communication (Figure
10's bar structure), exact communication volume (Figure 8(b)), round
counts (§5.4's D-Ligra vs D-Galois discussion), load imbalance
(max-by-mean computation, §5.4), and translation counts (§4.1 overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.metadata import MetadataMode


@dataclass
class RoundRecord:
    """Measurements of one BSP round."""

    round_index: int
    comp_time_per_host: List[float]
    comm_time: float
    comm_bytes: int
    comm_messages: int
    active_nodes: int
    #: Extra bytes resilience cost this round: transient-fault
    #: retransmissions plus, on the round a recovery completed, the
    #: recovery exchange itself.
    recovery_bytes: int = 0
    #: Simulated time of recovery communication attributed to this round.
    recovery_time: float = 0.0

    @property
    def comp_time_max(self) -> float:
        """BSP computation time of the round (max over hosts)."""
        return max(self.comp_time_per_host) if self.comp_time_per_host else 0.0

    @property
    def comp_time_mean(self) -> float:
        """Mean per-host computation time of the round."""
        if not self.comp_time_per_host:
            return 0.0
        return sum(self.comp_time_per_host) / len(self.comp_time_per_host)


@dataclass
class RunResult:
    """Aggregate result of one distributed execution."""

    system: str
    app: str
    policy: str
    num_hosts: int
    rounds: List[RoundRecord] = field(default_factory=list)
    construction_bytes: int = 0
    construction_time: float = 0.0
    converged: bool = False
    translations: int = 0
    mode_counts: Dict[MetadataMode, int] = field(default_factory=dict)
    replication_factor: float = 0.0
    # -- resilience accounting (zero unless the run was made failable) --------
    #: Bytes spent on resilience: fault retransmissions plus recovery
    #: exchanges (memoization rebuilds, healing rounds).
    recovery_bytes: int = 0
    #: Simulated communication time of the recovery exchanges.
    recovery_time: float = 0.0
    #: Completed recoveries (one per surviving crash).
    num_recoveries: int = 0
    #: Flat rows describing each recovery (see RecoveryEvent.row()).
    recovery_events: List[Dict] = field(default_factory=list)
    #: Snapshots taken, their serialized volume, and save wall-clock.
    num_checkpoints: int = 0
    checkpoint_bytes: int = 0
    checkpoint_time: float = 0.0
    #: Snapshot of the run's metrics registry (empty unless the run was
    #: observed — see :mod:`repro.observability`).
    metrics: Dict = field(default_factory=dict)
    #: Proxy-access sanitizer findings as flat dicts (empty unless the
    #: run was sanitized — ``--sanitize`` / ``DistributedExecutor(
    #: sanitize=True)``; see :mod:`repro.analysis.sanitizer`).
    sanitizer_findings: List[Dict] = field(default_factory=list)
    #: Which round-execution backend ran the rounds: ``"simulated"``
    #: (in-process round-robin) or ``"process"`` (real worker processes
    #: over shared memory).  Either way the simulated quantities
    #: above are bitwise identical; only the wall clock differs.
    runtime: str = "simulated"
    #: Measured wall-clock seconds spent inside the BSP round loop —
    #: the real-time column next to the alpha-beta model's "cluster
    #: time" (which ``total_time`` reports).
    wall_rounds_s: float = 0.0

    @property
    def num_rounds(self) -> int:
        """Number of BSP rounds executed."""
        return len(self.rounds)

    @property
    def computation_time(self) -> float:
        """Total computation time: sum over rounds of the per-round max."""
        return sum(r.comp_time_max for r in self.rounds)

    @property
    def communication_time(self) -> float:
        """Total (non-overlapping) communication time."""
        return sum(r.comm_time for r in self.rounds)

    @property
    def total_time(self) -> float:
        """End-to-end simulated execution time (excludes construction).

        BSP semantics: per round, computation completes before the
        communication phase starts (the paper's bars are likewise
        computation + *non-overlapping* communication).
        """
        return self.computation_time + self.communication_time

    @property
    def total_time_overlapped(self) -> float:
        """Lower bound with perfect computation/communication overlap.

        Per round, a runtime that fully overlapped the two phases would
        pay ``max(comp, comm)`` instead of their sum — the headroom that
        motivates asynchronous substrates (the Gluon-async line of work).
        """
        return sum(
            max(record.comp_time_max, record.comm_time)
            for record in self.rounds
        )

    def overlap_headroom(self) -> float:
        """Fraction of the runtime perfect overlap could remove."""
        total = self.total_time
        if total == 0:
            return 0.0
        return 1.0 - self.total_time_overlapped / total

    @property
    def communication_volume(self) -> int:
        """Exact bytes shipped during execution (excludes construction)."""
        return sum(r.comm_bytes for r in self.rounds)

    @property
    def communication_messages(self) -> int:
        """Messages sent during execution."""
        return sum(r.comm_messages for r in self.rounds)

    def load_imbalance(self) -> float:
        """Max-by-mean computation time over the run (§5.4).

        Values near 1 mean a balanced load; the paper reports 3-13 for the
        imbalanced cc/pr runs on clueweb12/wdc12.
        """
        total_mean = sum(r.comp_time_mean for r in self.rounds)
        if total_mean == 0.0:
            return 1.0
        return self.computation_time / total_mean

    @property
    def total_time_resilient(self) -> float:
        """End-to-end simulated time including recovery communication."""
        return self.total_time + self.recovery_time

    def summary(self) -> dict:
        """One flat dict row for benchmark tables.

        Resilience columns appear only when the run actually checkpointed
        or recovered, so fault-free tables keep the paper's shape.
        """
        row = {
            "system": self.system,
            "app": self.app,
            "policy": self.policy,
            "hosts": self.num_hosts,
            "rounds": self.num_rounds,
            "time_s": round(self.total_time, 6),
            "comp_s": round(self.computation_time, 6),
            "comm_s": round(self.communication_time, 6),
            "comm_MB": round(self.communication_volume / 1e6, 3),
            "converged": self.converged,
        }
        if self.num_checkpoints or self.num_recoveries or self.recovery_bytes:
            row["recoveries"] = self.num_recoveries
            row["recovery_MB"] = round(self.recovery_bytes / 1e6, 3)
            row["recovery_s"] = round(self.recovery_time, 6)
            row["checkpoints"] = self.num_checkpoints
            row["ckpt_MB"] = round(self.checkpoint_bytes / 1e6, 3)
        return row

    def round_rows(self) -> List[dict]:
        """Per-round trace rows (for plotting or offline analysis)."""
        return [
            {
                "round": record.round_index,
                "comp_max_s": record.comp_time_max,
                "comp_mean_s": record.comp_time_mean,
                "comm_s": record.comm_time,
                "comm_bytes": record.comm_bytes,
                "messages": record.comm_messages,
                "active_nodes": record.active_nodes,
                "recovery_bytes": record.recovery_bytes,
                "recovery_s": record.recovery_time,
            }
            for record in self.rounds
        ]

    def to_json(self, path=None) -> str:
        """Serialize the full run trace to JSON (optionally to ``path``)."""
        import json

        payload = {
            "summary": self.summary(),
            "construction": {
                "time_s": self.construction_time,
                "bytes": self.construction_bytes,
            },
            "replication_factor": self.replication_factor,
            "translations": self.translations,
            "mode_counts": {
                mode.name: count for mode, count in self.mode_counts.items()
            },
            "load_imbalance": self.load_imbalance(),
            "resilience": {
                "recovery_bytes": self.recovery_bytes,
                "recovery_time_s": self.recovery_time,
                "num_recoveries": self.num_recoveries,
                "recovery_events": self.recovery_events,
                "num_checkpoints": self.num_checkpoints,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_time_s": self.checkpoint_time,
            },
            "rounds": self.round_rows(),
            "measured": {
                "runtime": self.runtime,
                "wall_rounds_s": self.wall_rounds_s,
            },
            "metrics": self.metrics,
        }
        if self.sanitizer_findings:
            payload["sanitizer_findings"] = self.sanitizer_findings
        text = json.dumps(payload, indent=2)
        if path is not None:
            from pathlib import Path

            Path(path).write_text(text)
        return text
