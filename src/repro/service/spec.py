"""Job specifications and results: the service's unit of work.

A :class:`JobSpec` is everything needed to reproduce one analytics run —
application x graph x partition policy x hosts x config — as plain data.
Its :meth:`~JobSpec.content_hash` is a SHA-256 over a canonical JSON
encoding, so two processes (or two machines, or two weeks apart) agree on
whether two jobs are the same work.  Scheduling-only fields (priority,
retry budget) are excluded: they change *when* a job runs, never *what*
it computes, so they must not fragment the result cache.

A :class:`JobResult` carries the deterministic answer (the gathered
master values and their digest, round/byte/convergence accounting,
resilience recovery totals) alongside non-deterministic bookkeeping
(wall-clock, attempts, cache hit/miss provenance).  The
:meth:`~JobResult.payload` projection contains only the deterministic
part — the thing the result cache stores and the bitwise-identity tests
compare.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import numpy as np

from repro.apps import runnable_app_names
from repro.core.optimization import OptimizationLevel
from repro.errors import FaultPlanError, JobSpecError
from repro.partition import PARTITIONER_BY_NAME
from repro.resilience import RECOVERY_MODES, FaultPlan, ResilienceConfig
from repro.systems import ALL_SYSTEMS
from repro.workloads import WORKLOAD_NAMES

#: Spec fields that affect scheduling but not the computed answer;
#: excluded from content hashing so they never fragment the result cache.
SCHEDULING_FIELDS = ("priority", "max_attempts")


@dataclass(frozen=True)
class JobSpec:
    """One analytics job: app x graph x policy x hosts x config.

    Plain data (``level`` and the resilience fields in their CLI string
    forms, so specs stay JSON-serializable) that :meth:`run_options`
    turns into :func:`repro.systems.run_app` keywords; ``priority`` and
    ``max_attempts`` steer the scheduler only.
    """

    app: str
    workload: str
    hosts: int = 4
    system: str = "d-galois"
    policy: Optional[str] = None
    level: Optional[str] = None
    scale_delta: int = 0
    source: Optional[int] = None
    max_rounds: int = 100_000
    weight_seed: int = 42
    partition_seed: int = 0
    tolerance: float = 1e-6
    max_iterations: int = 100
    k: int = 2
    # -- resilience (the job runs failable when any of these are set) ------
    inject_fault: Optional[str] = None
    fault_seed: int = 0
    checkpoint_every: int = 0
    recovery: str = "restart"
    # -- scheduling only (excluded from the content hash) ------------------
    priority: int = 0
    max_attempts: int = 1

    def __post_init__(self) -> None:
        known_apps = runnable_app_names()
        if self.app not in known_apps:
            raise JobSpecError(
                f"unknown app {self.app!r} (known: {', '.join(known_apps)})"
            )
        if self.workload not in WORKLOAD_NAMES:
            raise JobSpecError(
                f"unknown workload {self.workload!r} "
                f"(known: {', '.join(sorted(WORKLOAD_NAMES))})"
            )
        if self.system not in ALL_SYSTEMS:
            raise JobSpecError(
                f"unknown system {self.system!r} "
                f"(known: {', '.join(ALL_SYSTEMS)})"
            )
        if self.policy is not None and self.policy not in PARTITIONER_BY_NAME:
            raise JobSpecError(
                f"unknown policy {self.policy!r} "
                f"(known: {', '.join(sorted(PARTITIONER_BY_NAME))})"
            )
        if self.level is not None:
            try:
                OptimizationLevel.from_name(self.level)
            except Exception:
                known = ", ".join(lv.value for lv in OptimizationLevel)
                raise JobSpecError(
                    f"unknown optimization level {self.level!r} "
                    f"(known: {known})"
                ) from None
        if self.hosts < 1:
            raise JobSpecError(f"hosts must be >= 1, got {self.hosts}")
        if self.max_rounds < 1:
            raise JobSpecError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        if self.max_attempts < 1:
            raise JobSpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.checkpoint_every < 0:
            raise JobSpecError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.recovery not in RECOVERY_MODES:
            raise JobSpecError(
                f"unknown recovery mode {self.recovery!r} "
                f"(known: {', '.join(RECOVERY_MODES)})"
            )
        if self.inject_fault is not None:
            try:
                FaultPlan.parse(self.inject_fault, seed=self.fault_seed)
            except FaultPlanError as exc:
                raise JobSpecError(f"inject_fault: {exc}") from exc

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe dict of every field (batch-file round-trippable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "JobSpec":
        """Build a spec from a (batch-file) dict; unknown keys are errors."""
        if not isinstance(payload, dict):
            raise JobSpecError(
                f"job entry must be an object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        missing = [name for name in ("app", "workload") if name not in payload]
        if missing:
            raise JobSpecError(
                f"job entry is missing required field(s): "
                f"{', '.join(missing)}"
            )
        return cls(**payload)

    # -- identity ----------------------------------------------------------

    def hashed_dict(self) -> Dict:
        """The canonical sub-dict the content hash covers."""
        payload = self.to_dict()
        for name in SCHEDULING_FIELDS:
            payload.pop(name)
        return payload

    def content_hash(self) -> str:
        """Deterministic SHA-256 identity of the work this spec describes.

        Stable across processes (no reliance on the builtin ``hash``) and
        insensitive to scheduling fields; the result cache's key.
        """
        canonical = json.dumps(
            self.hashed_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def job_id(self) -> str:
        """Short human-facing id (content-hash prefix)."""
        return self.content_hash()[:12]

    # -- run_app adapter ---------------------------------------------------

    def run_options(self) -> Dict:
        """The spec as :func:`repro.systems.run_app` keywords.

        Everything after ``(system, app, edges, hosts)``: the string forms
        resolved (``level`` to its :class:`OptimizationLevel`, the
        resilience fields to a :class:`ResilienceConfig` — ``None`` for a
        plain run).  Every consumer of a spec — a job attempt, batch
        staging, ``serve --stream`` — unpacks this one dict.
        """
        resilience = None
        if self.inject_fault is not None or self.checkpoint_every > 0:
            plan = None
            if self.inject_fault is not None:
                plan = FaultPlan.parse(self.inject_fault, seed=self.fault_seed)
                plan.validate_hosts(self.hosts)
            resilience = ResilienceConfig(
                plan=plan,
                checkpoint_every=self.checkpoint_every,
                recovery=self.recovery,
            )
        return {
            "policy": self.policy,
            "level": (
                None if self.level is None
                else OptimizationLevel.from_name(self.level)
            ),
            "source": self.source,
            "max_rounds": self.max_rounds,
            "weight_seed": self.weight_seed,
            "partition_seed": self.partition_seed,
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "k": self.k,
            "resilience": resilience,
        }


@dataclass
class JobResult:
    """Outcome of one job: the deterministic answer plus bookkeeping."""

    job_id: str
    spec_hash: str
    spec: Dict
    status: str = "ok"  # "ok" | "failed"
    error: Optional[str] = None
    # -- deterministic answer (cached, compared bitwise) -------------------
    rounds: int = 0
    sim_time_s: float = 0.0
    comm_bytes: int = 0
    construction_bytes: int = 0
    converged: bool = False
    replication_factor: float = 0.0
    output_key: Optional[str] = None
    output_digest: Optional[str] = None
    values: Optional[np.ndarray] = None
    recovery: Dict = field(default_factory=dict)
    # -- bookkeeping (varies run to run; excluded from payload()) ----------
    attempts: int = 1
    wall_s: float = 0.0
    backoff_s: float = 0.0
    partition_cache: str = "off"  # "hit" | "miss" | "off"
    result_cache: str = "off"  # "hit" | "miss" | "off"
    priority: int = 0

    def payload(self) -> Dict:
        """The deterministic projection (what identity tests compare).

        ``values`` is reduced to its digest here; compare the arrays
        themselves with :func:`numpy.array_equal` for the bitwise check.
        """
        return {
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "status": self.status,
            "rounds": self.rounds,
            "sim_time_s": self.sim_time_s,
            "comm_bytes": self.comm_bytes,
            "construction_bytes": self.construction_bytes,
            "converged": self.converged,
            "replication_factor": self.replication_factor,
            "output_key": self.output_key,
            "output_digest": self.output_digest,
            "recovery": dict(self.recovery),
        }

    def row(self) -> Dict:
        """One flat table row for the ``repro serve`` summary."""
        return {
            "job": self.job_id,
            "app": self.spec.get("app", "?"),
            "workload": self.spec.get("workload", "?"),
            "hosts": self.spec.get("hosts", "?"),
            "policy": self.spec.get("policy") or "-",
            "status": self.status,
            "rounds": self.rounds,
            "time_s": round(self.sim_time_s, 6),
            "comm_MB": round(self.comm_bytes / 1e6, 3),
            "wall_s": round(self.wall_s, 4),
            "attempts": self.attempts,
            "part$": self.partition_cache,
            "result$": self.result_cache,
        }

    def to_dict(self) -> Dict:
        """JSON-safe dict (arrays reduced to their digest)."""
        doc = self.payload()
        doc.update(
            {
                "spec": dict(self.spec),
                "error": self.error,
                "attempts": self.attempts,
                "wall_s": self.wall_s,
                "backoff_s": self.backoff_s,
                "partition_cache": self.partition_cache,
                "result_cache": self.result_cache,
                "priority": self.priority,
            }
        )
        return doc


def values_digest(values: Optional[np.ndarray]) -> Optional[str]:
    """SHA-256 of a gathered output array's canonical bytes."""
    if values is None:
        return None
    arr = np.ascontiguousarray(values)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()
