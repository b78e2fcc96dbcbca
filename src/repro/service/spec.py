"""Job results: what the service hands back for one :class:`JobSpec`.

The unit of work itself — :class:`~repro.options.JobSpec`, the option
table — lives in :mod:`repro.options` and is re-exported here.  A
:class:`JobResult` carries the deterministic answer (the gathered
master values and their digest, round/byte/convergence accounting,
resilience recovery totals) alongside non-deterministic bookkeeping
(wall-clock, attempts, cache hit/miss provenance).  The
:meth:`~JobResult.payload` projection contains only the deterministic
part — the thing the result cache stores and the bitwise-identity tests
compare.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import numpy as np

from repro.options import JobSpec as JobSpec

#: Spec fields that affect scheduling but not the computed answer;
#: excluded from content hashing so they never fragment the result cache.
SCHEDULING_FIELDS = tuple(
    f.name for f in fields(JobSpec) if f.metadata["feeds"] == "scheduler"
)


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
