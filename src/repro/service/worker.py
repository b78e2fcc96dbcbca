"""Job execution: one spec in, one result out, cache-aware and retried.

:func:`execute_job` is the unit the worker pool schedules.  Flow:

1. **Result cache** — an identical spec (by content hash) that completed
   before returns its stored :class:`~repro.service.spec.JobResult`
   verbatim: no partitioning, no memoization, no rounds.  The stored
   output digest is re-verified against the stored values, so a decayed
   entry falls through to recompute instead of being served.
2. **Run** — a *fresh* :class:`~repro.runtime.executor.DistributedExecutor`
   per attempt (executors are single-use per completed run; the guard in
   ``run`` enforces it), routed through the partition cache via
   :func:`repro.systems.run_app`, so only the first job over a (graph,
   policy, hosts) triple pays for partitioning + memoization.
3. **Retry with backoff** — a failed attempt (any
   :class:`~repro.errors.ReproError`) backs off exponentially and
   retries up to ``spec.max_attempts``; the job's resilience accounting
   (recoveries survived, recovery bytes/time — the same quantities the
   resilience subsystem puts on :class:`~repro.runtime.stats.RunResult`)
   is folded into the result and the service metrics.

``run_job_payload`` is the ``multiprocessing``-friendly entry point: it
takes plain data, reopens the (disk) cache in the child, and returns a
picklable result.  In a process pool it also reads the partitions the
parent built before forking (:func:`stage_shared_partitions`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.partition.build import CachedPartition
from repro.service.cache import ServiceCache
from repro.service.spec import JobResult, JobSpec, values_digest
from repro.verify import output_key

#: Default base of the exponential retry backoff (seconds).  Small: the
#: cluster is simulated, so failures are deterministic logic errors or
#: injected faults, not transient infrastructure weather.
DEFAULT_BACKOFF_S = 0.05


def _recovery_accounting(result) -> Dict:
    """Fold the run's resilience accounting into a plain dict."""
    return {
        "num_recoveries": result.num_recoveries,
        "recovery_bytes": result.recovery_bytes,
        "recovery_time_s": result.recovery_time,
        "num_checkpoints": result.num_checkpoints,
        "checkpoint_bytes": result.checkpoint_bytes,
    }


def _run_once(spec: JobSpec, cache: Optional[ServiceCache]) -> JobResult:
    """One attempt: a fresh executor end to end (no result-cache check)."""
    from repro.systems import run_app
    from repro.workloads import load_workload

    edges = load_workload(spec.workload, spec.scale_delta)
    started = time.perf_counter()
    run = run_app(
        spec.system,
        spec.app,
        edges,
        spec.hosts,
        partition_cache=cache,
        **spec.run_options(),
    )
    wall_s = time.perf_counter() - started
    key = output_key(spec.app)
    values = None
    executor = getattr(run, "executor", None)
    if key is not None and executor is not None:
        values = executor.gather_result(key)
    partition_status = "off"
    if cache is not None:
        hit = getattr(run, "partition_cache_hit", False)
        partition_status = "hit" if hit else "miss"
    return JobResult(
        job_id=spec.job_id,
        spec_hash=spec.content_hash(),
        spec=spec.to_dict(),
        status="ok",
        rounds=run.num_rounds,
        sim_time_s=run.total_time,
        comm_bytes=run.communication_volume,
        construction_bytes=run.construction_bytes,
        converged=run.converged,
        replication_factor=run.replication_factor,
        output_key=key,
        output_digest=values_digest(values),
        values=values,
        recovery=_recovery_accounting(run),
        wall_s=wall_s,
        partition_cache=partition_status,
        result_cache="off" if cache is None else "miss",
        priority=spec.priority,
    )


def execute_job(
    spec: JobSpec,
    cache: Optional[ServiceCache] = None,
    backoff_s: float = DEFAULT_BACKOFF_S,
    sleep=time.sleep,
) -> JobResult:
    """Run one job: result cache, then fresh attempts with backoff.

    Never raises for a job-level failure — a spec whose every attempt
    raised a :class:`ReproError` comes back with ``status="failed"`` and
    the last error message, so one poisoned job cannot take down a batch.
    Programming errors (non-``ReproError``) still propagate.
    """
    spec_hash = spec.content_hash()
    if cache is not None:
        lookup_started = time.perf_counter()
        cached = cache.get_result(spec_hash)
        if cached is not None and cached.output_digest == values_digest(
            cached.values
        ):
            cached.result_cache = "hit"
            cached.wall_s = time.perf_counter() - lookup_started
            cached.priority = spec.priority
            return cached
    attempts = 0
    slept = 0.0
    last_error: Optional[str] = None
    while attempts < spec.max_attempts:
        attempts += 1
        try:
            result = _run_once(spec, cache)
        except ReproError as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            if attempts < spec.max_attempts:
                delay = backoff_s * (2 ** (attempts - 1))
                sleep(delay)
                slept += delay
            continue
        result.attempts = attempts
        result.backoff_s = slept
        if cache is not None:
            cache.put_result(spec_hash, result)
        return result
    return JobResult(
        job_id=spec.job_id,
        spec_hash=spec_hash,
        spec=spec.to_dict(),
        status="failed",
        error=last_error,
        attempts=attempts,
        backoff_s=slept,
        partition_cache="off" if cache is None else "miss",
        result_cache="off" if cache is None else "miss",
        priority=spec.priority,
    )


class SharedPartitionCache:
    """The batch's staged partitions (the parent's objects, inherited
    through ``fork``), then the inner cache for everything else.  A
    staged ``prepared_sync`` carries its ``memoization_bytes``, so a hit
    accounts construction like the disk cache's warm path, bitwise."""

    def __init__(
        self,
        shared: Dict[str, CachedPartition],
        inner: Optional[ServiceCache] = None,
    ) -> None:
        self._shared = shared
        self._inner = inner

    # -- partition level (duck-typed build_partition protocol) -------------

    def get_partition(self, key: str) -> Optional[CachedPartition]:
        entry = self._shared.get(key)
        if entry is None and self._inner is not None:
            return self._inner.get_partition(key)
        return entry

    def put_partition(self, key: str, partitioned, prepared_sync=None) -> None:
        if self._inner is not None and key not in self._shared:
            self._inner.put_partition(key, partitioned, prepared_sync)

    # -- result level (delegated) ------------------------------------------

    def get_result(self, spec_hash: str):
        if self._inner is None:
            return None
        return self._inner.get_result(spec_hash)

    def put_result(self, spec_hash: str, result: JobResult) -> None:
        if self._inner is not None:
            self._inner.put_result(spec_hash, result)


def stage_shared_partitions(specs: List[JobSpec], cache=None) -> Dict[str, CachedPartition]:
    """Parent-side: build each distinct partition ``specs`` need, once.

    Returns ``{partition-cache key: CachedPartition}``, one entry per
    distinct (graph, policy, hosts) triple.  A spec whose inputs cannot
    be staged is skipped: its job surfaces the error itself, through the
    normal attempt/retry path.
    """
    from repro.systems import plan_run
    from repro.workloads import load_workload

    shared: Dict[str, CachedPartition] = {}
    for spec in specs:
        try:
            edges = load_workload(spec.workload, spec.scale_delta)
            plan = plan_run(
                spec.system, spec.app, edges, spec.hosts, **spec.run_options()
            )
            key = plan.partition_cache_key()
            if key in shared:
                continue
            outcome = plan.build(cache)
            if cache is not None and not outcome.from_cache:
                # Keep the persistent cache warm for future batches; the
                # workers themselves hit the staged dict, never this.
                cache.put_partition(key, outcome.partitioned)
            shared[key] = CachedPartition(outcome.partitioned, outcome.prepared_sync)
        except (ReproError, ValueError):
            # ValueError covers unknown workload/app names, which the
            # loaders raise directly.
            continue
    return shared


#: In a process-pool child: the parent's staged partitions.
_STAGED: Dict[str, CachedPartition] = {}


def adopt_partitions(shared: Dict[str, CachedPartition]) -> None:
    """Pool initializer; ``fork`` hands ``initargs`` over unpickled."""
    global _STAGED
    _STAGED = shared


def run_job_payload(
    spec_dict: Dict,
    cache_dir: Optional[str] = None,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> JobResult:
    """``multiprocessing`` entry point: plain data in, picklable result out.

    Each worker process opens its own view of the (shared, disk-backed)
    cache; with no ``cache_dir`` only the adopted partitions are cached.
    """
    spec = JobSpec.from_dict(spec_dict)
    inner = ServiceCache(directory=cache_dir) if cache_dir else None
    cache = SharedPartitionCache(_STAGED, inner=inner) if _STAGED else inner
    return execute_job(spec, cache=cache, backoff_s=backoff_s)
