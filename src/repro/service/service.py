"""The analytics job service: scheduler + worker pool + cache, composed.

:class:`JobService` accepts jobs through admission control
(:meth:`~JobService.submit`), holds them in the bounded priority queue,
and drains them through a worker pool (:meth:`~JobService.run_pending` /
:meth:`~JobService.run_batch`).  Two pool backends:

* ``"serial"`` — jobs run inline, one at a time, in priority order (the
  default; deterministic, zero overhead).
* ``"process"`` — a pool forked after the parent built each distinct
  partition of the batch once
  (:func:`~repro.service.worker.stage_shared_partitions`), so the
  children read them copy-on-write; *result* reuse across jobs still
  needs a disk-backed cache (``cache_dir``).

Every job-level event — submitted, completed, failed, retried, cache
provenance — is counted in the observability metrics registry, so
``service.stats()`` (and ``repro serve``'s summary) can report hit rates
and throughput without private bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ServiceError
from repro.observability.metrics import MetricsRegistry
from repro.service.cache import ServiceCache
from repro.service.queue import ADMISSION_POLICIES, JobQueue
from repro.service.spec import JobResult, JobSpec
from repro.service.worker import DEFAULT_BACKOFF_S, execute_job, run_job_payload

#: Worker-pool backends.
BACKENDS = ("serial", "process")


@dataclass
class ServiceConfig:
    """Tunables of one :class:`JobService`.

    Attributes:
        workers: Pool width for the ``process`` backend.
        backend: ``"serial"`` or ``"process"``.
        max_pending: Queue capacity (admission control bound).
        admission: Full-queue policy (see
            :class:`~repro.service.queue.JobQueue`).
        cache_dir: Disk cache directory; ``None`` = in-memory cache.
        max_cached_partitions: LRU bound of the partition level.
        max_cached_results: LRU bound of the result level.
        retry_backoff_s: Base of the per-job exponential retry backoff.
    """

    workers: int = 1
    backend: str = "serial"
    max_pending: int = 64
    admission: str = "reject"
    cache_dir: Optional[str] = None
    max_cached_partitions: int = 16
    max_cached_results: int = 256
    retry_backoff_s: float = DEFAULT_BACKOFF_S

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ServiceError(
                f"unknown backend {self.backend!r} "
                f"(known: {', '.join(BACKENDS)})"
            )
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.admission not in ADMISSION_POLICIES:
            raise ServiceError(
                f"unknown admission policy {self.admission!r} "
                f"(known: {', '.join(ADMISSION_POLICIES)})"
            )
        if self.retry_backoff_s < 0:
            raise ServiceError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )


class JobService:
    """A bounded, cached, retrying analytics job service."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = ServiceCache(
            directory=self.config.cache_dir,
            max_partitions=self.config.max_cached_partitions,
            max_results=self.config.max_cached_results,
            metrics=self.metrics,
        )
        self.queue = JobQueue(
            max_pending=self.config.max_pending,
            admission=self.config.admission,
            metrics=self.metrics,
        )
        self._submitted = self.metrics.counter("service_jobs_submitted_total")
        self._completed = self.metrics.counter("service_jobs_completed_total")
        self._failed = self.metrics.counter("service_jobs_failed_total")
        self._retries = self.metrics.counter("service_job_retries_total")
        self._result_hits = self.metrics.counter(
            "service_jobs_result_cache_hits_total"
        )
        self._partition_hits = self.metrics.counter(
            "service_jobs_partition_cache_hits_total"
        )
        self._wall = self.metrics.histogram("service_job_wall_seconds")

    # -- intake ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Admit one job; returns its id.  Raises
        :class:`~repro.errors.AdmissionError` under backpressure."""
        self.queue.push(spec)
        self._submitted.inc()
        return spec.job_id

    # -- draining ----------------------------------------------------------

    def _account(self, result: JobResult) -> None:
        if result.status == "ok":
            self._completed.inc()
        else:
            self._failed.inc()
        if result.attempts > 1:
            self._retries.inc(result.attempts - 1)
        if result.result_cache == "hit":
            self._result_hits.inc()
        if result.partition_cache == "hit":
            self._partition_hits.inc()
        self._wall.observe(result.wall_s)

    def run_pending(self) -> List[JobResult]:
        """Drain the queue through the configured worker pool.

        Results come back in service order (priority, then submission).
        """
        specs = self.queue.drain()
        if not specs:
            return []
        backend = self.config.backend
        if backend == "serial":
            results = [
                execute_job(
                    spec,
                    cache=self.cache,
                    backoff_s=self.config.retry_backoff_s,
                )
                for spec in specs
            ]
        else:  # process
            import multiprocessing

            from repro.service.worker import adopt_partitions, stage_shared_partitions

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                raise ServiceError(
                    "the process backend needs the 'fork' start method (POSIX only)"
                ) from None
            # Build each distinct partition once, here; the pool forks
            # afterwards, so its children inherit them copy-on-write.
            shared = stage_shared_partitions(specs, cache=self.cache)
            with ctx.Pool(self.config.workers, adopt_partitions, (shared,)) as pool:
                results = pool.starmap(
                    run_job_payload,
                    [
                        (
                            spec.to_dict(),
                            self.config.cache_dir,
                            self.config.retry_backoff_s,
                        )
                        for spec in specs
                    ],
                )
            # Child processes wrote through their own cache views; keep
            # the parent's (disk-backed) view coherent for later lookups.
            if self.config.cache_dir is not None:
                self.cache = ServiceCache(
                    directory=self.config.cache_dir,
                    max_partitions=self.config.max_cached_partitions,
                    max_results=self.config.max_cached_results,
                    metrics=self.metrics,
                )
        for result in results:
            self._account(result)
        return results

    def run_batch(self, specs: List[JobSpec]) -> List[JobResult]:
        """Submit then drain a whole batch; returns one result per job."""
        for spec in specs:
            self.submit(spec)
        return self.run_pending()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Service-level counter snapshot (jobs, cache levels, queue)."""
        return {
            "jobs": {
                "submitted": self._submitted.value,
                "completed": self._completed.value,
                "failed": self._failed.value,
                "retries": self._retries.value,
                "result_cache_hits": self._result_hits.value,
                "partition_cache_hits": self._partition_hits.value,
            },
            "queue_depth": self.queue.depth,
            "cache": self.cache.stats(),
        }


def serve_batch(
    specs: List[JobSpec],
    config: Optional[ServiceConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> tuple:
    """One-shot convenience: run ``specs`` through a fresh service.

    Returns ``(results, service, wall_seconds)`` — everything the CLI and
    the benchmark harness need to report throughput and hit rates.
    """
    service = JobService(config=config, metrics=metrics)
    started = time.perf_counter()
    results = service.run_batch(specs)
    return results, service, time.perf_counter() - started
