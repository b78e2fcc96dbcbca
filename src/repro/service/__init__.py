"""Analytics job service: async job queue, worker pool, and caching.

The serving layer over the Gluon reproduction (see DESIGN.md,
"Serving").  Gluon's temporal-invariance insight (§4) — the partition
never changes, so address translation is memoized once and amortized
over every round — generalizes across *jobs*: repeated analytics queries
over the same graph pay for partitioning, sync-structure setup, and
memoization exactly once.

* :mod:`repro.service.spec` — :class:`JobSpec` / :class:`JobResult` with
  deterministic, process-independent content hashing;
* :mod:`repro.service.queue` — bounded priority queue with admission
  control and backpressure;
* :mod:`repro.service.cache` — two-level content-addressed LRU cache
  (partitions + memoized sync structures; completed results);
* :mod:`repro.service.worker` — cache-aware execution with per-job
  retry-with-backoff, one fresh executor per attempt;
* :mod:`repro.service.service` — :class:`JobService`, composing all of
  the above over a serial or a forked multiprocessing worker pool;
* :mod:`repro.service.batch` — the ``repro serve`` batch-file format.

CLI surface: ``repro serve jobs.json``, ``repro submit``, and
``repro run --cache-dir``.
"""

from repro.service.batch import load_batch
from repro.service.cache import CacheLevel, ServiceCache
from repro.service.queue import ADMISSION_POLICIES, JobQueue
from repro.service.service import (
    BACKENDS,
    JobService,
    ServiceConfig,
    serve_batch,
)
from repro.service.spec import JobResult, JobSpec, values_digest
from repro.service.worker import execute_job, run_job_payload

__all__ = [
    "ADMISSION_POLICIES",
    "BACKENDS",
    "CacheLevel",
    "JobQueue",
    "JobResult",
    "JobService",
    "JobSpec",
    "ServiceCache",
    "ServiceConfig",
    "execute_job",
    "load_batch",
    "run_job_payload",
    "serve_batch",
    "values_digest",
]
