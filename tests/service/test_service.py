"""End-to-end service behavior: caching soundness, retries, backends."""

import numpy as np
import pytest

from repro.errors import ExecutionError, ServiceError
from repro.observability.metrics import MetricsRegistry
from repro.service import (
    JobService,
    JobSpec,
    ServiceCache,
    ServiceConfig,
    execute_job,
    serve_batch,
)
from repro.service import worker as worker_module

#: Small enough to keep every test fast; big enough to run real rounds.
SCALE = -6


def _spec(app="bfs", **kw):
    kw.setdefault("policy", "cvc")
    kw.setdefault("scale_delta", SCALE)
    return JobSpec(app=app, workload="rmat22s", **kw)


class TestResultCache:
    def test_identical_resubmit_hits_and_is_bitwise_identical(self):
        metrics = MetricsRegistry()
        cache = ServiceCache(metrics=metrics)
        cold = execute_job(_spec(), cache=cache)
        warm = execute_job(_spec(), cache=cache)
        assert cold.result_cache == "miss"
        assert warm.result_cache == "hit"
        # Bitwise-identical output and identical deterministic payload.
        assert np.array_equal(cold.values, warm.values)
        assert cold.payload() == warm.payload()
        assert cold.output_digest == warm.output_digest
        # The hit skipped partitioning entirely: only the cold run stored
        # a partition, and the warm lookup touched no partition entry.
        stats = cache.stats()
        assert stats["result"]["hits"] == 1
        assert stats["partition"]["stores"] == 1
        assert stats["partition"]["misses"] == 1

    def test_hit_survives_the_disk_and_a_new_process_view(self, tmp_path):
        cold = execute_job(_spec(), cache=ServiceCache(directory=tmp_path))
        warm = execute_job(_spec(), cache=ServiceCache(directory=tmp_path))
        assert warm.result_cache == "hit"
        assert np.array_equal(cold.values, warm.values)

    def test_decayed_entry_recomputes_instead_of_serving(self):
        cache = ServiceCache()
        spec = _spec()
        cold = execute_job(spec, cache=cache)
        # Corrupt the stored values so the digest re-check fails.
        stored = cache.get_result(spec.content_hash())
        stored.values = stored.values + 1
        cache.put_result(spec.content_hash(), stored)
        again = execute_job(spec, cache=cache)
        assert again.result_cache == "miss"  # fell through to recompute
        assert np.array_equal(again.values, cold.values)

    def test_scheduling_fields_share_one_cache_entry(self):
        cache = ServiceCache()
        execute_job(_spec(priority=0), cache=cache)
        warm = execute_job(_spec(priority=9, max_attempts=3), cache=cache)
        assert warm.result_cache == "hit"
        assert warm.priority == 9  # bookkeeping reflects *this* submission


class TestPartitionCache:
    def test_second_app_on_same_graph_reuses_the_partition(self):
        cache = ServiceCache()
        bfs = execute_job(_spec("bfs"), cache=cache)
        pr = execute_job(_spec("pr"), cache=cache)
        assert bfs.partition_cache == "miss"
        assert pr.partition_cache == "hit"
        # Warm construction is credited, not skipped, in the accounting:
        # a cached partition must not change the deterministic answer.
        assert pr.construction_bytes > 0

    def test_cc_keys_apart_because_it_symmetrizes(self):
        cache = ServiceCache()
        execute_job(_spec("bfs"), cache=cache)
        cc = execute_job(_spec("cc", policy="oec"), cache=cache)
        assert cc.partition_cache == "miss"

    def test_staged_job_caches_its_address_books(self, monkeypatch):
        """bc's partition is stored with its memoized books, so a second
        bc job on it runs no memoization exchange and is credited the
        cold one's bytes.  (``tolerance``, which bc does not read, keeps
        the result cache from answering the second job.)"""
        import repro.runtime.executor as executor_module

        cache = ServiceCache()
        cold = execute_job(_spec("bc"), cache=cache)
        exchanges = []
        real = executor_module.setup_substrates
        monkeypatch.setattr(
            executor_module, "setup_substrates",
            lambda *a, **kw: exchanges.append(a) or real(*a, **kw),
        )
        warm = execute_job(_spec("bc", tolerance=1e-3), cache=cache)
        assert (cold.partition_cache, warm.partition_cache) == ("miss", "hit")
        assert warm.result_cache == "miss" and exchanges == []
        for quantity in ("rounds", "comm_bytes", "construction_bytes"):
            assert getattr(warm, quantity) == getattr(cold, quantity), quantity
        assert cold.construction_bytes > 0
        assert np.array_equal(cold.values, warm.values)

    def test_warm_and_cold_runs_agree_on_everything_deterministic(self):
        cold = execute_job(_spec("pr"), cache=ServiceCache())
        shared = ServiceCache()
        execute_job(_spec("bfs"), cache=shared)  # seeds the partition
        warm = execute_job(_spec("pr"), cache=shared)
        assert warm.partition_cache == "hit"
        assert cold.payload() == warm.payload()
        assert np.array_equal(cold.values, warm.values)


class TestRetries:
    def test_transient_failure_retries_with_backoff(self, monkeypatch):
        real = worker_module._run_once
        failures = {"left": 2}

        def flaky(spec, cache):
            if failures["left"]:
                failures["left"] -= 1
                raise ExecutionError("injected transient failure")
            return real(spec, cache)

        monkeypatch.setattr(worker_module, "_run_once", flaky)
        naps = []
        result = execute_job(
            _spec(max_attempts=3), backoff_s=0.01, sleep=naps.append
        )
        assert result.status == "ok"
        assert result.attempts == 3
        assert naps == [0.01, 0.02]  # exponential
        assert result.backoff_s == pytest.approx(0.03)

    def test_exhausted_attempts_fail_without_raising(self, monkeypatch):
        def doomed(spec, cache):
            raise ExecutionError("always down")

        monkeypatch.setattr(worker_module, "_run_once", doomed)
        result = execute_job(
            _spec(max_attempts=2), backoff_s=0.0, sleep=lambda _s: None
        )
        assert result.status == "failed"
        assert result.attempts == 2
        assert "always down" in result.error

    def test_programming_errors_still_propagate(self, monkeypatch):
        def buggy(spec, cache):
            raise ValueError("a bug, not a fault")

        monkeypatch.setattr(worker_module, "_run_once", buggy)
        with pytest.raises(ValueError):
            execute_job(_spec(max_attempts=3), sleep=lambda _s: None)


class TestJobService:
    def test_batch_runs_in_priority_order_and_counts(self):
        service = JobService(ServiceConfig())
        results = service.run_batch(
            [_spec("bfs"), _spec("pr", priority=2), _spec("cc", policy="oec")]
        )
        assert [r.spec["app"] for r in results] == ["pr", "bfs", "cc"]
        stats = service.stats()
        assert stats["jobs"]["submitted"] == 3
        assert stats["jobs"]["completed"] == 3
        assert stats["jobs"]["failed"] == 0
        assert stats["queue_depth"] == 0

    def test_resubmitted_batch_is_all_result_hits(self):
        service = JobService(ServiceConfig())
        specs = [_spec("bfs"), _spec("pr")]
        first = service.run_batch(specs)
        second = service.run_batch(specs)
        assert all(r.result_cache == "hit" for r in second)
        assert service.stats()["jobs"]["result_cache_hits"] == 2
        for cold, warm in zip(first, second):
            assert np.array_equal(cold.values, warm.values)

    def test_failed_jobs_count_without_poisoning_the_batch(
        self, monkeypatch
    ):
        real = worker_module._run_once

        def flaky(spec, cache):
            if spec.app == "pr":
                raise ExecutionError("down")
            return real(spec, cache)

        monkeypatch.setattr(worker_module, "_run_once", flaky)
        service = JobService(ServiceConfig(retry_backoff_s=0.0))
        results = service.run_batch([_spec("bfs"), _spec("pr")])
        by_app = {r.spec["app"]: r for r in results}
        assert by_app["bfs"].status == "ok"
        assert by_app["pr"].status == "failed"
        stats = service.stats()["jobs"]
        assert (stats["completed"], stats["failed"]) == (1, 1)

    def test_process_backend_shares_the_disk_cache(self, tmp_path):
        config = ServiceConfig(
            backend="process", workers=2, cache_dir=str(tmp_path)
        )
        service = JobService(config)
        first = service.run_batch([_spec("bfs"), _spec("pr")])
        assert all(r.status == "ok" for r in first)
        # The parent's reopened view serves the children's stored results.
        second = service.run_batch([_spec("bfs"), _spec("pr")])
        assert all(r.result_cache == "hit" for r in second)
        for cold, warm in zip(first, second):
            assert np.array_equal(cold.values, warm.values)

    def test_config_validation(self):
        for backend in ("fiber", "thread"):
            with pytest.raises(ServiceError, match=f"unknown backend '{backend}'"):
                ServiceConfig(backend=backend)
        with pytest.raises(ServiceError, match="workers"):
            ServiceConfig(workers=0)
        with pytest.raises(ServiceError, match="admission"):
            ServiceConfig(admission="maybe")
        with pytest.raises(ServiceError, match="retry_backoff_s"):
            ServiceConfig(retry_backoff_s=-1.0)


class TestServeBatch:
    def test_returns_results_service_and_wall(self):
        results, service, wall = serve_batch(
            [_spec("bfs")], config=ServiceConfig()
        )
        assert len(results) == 1
        assert results[0].status == "ok"
        assert service.stats()["jobs"]["submitted"] == 1
        assert wall > 0
