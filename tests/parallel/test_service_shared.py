"""The service's process backend: the parent builds each distinct
partition of a batch once, the forked pool inherits them, nothing
partition-sized crosses a process boundary or lands in shared memory,
and the answers stay bitwise identical to the serial backend."""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
from multiprocessing import reduction, shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExecutionError, ServiceError
from repro.service import JobService, JobSpec, ServiceCache, ServiceConfig
from repro.service.worker import SharedPartitionCache, stage_shared_partitions
from repro.systems import RunPlan

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="the process backend needs a POSIX /dev/shm"
)

#: Small enough to keep every test fast; big enough to run real rounds.
SCALE = -6


def _spec(app="bfs", **kw):
    kw.setdefault("policy", "cvc")
    kw.setdefault("scale_delta", SCALE)
    return JobSpec(app=app, workload="rmat22s", **kw)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(os.listdir(SHM_DIR))
    yield
    gc.collect()
    leaked = set(os.listdir(SHM_DIR)) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _process(specs, **config):
    return JobService(ServiceConfig(backend="process", workers=2, **config)).run_batch(specs)


@pytest.fixture
def builds(monkeypatch):
    """Every partition this (parent) process builds or fetches."""
    seen = []
    plain = RunPlan.build

    def build(self, cache=None):
        seen.append(self.partition_cache_key())
        return plain(self, cache)

    monkeypatch.setattr(RunPlan, "build", build)
    return seen


class TestProcessBackend:
    def test_one_parent_build_per_distinct_partition(self, builds):
        # Three jobs, two distinct (graph, policy, hosts) triples: the
        # bfs and pr jobs share a partition, the oec job does not.
        specs = [_spec("bfs"), _spec("pr"), _spec("bfs", policy="oec")]
        shared = stage_shared_partitions(specs)
        assert len(builds) == 2 and set(builds) == set(shared)
        # Cold staging (no cache) carries no memoized sync structures;
        # each job runs the exchange itself, the reference path.
        assert all(entry.prepared_sync is None for entry in shared.values())
        del builds[:]
        assert all(r.status == "ok" for r in _process(specs))
        assert len(builds) == 2  # the children built nothing

    def test_every_job_is_a_partition_hit_without_a_disk_cache(self):
        specs = [_spec("bfs"), _spec("pr"), _spec("cc", policy="oec")]
        serial = JobService(ServiceConfig()).run_batch(specs)
        process = _process(specs)
        for s, p in zip(serial, process):
            assert p.status == "ok"
            assert p.partition_cache == "hit"
            assert p.result_cache == "miss"
            assert p.payload() == s.payload()
            assert p.construction_bytes == s.construction_bytes
            np.testing.assert_array_equal(p.values, s.values)

    def test_batch_creates_no_segment_and_pickles_no_partition(self, monkeypatch):
        created, frames = [], []
        plain_init = shared_memory.SharedMemory.__init__
        plain_dumps = reduction.ForkingPickler.dumps

        def init(self, name=None, create=False, size=0, **kw):
            plain_init(self, name=name, create=create, size=size, **kw)
            if create:
                created.append(self.name)

        def dumps(cls, obj, protocol=None):
            frame = plain_dumps(obj, protocol)
            frames.append(len(frame))
            return frame

        monkeypatch.setattr(shared_memory.SharedMemory, "__init__", init)
        monkeypatch.setattr(reduction.ForkingPickler, "dumps", classmethod(dumps))
        specs = [_spec("bfs"), _spec("pr"), _spec("bfs", policy="oec")]
        smallest = min(
            len(pickle.dumps(entry.partitioned))
            for entry in stage_shared_partitions(specs).values()
        )
        assert all(r.status == "ok" for r in _process(specs))
        assert created == []
        # What the parent sent the pool: specs, never a partition.
        assert frames and max(frames) < smallest

    def test_an_unstageable_spec_fails_alone(self, monkeypatch):
        from repro import workloads

        plain = workloads.load_workload

        def load(name, scale_delta=0):
            if scale_delta == SCALE - 1:
                raise ExecutionError("input store offline")
            return plain(name, scale_delta)

        # Forked children inherit the patched loader too.
        monkeypatch.setattr(workloads, "load_workload", load)
        bad = _spec("bfs", scale_delta=SCALE - 1)
        results = _process([_spec("bfs"), bad, _spec("pr")])
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert "input store offline" in results[1].error
        assert results[0].partition_cache == results[2].partition_cache == "hit"

    def test_without_fork_the_pool_is_a_named_error(self, monkeypatch):
        def get_context(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        with pytest.raises(ServiceError, match="needs the 'fork' start method"):
            _process([_spec("bfs")])


class TestSharedPartitionCache:
    def test_hit_falls_through_and_put_skip(self):
        shared = stage_shared_partitions([_spec("bfs")])
        ((key, staged),) = shared.items()
        inner = ServiceCache()
        cache = SharedPartitionCache(shared, inner=inner)
        assert cache.get_partition(key) is staged  # the parent's object
        # A staged key is never written through; anything else is.
        cache.put_partition(key, staged.partitioned)
        assert inner.partitions.keys() == []
        cache.put_partition("elsewhere", staged.partitioned)
        assert cache.get_partition("elsewhere") is not None
        assert SharedPartitionCache(shared).get_partition("elsewhere") is None
        assert SharedPartitionCache(shared).get_result("anything") is None


class TestEndToEnd:
    def test_process_backend_matches_serial_bitwise(self):
        specs = [_spec("bfs"), _spec("pr"), _spec("cc")]
        serial = JobService(ServiceConfig()).run_batch(
            [_spec("bfs"), _spec("pr"), _spec("cc")]
        )
        process = JobService(
            ServiceConfig(backend="process", workers=2)
        ).run_batch(specs)
        assert all(r.status == "ok" for r in process)
        for s, p in zip(serial, process):
            assert p.output_digest == s.output_digest
            assert p.sim_time_s == s.sim_time_s
            assert p.comm_bytes == s.comm_bytes
            np.testing.assert_array_equal(p.values, s.values)
