"""Odd splits of hosts over workers, the empty fabric, and how many
workers a run gets when nobody says.

``test_process_runtime.py`` covers 4 hosts over 1/2/3 workers; here the
ownership is uneven in every way ``h % workers`` can make it (5 hosts
over 2, 3 and 5 workers — a worker with three hosts beside one with two,
workers with one host each) and the cluster with no rings at all.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ExecutionError
from repro.parallel import coordinator
from repro.parallel.coordinator import resolve_workers
from repro.systems import run_app

from tests.parallel.test_process_runtime import assert_identical

pytestmark = [
    pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="the process runtime needs a POSIX /dev/shm"
    ),
    pytest.mark.usefixtures("no_leaked_segments"),
]


class TestFiveHosts:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize(
        "app, policy, key",
        [("pr", "oec", "rank"), ("cc", "cvc", "label"), ("bfs", "cvc", "dist")],
    )
    def test_bitwise_identity(self, small_rmat, app, policy, key, workers):
        job = dict(num_hosts=5, policy=policy)
        sim = run_app("d-galois", app, small_rmat, **job)
        proc = run_app(
            "d-galois", app, small_rmat, runtime="process", workers=workers, **job
        )
        assert_identical(sim, proc, key)
        assert proc.mode_counts == sim.mode_counts


def test_a_single_host_cluster_runs_over_an_empty_fabric(monkeypatch, small_rmat):
    made = []

    class Spy(coordinator.RingFabric):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(coordinator, "RingFabric", Spy)
    sim = run_app("d-galois", "pr", small_rmat, num_hosts=1)
    proc = run_app("d-galois", "pr", small_rmat, num_hosts=1, runtime="process")
    assert_identical(sim, proc, "rank")
    (fabric,) = made
    assert not fabric.rings  # nobody to talk to: phase counters only


class TestDefaultWorkerCount:
    """Satellite bug: the default used the machine's core count, so a run
    pinned to one CPU forked a worker per core onto it."""

    @pytest.fixture
    def affinity(self, monkeypatch):
        def pin(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
            # The machine has many more cores than the process may use.
            monkeypatch.setattr(coordinator.multiprocessing, "cpu_count", lambda: 64)

        return pin

    def test_one_allowed_cpu_means_one_worker(self, affinity):
        affinity({0})
        assert resolve_workers(None, 8) == 1

    def test_four_allowed_cpus(self, affinity):
        affinity({2, 3, 6, 7})
        assert resolve_workers(None, 8) == 4
        assert resolve_workers(None, 3) == 3  # still never more than hosts

    def test_an_explicit_count_is_only_clamped_to_the_hosts(self, affinity):
        affinity({0})
        assert resolve_workers(3, 8) == 3
        assert resolve_workers(12, 8) == 8
        with pytest.raises(ExecutionError, match="workers must be >= 1"):
            resolve_workers(0, 8)

    def test_platforms_without_affinity_fall_back_to_the_core_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(coordinator.multiprocessing, "cpu_count", lambda: 6)
        assert resolve_workers(None, 8) == 6
