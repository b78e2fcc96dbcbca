"""Construction on host shares: the CPU count never shows in a result.

``partition.base.for_each_host`` runs the per-host partition builds and
the local, encode and translate phases of the memoization exchange on
one strided host share per allowed CPU.  With 1 and with several allowed
CPUs (set by patching the one CPU-count helper, ``allowed_cpus``), the
partitions, the address books and the exchange's byte trace must be
equal, record by record — for every policy, Gemini's edge-less proxies
included, cold and through a streaming delta.  A helper thread's error
surfaces as the sequential loop's would, and no thread outlives
construction.
"""

import threading

import numpy as np
import pytest

from repro.core.memoization import exchange_address_books
from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.network.transport import InProcessTransport
from repro.partition import base
from repro.partition.base import build_partitioned_graph, for_each_host
from repro.streaming.batch import MutationBatch
from repro.streaming.delta import delta_partition
from repro.systems import plan_run

from tests.streaming.test_delta import (
    ALL_POLICIES,
    assert_books_identical,
    assert_partitions_identical,
    old_version,
    partitioner_of,
)

NUM_HOSTS = 5  # more hosts than shares, and not a multiple of two


class TracingTransport(InProcessTransport):
    """Keeps every send, in order: the construction byte trace."""

    def __init__(self, num_hosts):
        super().__init__(num_hosts)
        self.trace = []

    def send(self, src, dst, payload):
        self.trace.append((src, dst, bytes(payload)))
        super().send(src, dst, payload)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: from now on this process may use ``n`` CPUs."""

    def allow(count):
        monkeypatch.setattr(base, "allowed_cpus", lambda: count)

    return allow


def graph(seed, num_nodes=300, num_edges=2400, weighted=True):
    rng = np.random.default_rng(seed)
    return EdgeList(
        num_nodes,
        rng.integers(0, num_nodes, size=num_edges, dtype=np.uint32),
        rng.integers(0, num_nodes, size=num_edges, dtype=np.uint32),
        rng.integers(1, 20, size=num_edges, dtype=np.uint32) if weighted else None,
    ).deduplicate()


def exchange(partitioned, previous=None):
    transport = TracingTransport(partitioned.num_hosts)
    books = exchange_address_books(partitioned, transport, previous)
    return books, transport.trace


def cold(policy, edges):
    partitioner = partitioner_of(policy)
    partitioned = build_partitioned_graph(
        edges, partitioner.assign(edges, NUM_HOSTS), partitioner.strategy, partitioner.name
    )
    return (partitioned, *exchange(partitioned))


@pytest.mark.parametrize("shares", [2, 3])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_cold_build_is_independent_of_the_cpu_count(cpus, policy, shares):
    edges = graph(7)
    cpus(1)
    one = cold(policy, edges)
    cpus(shares)
    many = cold(policy, edges)
    assert_partitions_identical(many[0], one[0])
    assert_books_identical(many[1], one[1])
    assert many[2] == one[2]
    assert len(one[2]) > 0


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_delta_rebuild_is_independent_of_the_cpu_count(cpus, policy):
    edges = graph(11)
    # Two edges in, two out, far apart: some hosts rebuilt, some reused.
    batch = MutationBatch(
        insert_src=[3, 290], insert_dst=[4, 120], insert_weight=[5, 6],
        delete_src=edges.src[[10, -10]].tolist(), delete_dst=edges.dst[[10, -10]].tolist(),
    )
    new_edges, _ = batch.apply(edges)
    cpus(1)
    partitioner, old, signatures = old_version(policy, edges, NUM_HOSTS)
    old_books, _ = exchange(old)

    def patch():
        delta = delta_partition(old, signatures, new_edges, partitioner)
        books, trace = exchange(
            delta.partitioned, previous=(old_books, old, delta.rebuilt_hosts)
        )
        return delta, books, trace

    one = patch()
    cpus(2)
    many = patch()
    assert 2 <= len(one[0].rebuilt_hosts) < NUM_HOSTS
    assert many[0].rebuilt_hosts == one[0].rebuilt_hosts
    assert many[0].reused_hosts == one[0].reused_hosts
    assert_partitions_identical(many[0].partitioned, one[0].partitioned)
    assert_books_identical(many[1], one[1])
    assert many[2] == one[2]


class HostFailed(Exception):
    """Raised by a host on purpose."""


@pytest.mark.parametrize(
    "failing, lowest",
    [
        ({1, 4}, 1),  # on a helper thread only
        ({2, 3}, 2),  # the caller's share fails first
        ({5}, 5),
    ],
)
def test_the_lowest_failing_hosts_error_surfaces(cpus, failing, lowest):
    cpus(2)

    def fn(host):
        if host in failing:
            raise HostFailed(host)
        return host

    with pytest.raises(HostFailed) as caught:
        for_each_host(range(6), fn)
    assert caught.value.args == (lowest,)


def test_results_come_back_in_host_order(cpus):
    cpus(3)
    seen = []
    assert for_each_host(range(7), lambda h: seen.append(h) or h * h) == [
        h * h for h in range(7)
    ]
    assert sorted(seen) == list(range(7))


def test_each_share_gets_its_own_scratch(cpus):
    cpus(2)
    scratches = for_each_host(range(6), lambda host, scratch: scratch, scratch=object)
    assert scratches[0] is scratches[2] is scratches[4]
    assert scratches[1] is scratches[3] is scratches[5]
    assert scratches[0] is not scratches[1]


def test_a_build_error_on_a_helper_keeps_its_type(cpus, monkeypatch):
    cpus(2)
    real = base.build_local_partition

    def build(edges, assignment, host, gid_to_lid=None):
        if host == 3:
            raise PartitionError(f"host {host} refused")
        return real(edges, assignment, host, gid_to_lid)

    monkeypatch.setattr(base, "build_local_partition", build)
    edges = graph(5)
    partitioner = partitioner_of("cvc")
    with pytest.raises(PartitionError, match="host 3 refused"):
        build_partitioned_graph(
            edges, partitioner.assign(edges, NUM_HOSTS), partitioner.strategy, "cvc"
        )


def test_no_thread_outlives_construction_or_a_bind(cpus):
    cpus(2)
    before = threading.active_count()
    edges = graph(13, weighted=False)
    cold("hvc", edges)
    assert threading.active_count() == before
    plan = plan_run("d-galois", "cc", edges, NUM_HOSTS, policy="hvc")
    executor = plan.executor(plan.build().partitioned)
    assert threading.active_count() == before
    executor.run()
    assert threading.active_count() == before


def test_one_cpu_starts_no_thread(cpus, monkeypatch):
    cpus(1)

    def refuse(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cold("cvc", graph(17))
