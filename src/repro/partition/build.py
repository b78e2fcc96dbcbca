"""Shared partition construction: the one place a graph gets partitioned.

Every run builds its partition here — :meth:`repro.systems.RunPlan.build`
is the one call site behind ``run_app``, streaming sessions and the job
service — so a single partition cache (see :mod:`repro.service.cache`)
covers them all; the experiment harnesses in
:mod:`repro.analysis.experiments` call it uncached.

The cache is duck-typed: anything with ``get_partition(key)`` returning a
:class:`CachedPartition` (or ``None``) and ``put_partition(key,
partitioned, prepared_sync)`` works.  Keys are content-addressed —
SHA-256 over the input graph's canonical bytes, the partitioner's
identity token, and the host count — so identical work is recognized
across processes and sessions, never by object identity.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional

from repro.graph.edgelist import EdgeList
from repro.partition.base import PartitionedGraph, Partitioner


def partition_cache_key(
    edges: EdgeList, partitioner: Partitioner, num_hosts: int
) -> str:
    """Content-addressed key of one (graph, policy, hosts) partition."""
    digest = hashlib.sha256()
    digest.update(edges.content_hash().encode())
    digest.update(b"/")
    digest.update(partitioner.cache_token().encode())
    digest.update(f"/hosts={num_hosts}".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CachedPartition:
    """What the partition cache hands back on a hit.

    Attributes:
        partitioned: The partitioned graph (a fresh deserialized copy —
            never an object shared with a previous job).
        prepared_sync: The memoized sync structures of §4.1 (a
            :class:`repro.core.substrate.PreparedSync`), when a previous
            run harvested them; ``None`` means only the partition itself
            was cached and the memoization exchange must rerun.
    """

    partitioned: PartitionedGraph
    prepared_sync: Optional[object] = None


@dataclass(frozen=True)
class BuildOutcome:
    """Result of :func:`build_partition`.

    Attributes:
        partitioned: The (possibly cached) partitioned graph.
        wall_s: Wall-clock seconds spent (partitioning, or cache lookup).
        from_cache: Whether the partition came from the cache.
        key: The content-addressed cache key (``None`` when no cache).
        prepared_sync: Cached memoized sync structures, if any.
    """

    partitioned: PartitionedGraph
    wall_s: float
    from_cache: bool
    key: Optional[str] = None
    prepared_sync: Optional[object] = None


def build_partition(
    edges: EdgeList,
    partitioner: Partitioner,
    num_hosts: int,
    cache=None,
) -> BuildOutcome:
    """Partition ``edges`` across ``num_hosts``, consulting ``cache``.

    On a cache hit the partitioning work is skipped entirely and the
    cached graph (plus any memoized sync structures) is returned; on a
    miss the partition is built fresh.  The caller decides when to store
    — :func:`repro.systems.run_app` stores after a successful run so the
    harvested sync structures ride along — via ``cache.put_partition``.
    """
    started = time.perf_counter()
    key = None
    if cache is not None:
        key = partition_cache_key(edges, partitioner, num_hosts)
        entry = cache.get_partition(key)
        if entry is not None:
            return BuildOutcome(
                partitioned=entry.partitioned,
                wall_s=time.perf_counter() - started,
                from_cache=True,
                key=key,
                prepared_sync=entry.prepared_sync,
            )
    partitioned = partitioner.partition(edges, num_hosts)
    return BuildOutcome(
        partitioned=partitioned,
        wall_s=time.perf_counter() - started,
        from_cache=False,
        key=key,
    )
