"""Delta-partitioning: a mutation batch goes through the builder.

Gluon's memoization (§4.1) rests on temporal invariance — the partition
never changes, so proxy tables and address books are computed once.  A
mutation batch breaks the invariance, but usually only *locally*: most
hosts' construction inputs (their edge subsequence, their owned vertex
set, their extra proxies, the ownership of their mirrors —
:func:`repro.partition.base.host_inputs`) are untouched by a small
batch.

:func:`delta_partition` recomputes the policy's cheap vectorized edge
assignment on the mutated list, digests each host's construction inputs
(:func:`signature_of_host`), and hands the full builder
(:func:`~repro.partition.base.build_partitioned_graph`) the old
:class:`LocalPartition` of every host whose signature did not move; the
builder rebuilds the rest through the same single-host code path a cold
build uses — which is what makes the delta result bitwise identical to a
from-scratch rebuild for *every* policy, including the degree-chunked
edge cuts whose chunk boundaries can shift globally under mutation
(those simply degrade to more rebuilds, never to wrong answers).

The memoization side needs no twin either: the executor hands the
rebuilt hosts to :func:`repro.core.memoization.exchange_address_books`
as ``previous=``, and only they exchange.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.partition.base import (
    EdgeAssignment,
    PartitionedGraph,
    Partitioner,
    build_partitioned_graph,
    host_inputs,
)


@dataclass
class DeltaPartitionResult:
    """Outcome of a delta-partitioning pass.

    Attributes:
        partitioned: The new :class:`PartitionedGraph` (reused + rebuilt
            per-host partitions).
        signatures: Per-host content signatures of the new version — what
            the next :func:`delta_partition` compares against.
        reused_hosts: Hosts whose local partition objects were reused.
        rebuilt_hosts: Hosts rebuilt through the single-host builder.
    """

    partitioned: PartitionedGraph
    signatures: List[str]
    reused_hosts: List[int]
    rebuilt_hosts: List[int]

    @property
    def num_reused(self) -> int:
        return len(self.reused_hosts)

    @property
    def num_rebuilt(self) -> int:
        return len(self.rebuilt_hosts)


def signature_of_host(
    edges: EdgeList,
    assignment: EdgeAssignment,
    host: int,
    policy_token: str,
) -> str:
    """Content signature of one host's construction inputs.

    A digest of exactly what :func:`build_local_partition` reads
    (:func:`~repro.partition.base.host_inputs`): two versions under which
    a host keeps its signature build identical local partitions for it,
    so the old object is reused.
    """
    inputs = host_inputs(edges, assignment, host)
    digest = hashlib.sha256()
    digest.update(
        f"HostPartition/{policy_token}/{assignment.num_hosts}/{host}".encode()
    )
    for ids in (inputs.owned, inputs.src, inputs.dst, inputs.weight, inputs.extra):
        if ids is not None:
            digest.update(np.ascontiguousarray(ids, dtype=np.uint32).tobytes())
    # The mirror *set* follows from the ids above; who masters each does not.
    digest.update(inputs.mirror_master_host.tobytes())
    return digest.hexdigest()


def host_signatures(
    edges: EdgeList, assignment: EdgeAssignment, policy_token: str
) -> List[str]:
    """:func:`signature_of_host` for every host of ``assignment``."""
    return [
        signature_of_host(edges, assignment, host, policy_token)
        for host in range(assignment.num_hosts)
    ]


def delta_partition(
    old_partitioned: PartitionedGraph,
    old_signatures: Sequence[str],
    new_edges: EdgeList,
    partitioner: Partitioner,
) -> DeltaPartitionResult:
    """Patch ``old_partitioned`` into a partition of ``new_edges``.

    The policy's :meth:`~Partitioner.assign` is recomputed on the new
    list (deterministic and cheap — vectorized over the edge arrays, no
    proxy materialization); a host whose signature equals its entry in
    ``old_signatures`` (:func:`host_signatures` of the version
    ``old_partitioned`` was built from, under ``partitioner.name``) keeps
    its old :class:`LocalPartition` object, the rest are rebuilt by
    :func:`build_partitioned_graph`.
    """
    num_hosts = old_partitioned.num_hosts
    if partitioner.name != old_partitioned.policy_name:
        raise PartitionError(
            f"delta_partition got policy {partitioner.name!r} for a "
            f"partition built with {old_partitioned.policy_name!r}"
        )
    if len(old_signatures) != num_hosts:
        raise PartitionError(
            f"got {len(old_signatures)} old signatures for a "
            f"{num_hosts}-host partition"
        )
    assignment = partitioner.assign(new_edges, num_hosts)
    signatures = host_signatures(new_edges, assignment, partitioner.name)
    reuse = {
        host: old_partitioned.partitions[host]
        for host in range(num_hosts)
        if signatures[host] == old_signatures[host]
    }
    return DeltaPartitionResult(
        partitioned=build_partitioned_graph(
            new_edges, assignment, partitioner.strategy, partitioner.name, reuse
        ),
        signatures=signatures,
        reused_hosts=sorted(reuse),
        rebuilt_hosts=[host for host in range(num_hosts) if host not in reuse],
    )
