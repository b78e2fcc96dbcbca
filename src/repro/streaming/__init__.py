"""Streaming graph subsystem: mutation batches over a live graph.

Everything upstream of this package assumes a frozen :class:`EdgeList` —
Gluon's memoized address books and structural-invariant optimizations all
rest on that.  This package opens the frozen world up:

- :mod:`repro.streaming.batch` — validated, deterministically hashed
  batches of edge/vertex inserts and deletes;
- :mod:`repro.streaming.version` — a hash chain of graph versions whose
  content address updates in O(|batch|) instead of O(|E|);
- :mod:`repro.streaming.delta` — delta-partitioning: every host whose
  construction inputs did not change keeps its partition, the builder
  rebuilds the rest, and only they redo the memoization exchange;
- :mod:`repro.streaming.incremental` — one affected-frontier planner,
  read off the program's spec and gated on its stabilization
  certificate, so re-execution starts from the vertices a mutation
  actually touched, bitwise-identical to a cold full recompute;
- :mod:`repro.streaming.session` — the orchestrator tying versions,
  delta-partitioning, the executor resume seam and observability
  together.
"""

from repro.streaming.batch import (
    MutationBatch,
    MutationEffect,
    load_batches,
    random_mutation_batch,
    save_batches,
)
from repro.streaming.delta import DeltaPartitionResult, delta_partition
from repro.streaming.incremental import IncrementalPlan, plan_incremental
from repro.streaming.session import StreamingSession, StreamStepResult
from repro.streaming.version import GraphVersion

__all__ = [
    "DeltaPartitionResult",
    "GraphVersion",
    "IncrementalPlan",
    "MutationBatch",
    "MutationEffect",
    "StreamStepResult",
    "StreamingSession",
    "delta_partition",
    "load_batches",
    "plan_incremental",
    "random_mutation_batch",
    "save_batches",
]
