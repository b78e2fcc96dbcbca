"""Engine interface: how a shared-memory system drives vertex programs.

An engine's job inside one BSP round is purely local (§2.2's key insight:
the application on each host is oblivious to other partitions).  The engine
decides *how* to run the app's local super-step — once (level-synchronous),
to a local fixpoint (asynchronous-within-host), in which direction
(push/pull) — and owns the throughput constants that convert counted work
into simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.apps.base import VertexProgram
from repro.partition.base import LocalPartition
from repro.runtime.timing import ComputeCostParameters, WorkStats

#: Safety bound on within-round local iterations for asynchronous engines.
MAX_LOCAL_ITERATIONS = 100_000


@dataclass
class RoundOutcome:
    """What one host's engine produced in one BSP round."""

    #: Sorted local IDs of the proxies written during the round (the
    #: sync dirty set).
    updated: np.ndarray
    #: Work performed, for the timing model.
    work: WorkStats


class Engine:
    """Base class for compute engines."""

    #: Engine name ("galois", ...).
    name: str = "base"
    #: Whether this engine models a GPU (device transfer charged per sync).
    is_gpu: bool = False
    #: Throughput constants (subclasses override).
    cost: ComputeCostParameters = ComputeCostParameters(
        per_edge_s=1e-9, per_node_s=2e-9, step_overhead_s=2e-5
    )

    def compute_round(
        self,
        app: VertexProgram,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
    ) -> RoundOutcome:
        """Run the app's local computation for one BSP round."""
        raise NotImplementedError

    def compute_time(self, work: WorkStats) -> float:
        """Simulated seconds for ``work`` on this engine."""
        return self.cost.compute_time(work)

    def _single_step(
        self,
        app: VertexProgram,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
        direction: str = "push",
    ) -> RoundOutcome:
        outcome = app.step(part, state, frontier, direction)
        return RoundOutcome(updated=outcome.updated, work=outcome.work)
