"""Galois-like engine: asynchronous within a host (§5.4).

D-Galois "propagates updates in the same round within the same host (like
chaotic relaxation in sssp)": inside one BSP round this engine re-applies
the operator to locally updated nodes until no label changes.  This cuts
the global round count (and hence synchronization barriers) at the cost of
possibly pushing values that later improve — the trade-off Figure 8
discusses against the level-synchronous D-Ligra.

Local fixpoint iteration is only legal for idempotent, data-driven
programs (``app.iterate_locally``); topology-driven apps run one step.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.base import VertexProgram
from repro.core import index_sets
from repro.engines.base import MAX_LOCAL_ITERATIONS, Engine, RoundOutcome
from repro.errors import ExecutionError
from repro.partition.base import LocalPartition
from repro.runtime.timing import ComputeCostParameters, WorkStats


class GaloisEngine(Engine):
    """Asynchronous-within-host CPU engine."""

    name = "galois"
    is_gpu = False
    cost = ComputeCostParameters(
        per_edge_s=1.5e-9,
        per_node_s=3.0e-9,
        step_overhead_s=2.0e-5,
        translation_s=1.0e-8,
    )

    def compute_round(
        self,
        app: VertexProgram,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
    ) -> RoundOutcome:
        if not app.iterate_locally:
            return self._single_step(app, part, state, frontier)
        written = []
        work = WorkStats(0, 0, 0)
        current = frontier
        iterations = 0
        while len(current):
            outcome = app.step(part, state, current, "push")
            work = work.merge(outcome.work)
            written.append(outcome.updated)
            current = outcome.updated
            iterations += 1
            if iterations > MAX_LOCAL_ITERATIONS:
                raise ExecutionError(
                    "local fixpoint iteration did not converge; the "
                    "operator is probably not monotone"
                )
        if iterations == 0:
            work = WorkStats(0, 0, 1)
        # One union per host-round, not one per local iteration.
        return RoundOutcome(
            updated=index_sets.union(written, part.num_nodes), work=work
        )
