"""Ligra-like engine: level-synchronous edgeMap with direction optimization.

One operator application per BSP round ("updates to labels of vertices in
the current round are only visible in the next round", §5.4), so D-Ligra
needs 2-4x more rounds than D-Galois on the data-driven benchmarks.

Ligra's signature direction optimization is implemented for apps that
provide a pull step: when the frontier's outgoing-edge count exceeds a
fraction of the local edges, the engine switches from push (sparse,
frontier-driven) to pull (dense, scan all unvisited), following Beamer's
heuristic with Ligra's default threshold of |E|/20.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.base import VertexProgram
from repro.engines.base import Engine, RoundOutcome
from repro.partition.base import LocalPartition
from repro.runtime.timing import ComputeCostParameters


class LigraEngine(Engine):
    """Level-synchronous CPU engine with push/pull direction choice."""

    name = "ligra"
    is_gpu = False
    cost = ComputeCostParameters(
        per_edge_s=1.7e-9,
        per_node_s=3.0e-9,
        step_overhead_s=2.0e-5,
        translation_s=1.0e-8,
    )

    #: Fraction of local edges above which the dense (pull) direction wins.
    DIRECTION_THRESHOLD = 1.0 / 20.0

    def compute_round(
        self,
        app: VertexProgram,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
    ) -> RoundOutcome:
        direction = self._choose_direction(app, part, frontier)
        return self._single_step(app, part, state, frontier, direction)

    def _choose_direction(
        self, app: VertexProgram, part: LocalPartition, frontier: np.ndarray
    ) -> str:
        if not app.supports_pull:
            return "push"
        if app.operator_class.value == "pull":
            return "pull"
        graph = part.graph
        budget = graph.num_edges * self.DIRECTION_THRESHOLD
        # k frontier nodes have at most k * (max out-degree) out-edges, so
        # a near-empty frontier is answered without summing its degrees.
        if len(frontier) * graph.max_out_degree() <= budget:
            return "push"
        frontier_edges = int(graph.out_degree()[frontier].sum())
        return "pull" if frontier_edges > budget else "push"
