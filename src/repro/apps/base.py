"""Vertex-program framework shared by all applications.

A :class:`VertexProgram` supplies, per host: the label arrays
(``make_state``), the Gluon synchronization structures (``make_fields``),
the initial frontier, and one *local super-step* (``step``) that a compute
engine drives — once per round for level-synchronous engines (Ligra,
IrGL), to a local fixpoint for the asynchronous-within-host engine
(Galois).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.sync_structures import FieldSpec
from repro.partition.base import LocalPartition
from repro.partition.strategy import OperatorClass
from repro.runtime.timing import WorkStats


@dataclass
class AppContext:
    """Run-wide configuration handed to every host's ``make_state``.

    Attributes:
        num_global_nodes: |V| of the input graph.
        source: Source node (global ID) for bfs/sssp/bc; ``None`` when the
            app reads none (``needs_source``) and none was asked for.
        global_out_degree: Out-degree of every global node (pagerank needs
            the *global* degree, which real systems compute while loading).
        damping: Pagerank damping factor.
        tolerance: Pagerank convergence tolerance (mean |delta| per node).
        max_iterations: Pagerank iteration cap (the paper uses 100).
        k: Core number for k-core decomposition.
        global_in_degree: In-degree of every global node (the mean-style
            feature apps normalize by it).
        feature_dim: Columns d of matrix-valued vertex features (also the
            class count for label propagation).
        feature_rounds: Aggregation rounds the feature apps run.
        compression: Payload compression mode the feature apps declare on
            their wide fields (``delta``/``fp16``).
    """

    num_global_nodes: int
    source: Optional[int] = 0
    global_out_degree: Optional[np.ndarray] = None
    damping: float = 0.85
    tolerance: float = 1e-6
    max_iterations: int = 100
    k: int = 2
    global_in_degree: Optional[np.ndarray] = None
    feature_dim: int = 8
    feature_rounds: int = 3
    compression: str = "delta"


@dataclass
class StepOutcome:
    """Result of one local super-step on one host."""

    #: Sorted, unique ``np.intp`` local IDs of the proxies written during
    #: the step (see :mod:`repro.core.index_sets`).
    updated: np.ndarray
    #: Work performed (drives the simulated computation time).
    work: WorkStats


class VertexProgram:
    """Base class for applications; subclasses are stateless singletons."""

    #: Application name ("bfs", ...).
    name: str = "base"
    #: Whether the input must carry edge weights.
    needs_weights: bool = False
    #: Whether the input graph must be symmetrized first (cc, kcore).
    symmetrize_input: bool = False
    #: Operator shape (§2.1); determines strategy legality checks.
    operator_class: OperatorClass = OperatorClass.PUSH
    #: Whether the update is a reduction (all paper benchmarks: yes).
    is_reduction: bool = True
    #: Whether ``ctx.source`` is read (bfs, sssp, bc: source-seeded
    #: programs).  The compiler derives it from the spec; a handwritten
    #: program keeps ``True``, so it always gets a source.
    needs_source: bool = True
    #: Whether ``ctx.global_out_degree`` must be populated (pagerank
    #: variants and k-core need global degrees, which real systems gather
    #: while loading the graph).
    needs_global_degrees: bool = False
    #: Whether ``ctx.global_in_degree`` must be populated (mean-style
    #: feature aggregation normalizes by in-degree).
    needs_global_in_degrees: bool = False
    #: Whether per-node state can move across a mid-run repartitioning
    #: (§4.1 footnote).  Apps with per-*proxy* semantics (one-shot push
    #: flags) or a stage index and counters (staged specs) opt out.
    supports_migration: bool = True
    #: The state keys that are per-node arrays, which a layout change
    #: carries over (``runtime/migration.py``).  The compiler declares
    #: the spec's fields; a handwritten program keeps ``None`` and gets
    #: every array with one row per local node.
    migratable_node_arrays: Optional[Tuple[str, ...]] = None
    #: Whether an asynchronous engine may iterate the step to a local
    #: fixpoint within one round (safe for idempotent label propagation;
    #: not for round-structured algorithms like pagerank or k-core).
    #: The executor refuses to bind it over a non-idempotent reduction.
    iterate_locally: bool = True
    #: Whether the algorithm is data-driven (frontier) or topology-driven.
    uses_frontier: bool = True
    #: Whether a pull-direction step is available (Ligra's direction opt).
    supports_pull: bool = False
    #: Whether every engine's round over an empty frontier is idle:
    #: it writes nothing and costs one empty step (``WorkStats()``), so
    #: the round body skips a quiet host's compute.  The compiler derives
    #: it from the spec; a handwritten program keeps ``False``.
    empty_frontier_is_idle: bool = False
    #: ``(file, line)`` of statements whose integer-indexed state accesses
    #: address no edge endpoint (the frontier's index form, a scatter's
    #: snapshot of its own slots), which ``--sanitize`` does not audit.
    #: The compiler declares them for the code it emits; a handwritten
    #: program has none, so every such access of its is audited.
    non_endpoint_lines: FrozenSet[Tuple[str, int]] = frozenset()

    # -- per-host setup --------------------------------------------------------

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        """Allocate this host's label arrays; returns the state dict."""
        raise NotImplementedError

    def make_fields(self, part: LocalPartition, state: Dict) -> List[FieldSpec]:
        """Build the Gluon synchronization structures for this host."""
        raise NotImplementedError

    def initial_frontier(
        self, part: LocalPartition, state: Dict, ctx: AppContext
    ) -> np.ndarray:
        """Sorted, unique ``np.intp`` local IDs of the initially active
        proxies."""
        raise NotImplementedError

    # -- computation -----------------------------------------------------------

    def step(
        self,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
        direction: str = "push",
    ) -> StepOutcome:
        """Run one local super-step over ``frontier``.

        ``frontier`` and the returned ``StepOutcome.updated`` are index
        sets: sorted, unique ``np.intp`` local IDs, never written in
        place (:mod:`repro.core.index_sets`).  ``updated`` names every
        proxy whose synchronized value the step changed — the reduce
        ships exactly those mirrors, and they join the next frontier.
        """
        raise NotImplementedError

    # -- convergence ------------------------------------------------------------

    def local_residual(self, state: Dict) -> float:
        """Per-host convergence residual (topology-driven apps only)."""
        return 0.0

    def is_globally_converged(
        self, residual_sum: float, round_index: int, ctx: AppContext
    ) -> bool:
        """Whether a topology-driven app may stop (frontier apps: never)."""
        return False

    def next_stage(self, state: Dict, gather) -> Optional[Dict]:
        """Once the frontier drains: the state entries every host takes to
        enter a staged program's next stage (``gather(key)`` assembles a
        field's global master values), or ``None`` — the run converged."""
        return None

    # -- verification ------------------------------------------------------------

    def gather_master_values(
        self, parts: List[LocalPartition], states: List[Dict], key: str
    ) -> np.ndarray:
        """Assemble the global result array from per-host master values.

        Used by tests and examples to compare distributed results against a
        single-host oracle.
        """
        if not parts:
            return np.empty(0)
        num_global = 0
        for part in parts:
            if len(part.local_to_global):
                num_global = max(
                    num_global, int(part.local_to_global.max()) + 1
                )
        sample = states[0][key]
        # Wide (n, d) state gathers into a (num_global, d) result.
        result = np.zeros((num_global,) + sample.shape[1:], dtype=sample.dtype)
        for part, state in zip(parts, states):
            master_gids = part.local_to_global[: part.num_masters]
            result[master_gids] = state[key][: part.num_masters]
        return result


def gather_frontier_edges(
    graph, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collect all out-edges of the frontier, fully vectorized.

    ``frontier`` is a sorted index array of nodes.  Returns
    (sources-repeated, destinations, edge-positions).  Edge positions
    index into the CSR arrays (for weight lookup).
    """
    active = frontier
    if len(active) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    indptr = graph.indptr
    starts = indptr[active]
    counts = (indptr[active + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    # Standard vectorized expansion: positions = arange(total) shifted so
    # each active node's run begins at its CSR start.
    prefix = np.zeros(len(active), dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        starts - prefix, counts
    )
    src_rep = np.repeat(active, counts)
    dst = graph.indices[positions].astype(np.int64)
    return src_rep, dst, positions
