"""State migration across repartitionings (§4.1's footnote).

Gluon's memoization assumes partitions are temporally invariant; when the
graph *is* re-partitioned — or mutated, in a streaming session — state
moves to the new layout and memoization is simply redone.
:func:`migrate_states` performs the state move: for every per-node array
an application declares migratable, the canonical (master) values of the
old layout are assembled and re-scattered to every proxy of the new
layout (optionally only where a ``keep`` mask allows — the streaming
reset of affected vertices).  Everything else a state holds (scalars,
sage's weight matrices) is rebuilt by the application's ``make_state``;
edge arrays are never state at all (a dense pull reads
``part.graph.edge_arrays()``).

Which arrays are per-node is declared, not guessed: a compiled program's
``migratable_node_arrays`` names its spec's fields.  Only a handwritten
program (which declares none) falls back to a shape test, every array
with one row per local node — which a host holding as many edges, or as
many feature columns, as nodes would fool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.partition.base import PartitionedGraph

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from repro.apps.base import AppContext, VertexProgram


def migratable_keys(
    app: VertexProgram, state: Dict, num_nodes: int
) -> List[str]:
    """Which state keys move across a repartitioning.

    The app's declared ``migratable_node_arrays`` (every compiled
    program's spec fields); for a handwritten program that declares none,
    every 1-D or wide (n, d) numpy array with exactly ``num_nodes`` rows
    (scalars and other sizes are rebuilt).
    """
    declared = app.migratable_node_arrays
    if declared is not None:
        return list(declared)
    keys = []
    for key, value in state.items():
        if (
            isinstance(value, np.ndarray)
            and value.ndim in (1, 2)
            and len(value) == num_nodes
        ):
            keys.append(key)
    return keys


def gather_global(
    partitioned: PartitionedGraph, states: List[Dict], key: str
) -> np.ndarray:
    """Assemble the canonical global array for ``key`` from master values."""
    sample = states[0][key]
    # Wide (n, d) state gathers into a (num_global, d) canonical array.
    result = np.zeros(
        (partitioned.num_global_nodes,) + sample.shape[1:], dtype=sample.dtype
    )
    for part, state in zip(partitioned.partitions, states):
        master_gids = part.local_to_global[: part.num_masters]
        result[master_gids] = state[key][: part.num_masters]
    return result


def gather_frontier(
    partitioned: PartitionedGraph, frontiers: List[np.ndarray]
) -> np.ndarray:
    """Union the per-host frontiers (sorted local IDs) into a global
    boolean mask — the mutation and repartition doors' form, built once
    per relayout."""
    frontier = np.zeros(partitioned.num_global_nodes, dtype=bool)
    for part, local in zip(partitioned.partitions, frontiers):
        frontier[part.local_to_global[local]] = True
    return frontier


def migrate_states(
    old_partitioned: PartitionedGraph,
    old_states: List[Dict],
    new_partitioned: PartitionedGraph,
    app: VertexProgram,
    ctx: AppContext,
    keep: Optional[np.ndarray] = None,
) -> List[Dict]:
    """Carry application state from one partition layout to another.

    The single state carry-over, for a repartitioning (same graph) and a
    mutation batch (the old node set a prefix of the new one) alike:
    state is freshly initialized over the new layout, then every
    migratable per-node array takes the old layout's canonical (master)
    value wherever ``keep`` — a global bool mask, ``None`` = everywhere —
    allows; elsewhere (the affected vertices, any grown nodes) the fresh
    init stands.  Every proxy is seeded with its node's canonical value,
    which is safe for both idempotent labels (everyone holds the truth)
    and accumulators (masters hold the folded total, and mirror copies
    are reset to the identity so nothing is double counted).
    """
    num_old = old_partitioned.num_global_nodes
    if new_partitioned.num_global_nodes < num_old:
        raise ExecutionError(
            "migration requires the same global node set "
            "(or a grown one, the old nodes a prefix of the new)"
        )
    if not getattr(app, "supports_migration", True):
        raise ExecutionError(
            f"{app.name} cannot change layout mid-run: migrate_states carries "
            "per-node arrays only and re-runs make_state for the rest, which "
            "would lose its per-proxy flags or reset its stage and counters"
        )
    keys = migratable_keys(
        app, old_states[0], old_partitioned.partitions[0].num_nodes
    )
    new_states = [
        app.make_state(part, ctx) for part in new_partitioned.partitions
    ]
    carry = slice(None) if keep is None else keep[:num_old]
    for key in keys:
        old_global = gather_global(old_partitioned, old_states, key)
        canonical = gather_global(new_partitioned, new_states, key)
        canonical[:num_old][carry] = old_global[carry]
        for part, state in zip(new_partitioned.partitions, new_states):
            state[key][...] = canonical[part.local_to_global]
    # Accumulator fields: only masters may carry the canonical totals;
    # mirror copies revert to the reduction identity.
    for part, state in zip(new_partitioned.partitions, new_states):
        for field in app.make_fields(part, state):
            if not field.reduce_op.idempotent:
                mirrors = part.mirror_locals()
                field.values[mirrors] = field.reduce_op.identity(field.dtype)
    return new_states
