"""The built-in applications, as declarative program specs.

Every benchmark app *is* a :class:`~repro.compiler.spec.ProgramSpec` —
fields, phases (or, for bc, stages of phases), kernels, and sync
pairings — and the program :func:`repro.apps.make_app` hands out is the
class the compiler generates from it.  The sync endpoints
are *derived* from the phase access sets by the compiler; nothing here
declares ``writes=`` or ``reads=``.

The master-side hooks and convergence tests below are plain Python
functions.  ``tests/golden/app_matrix.json`` pins every app's answer
and simulated quantities across policies, host counts, levels and
runtimes; :mod:`repro.oracles` and :mod:`repro.features.oracles` stay
the independent single-machine reference.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.compiler.spec import (
    FieldDecl,
    PhaseSpec,
    ProgramSpec,
    StageSpec,
    SyncDecl,
)
from repro.core import index_sets

#: "Unreached" distance of bfs/sssp.
_INFINITY = np.uint32(np.iinfo(np.uint32).max)

_BFS_KERNEL = (
    "np.minimum({src.dist}.astype(np.int64) + 1, int(INFINITY))"
    ".astype(np.uint32)"
)


# ---------------------------------------------------------------------------
# Master-side hooks (the derived-broadcast apply functions).  Each returns
# the masters to broadcast as sorted local IDs (repro.core.index_sets).
# ---------------------------------------------------------------------------


def _kcore_apply(part, state: Dict) -> np.ndarray:
    """Apply removal counts at masters; kill under-degree nodes."""
    m = part.num_masters
    degree = state["degree"]
    alive = state["alive"]
    acc = state["removed_acc"]
    k = state["k"]
    degree[:m] -= acc[:m]
    acc[:m] = 0
    newly_dead = (alive[:m] == 1) & (degree[:m] < k)
    alive[:m][newly_dead] = 0
    return np.flatnonzero(newly_dead)


def _pr_apply(part, state: Dict) -> np.ndarray:
    """Master-side pagerank apply: new rank, new contribution, residual.

    In place, one scratch buffer: ``acc * d`` then ``+= 1 - d`` is
    ``(1 - d) + d * acc`` bit for bit (IEEE ``*`` and ``+`` commute
    exactly), and multiplying the contribution by ``out_degree > 0``
    zeroes dangling masters exactly as a select would, since every rank
    is finite and positive (``acc`` sums non-negative contributions).
    """
    m = part.num_masters
    damping = state["damping"]
    acc = state["acc"]
    rank = state["rank"]
    contrib = state["contrib"]
    out_degree = state["out_degree"]
    new_rank = acc[:m] * damping
    new_rank += 1.0 - damping
    scratch = np.subtract(new_rank, rank[:m])
    state["residual"] = float(np.abs(scratch, out=scratch).sum())
    rank[:m] = new_rank
    new_contrib = np.maximum(out_degree[:m], 1, out=scratch)
    np.divide(new_rank, new_contrib, out=new_contrib)
    np.multiply(new_contrib, out_degree[:m] > 0, out=new_contrib)
    broadcast_dirty = np.flatnonzero(new_contrib != contrib[:m])
    contrib[:m] = new_contrib
    acc[:m] = 0.0
    return broadcast_dirty


def _pr_converged(residual_sum: float, round_index: int, ctx) -> bool:
    if round_index >= ctx.max_iterations:
        return True
    mean_residual = residual_sum / max(ctx.num_global_nodes, 1)
    return round_index > 1 and mean_residual < ctx.tolerance


def _pr_push_consume(part, state: Dict) -> np.ndarray:
    """Master-side apply: rank absorbs residual, emit push amounts."""
    m = part.num_masters
    residual = state["residual"]
    rank = state["rank"]
    push_delta = state["push_delta"]
    out_degree = state["out_degree"]
    damping = state["damping"]
    tolerance = state["tolerance"]
    delta = residual[:m].copy()
    active = delta > tolerance
    rank[:m][active] += delta[active]
    residual[:m][active] = 0.0
    amount = np.where(
        out_degree[:m] > 0,
        damping * delta / np.maximum(out_degree[:m], 1.0),
        0.0,
    )
    push_delta[:m][active] = amount[active]
    return np.flatnonzero(active)


def _adopt_rows(part, state: Dict, new: np.ndarray) -> np.ndarray:
    """Masters adopt ``new`` as their rows; dirty where any column moved."""
    m = part.num_masters
    feat = state["feat"]
    changed = (new != feat[:m]).any(axis=1)
    state["residual"] = float(changed.sum())
    feat[:m] = new
    state["acc"][:m] = 0.0
    return np.flatnonzero(changed)


def _featprop_apply(part, state: Dict) -> np.ndarray:
    """Masters adopt the aggregated rows (sum variant)."""
    return _adopt_rows(part, state, state["acc"][: part.num_masters])


def _featprop_mean_apply(part, state: Dict) -> np.ndarray:
    """Mean variant: rows divided by the pow2 in-degree (exact)."""
    m = part.num_masters
    return _adopt_rows(part, state, state["acc"][:m] * state["inv_norm"][:m])


def _featprop_converged(residual_sum: float, round_index: int, ctx) -> bool:
    return round_index >= ctx.feature_rounds


def _labelprop_apply(part, state: Dict) -> np.ndarray:
    """Majority vote at masters; ties break toward the lowest class."""
    from repro.features.kernels import one_hot_rows

    m = part.num_masters
    label = state["label"]
    feat = state["feat"]
    acc = state["acc"]
    counts = acc[:m]
    has_votes = counts.sum(axis=1) > 0
    new_label = np.where(has_votes, counts.argmax(axis=1), label[:m])
    state["residual"] = float((new_label != label[:m]).sum())
    label[:m] = new_label
    new_rows = one_hot_rows(new_label, feat.shape[1])
    changed = (new_rows != feat[:m]).any(axis=1)
    feat[:m] = new_rows
    acc[:m] = 0.0
    return np.flatnonzero(changed)


def _labelprop_converged(residual_sum: float, round_index: int, ctx) -> bool:
    return residual_sum == 0 or round_index >= ctx.feature_rounds


def _sage_apply(part, state: Dict) -> np.ndarray:
    """``H = relu(X W_self + (A^T X) W_neigh)`` at masters.

    The input features never change, so the broadcast dirty set is
    empty and the run stops after round one.
    """
    m = part.num_masters
    acc = state["acc"]
    hidden = state["feat"][:m] @ state["w_self"] + acc[:m] @ state["w_neigh"]
    state["hidden"][:m] = np.maximum(hidden, 0.0)
    state["residual"] = 0.0
    acc[:m] = 0.0
    return index_sets.EMPTY


def _sage_converged(residual_sum: float, round_index: int, ctx) -> bool:
    return round_index >= 1


def _fold(acc: str, surface: str):
    """Master-side hook: fold the ADD accumulator ``acc`` into the
    canonical ``surface`` and broadcast the masters it changed."""

    def fold(part, state: Dict) -> np.ndarray:
        m = part.num_masters
        changed = state[acc][:m] != 0.0
        state[surface][:m] += state[acc][:m]
        state[acc][:m] = 0.0
        return np.flatnonzero(changed)

    return fold


def _deepest_level(gather) -> Dict:
    """bc's backward sweep starts at the deepest BFS level reached."""
    dist = gather("dist")
    finite = dist[dist != _INFINITY]
    return {"level": int(finite.max()) if len(finite) else 0}


# ---------------------------------------------------------------------------
# The specs.
# ---------------------------------------------------------------------------

BFS_SPEC = ProgramSpec(
    name="bfs",
    fields=(
        FieldDecl(
            name="dist",
            dtype=np.uint32,
            reduce="min",
            init="np.full(n, INFINITY, dtype=np.uint32)",
            source_value="0",
        ),
    ),
    phases=(
        PhaseSpec(
            name="relax",
            kind="frontier_push",
            target="dist",
            kernel=_BFS_KERNEL,
            guard="{dist} != INFINITY",
        ),
        PhaseSpec(
            name="adopt",
            kind="sparse_pull",
            target="dist",
            kernel=_BFS_KERNEL,
            guard="{dist} != INFINITY",
        ),
    ),
    sync=(SyncDecl(field="dist"),),
    constants=(("INFINITY", _INFINITY),),
    frontier="source",
)

SSSP_SPEC = ProgramSpec(
    name="sssp",
    fields=(
        FieldDecl(
            name="dist",
            dtype=np.uint32,
            reduce="min",
            init="np.full(n, INFINITY, dtype=np.uint32)",
            source_value="0",
        ),
    ),
    phases=(
        PhaseSpec(
            name="relax",
            kind="frontier_push",
            target="dist",
            kernel=(
                "np.minimum({src.dist}.astype(np.int64) + {w}, "
                "int(INFINITY)).astype(np.uint32)"
            ),
            guard="{dist} != INFINITY",
            uses_weights=True,
        ),
    ),
    sync=(SyncDecl(field="dist"),),
    constants=(("INFINITY", _INFINITY),),
    frontier="source",
    needs_weights=True,
)

CC_SPEC = ProgramSpec(
    name="cc",
    fields=(
        FieldDecl(
            name="label",
            dtype=np.uint32,
            reduce="min",
            init="part.local_to_global.astype(np.uint32).copy()",
        ),
    ),
    phases=(
        PhaseSpec(
            name="propagate",
            kind="frontier_push",
            target="label",
            kernel="{src.label}",
        ),
        PhaseSpec(
            name="adopt",
            kind="sparse_pull",
            target="label",
            kernel="{src.label}",
        ),
    ),
    sync=(SyncDecl(field="label"),),
    frontier="all",
    symmetrize_input=True,
)

KCORE_SPEC = ProgramSpec(
    name="kcore",
    fields=(
        FieldDecl(
            name="degree",
            dtype=np.int64,
            reduce=None,
            init=(
                "ctx.global_out_degree[part.local_to_global]"
                ".astype(np.int64)"
            ),
        ),
        FieldDecl(
            name="alive",
            dtype=np.uint32,
            reduce=None,
            init="np.ones(n, dtype=np.uint32)",
        ),
        FieldDecl(
            name="removed_acc",
            dtype=np.uint32,
            reduce="add",
            init="np.zeros(n, dtype=np.uint32)",
        ),
        FieldDecl(
            name="pushed",
            dtype=bool,
            reduce=None,
            init="np.zeros(n, dtype=bool)",
        ),
    ),
    phases=(
        PhaseSpec(
            name="notify",
            kind="frontier_push",
            target="removed_acc",
            kernel="np.uint32(1)",
            guard="({alive} == 0) & ~{pushed}",
            post_gather=("{pushed}[{mask}] = True",),
        ),
    ),
    sync=(
        SyncDecl(field="removed_acc", broadcast="alive", hook=_kcore_apply),
    ),
    scalars=(("k", "ctx.k"),),
    frontier="all",
    symmetrize_input=True,
    needs_global_degrees=True,
)

PAGERANK_SPEC = ProgramSpec(
    name="pr",
    fields=(
        FieldDecl(
            name="out_degree",
            dtype=np.float64,
            reduce=None,
            init=(
                "ctx.global_out_degree[part.local_to_global]"
                ".astype(np.float64)"
            ),
        ),
        FieldDecl(
            name="rank",
            dtype=np.float64,
            reduce=None,
            init="np.full(n, 1.0 - ctx.damping, dtype=np.float64)",
        ),
        FieldDecl(
            name="contrib",
            dtype=np.float64,
            reduce=None,
            init=(
                'np.where(state["out_degree"] > 0, '
                'state["rank"] / np.maximum(state["out_degree"], 1), 0.0)'
            ),
        ),
        FieldDecl(
            name="acc",
            dtype=np.float64,
            reduce="add",
            init="np.zeros(n, dtype=np.float64)",
        ),
    ),
    phases=(
        PhaseSpec(
            name="accumulate",
            kind="dense_pull",
            target="acc",
            kernel="{src.contrib}",
        ),
    ),
    sync=(
        SyncDecl(
            field="acc", name="rank_acc", broadcast="contrib", hook=_pr_apply
        ),
    ),
    scalars=(("residual", "0.0"), ("damping", "ctx.damping")),
    frontier="all",
    residual="residual",
    converged=_pr_converged,
    needs_global_degrees=True,
)

PAGERANK_PUSH_SPEC = ProgramSpec(
    name="pr-push",
    fields=(
        FieldDecl(
            name="out_degree",
            dtype=np.float64,
            reduce=None,
            init=(
                "ctx.global_out_degree[part.local_to_global]"
                ".astype(np.float64)"
            ),
        ),
        FieldDecl(
            name="rank",
            dtype=np.float64,
            reduce=None,
            init="np.zeros(n, dtype=np.float64)",
        ),
        FieldDecl(
            name="residual",
            dtype=np.float64,
            reduce="add",
            init="np.zeros(n, dtype=np.float64)",
            # Only masters seed residual: mirror copies start at the ADD
            # identity so the first reduce does not double count.
            extra_init=(
                'state["residual"][: part.num_masters] = 1.0 - ctx.damping',
            ),
        ),
        FieldDecl(
            name="push_delta",
            dtype=np.float64,
            reduce=None,
            init="np.zeros(n, dtype=np.float64)",
        ),
    ),
    phases=(
        PhaseSpec(
            name="push",
            kind="frontier_push",
            target="residual",
            kernel="{src.push_delta}",
            guard="{push_delta} > 0.0",
            post_scatter=("{push_delta}[{mask}] = 0.0",),
        ),
    ),
    sync=(
        SyncDecl(
            field="residual", broadcast="push_delta", hook=_pr_push_consume
        ),
    ),
    scalars=(("damping", "ctx.damping"), ("tolerance", "ctx.tolerance")),
    frontier="all",
    needs_global_degrees=True,
)

FEATPROP_SPEC = ProgramSpec(
    name="featprop",
    fields=(
        FieldDecl(
            name="feat",
            dtype=np.float64,
            reduce=None,
            init="feature_rows(part.local_to_global, dim)",
            width="dim",
        ),
        FieldDecl(
            name="acc",
            dtype=np.float64,
            reduce="add",
            init="np.zeros((n, dim), dtype=np.float64)",
            width="dim",
            compression="compression",
        ),
    ),
    phases=(
        PhaseSpec(
            name="aggregate",
            kind="dense_pull",
            target="acc",
            source_rows="feat",
        ),
    ),
    sync=(
        SyncDecl(
            field="acc",
            name="feat_acc",
            broadcast="feat",
            hook=_featprop_apply,
        ),
    ),
    scalars=(("residual", "0.0"), ("compression", "ctx.compression")),
    imports=("from repro.features.kernels import feature_rows",),
    frontier="all",
    residual="residual",
    converged=_featprop_converged,
    wide_dim="ctx.feature_dim",
)

LABELPROP_SPEC = ProgramSpec(
    name="labelprop",
    fields=(
        FieldDecl(
            name="label",
            dtype=np.int64,
            reduce=None,
            init="label_rows(part.local_to_global, dim)",
        ),
        FieldDecl(
            name="feat",
            dtype=np.float64,
            reduce=None,
            # The wide field holds one-hot labels, not raw features.
            init='one_hot_rows(state["label"], dim)',
            width="dim",
        ),
        FieldDecl(
            name="acc",
            dtype=np.float64,
            reduce="add",
            init="np.zeros((n, dim), dtype=np.float64)",
            width="dim",
            compression="compression",
        ),
    ),
    phases=(
        PhaseSpec(
            name="vote",
            kind="dense_pull",
            target="acc",
            source_rows="feat",
        ),
    ),
    sync=(
        SyncDecl(
            field="acc",
            name="count_acc",
            broadcast="feat",
            hook=_labelprop_apply,
        ),
    ),
    scalars=(("residual", "0.0"), ("compression", "ctx.compression")),
    imports=("from repro.features.kernels import label_rows, one_hot_rows",),
    frontier="all",
    residual="residual",
    converged=_labelprop_converged,
    wide_dim="ctx.feature_dim",
)

FEATPROP_MEAN_SPEC = dataclasses.replace(
    FEATPROP_SPEC,
    name="featprop-mean",
    fields=FEATPROP_SPEC.fields
    + (
        # Never synchronized: every proxy derives it from the global
        # in-degree the loader gathered.
        FieldDecl(
            name="inv_norm",
            dtype=np.float64,
            reduce=None,
            init=(
                "(1.0 / pow2_normalizer("
                "ctx.global_in_degree[part.local_to_global]))[:, None]"
            ),
        ),
    ),
    sync=(
        SyncDecl(
            field="acc",
            name="feat_acc",
            broadcast="feat",
            hook=_featprop_mean_apply,
        ),
    ),
    imports=(
        "from repro.features.kernels import feature_rows, pow2_normalizer",
    ),
    needs_global_in_degrees=True,
)

#: One GraphSAGE forward layer with fixed integer weights: a single
#: aggregation round, then a dense per-master transform into ``hidden``.
SAGE_SPEC = dataclasses.replace(
    FEATPROP_SPEC,
    name="sage",
    fields=FEATPROP_SPEC.fields
    + (
        FieldDecl(
            name="hidden",
            dtype=np.float64,
            reduce=None,
            init="np.zeros((n, dim), dtype=np.float64)",
            width="dim",
        ),
    ),
    sync=(
        SyncDecl(
            field="acc", name="feat_acc", broadcast="feat", hook=_sage_apply
        ),
    ),
    scalars=FEATPROP_SPEC.scalars
    + (
        ("w_self", "sage_weights(dim, dim, salt=1)"),
        ("w_neigh", "sage_weights(dim, dim, salt=2)"),
    ),
    imports=("from repro.features.kernels import feature_rows, sage_weights",),
    converged=_sage_converged,
)

#: Single-source betweenness centrality (Brandes) in two stages.  Forward:
#: level-synchronous BFS counting shortest paths into ``sigma``.  Backward,
#: deepest level first, over the transposed edges: ``delta[u] += sigma[u] /
#: sigma[v] * (1 + delta[v])``, written at the edge *source* and read at the
#: *destination* (the full ``sync<WriteLocation, ReadLocation>``, Figure 4).
BC_SPEC = ProgramSpec(
    name="bc",
    fields=(
        FieldDecl("dist", np.uint32, "min", "np.full(n, INFINITY, dtype=np.uint32)",
                  source_value="0"),
        FieldDecl("sigma", np.float64, None, "np.zeros(n)", source_value="1.0"),
        FieldDecl("sigma_acc", np.float64, "add", "np.zeros(n)"),
        FieldDecl("delta", np.float64, None, "np.zeros(n)"),
        FieldDecl("delta_acc", np.float64, "add", "np.zeros(n)"),
    ),
    stages=(
        StageSpec(
            name="forward",
            phases=(
                PhaseSpec(
                    "relax", "frontier_push", "dist", kernel="np.uint32(level + 1)",
                    guard="{dist} == level", edge_filter="{dst.dist} > level",
                    extra_scatters=(("sigma_acc", "{src.sigma}"),),
                ),
            ),
            sync=(
                SyncDecl("dist"),
                SyncDecl("sigma_acc", broadcast="sigma", hook=_fold("sigma_acc", "sigma")),
            ),
            frontier="source",
            counter=("level", 1),
        ),
        StageSpec(
            name="backward",
            phases=(
                PhaseSpec(
                    "dependency", "frontier_push", "delta_acc",
                    kernel="{dst.sigma} / np.maximum({src.sigma}, 1.0) * (1.0 + {src.delta})",
                    select="({dist} == level) & (level >= 1)",
                    edge_filter="{dst.dist} == level - 1", orientation="transpose",
                ),
            ),
            sync=(
                SyncDecl("delta_acc", broadcast="delta", hook=_fold("delta_acc", "delta")),
            ),
            counter=("level", -1),
            enter=_deepest_level,
        ),
    ),
    constants=(("INFINITY", _INFINITY),),
    scalars=(("level", "0"),),
)

#: Every spec app, keyed by its canonical app name.
PROGRAM_SPECS: Dict[str, ProgramSpec] = {
    spec.name: spec
    for spec in (
        BFS_SPEC,
        SSSP_SPEC,
        CC_SPEC,
        KCORE_SPEC,
        PAGERANK_SPEC,
        PAGERANK_PUSH_SPEC,
        FEATPROP_SPEC,
        FEATPROP_MEAN_SPEC,
        LABELPROP_SPEC,
        SAGE_SPEC,
        BC_SPEC,
    )
}

#: Accepted aliases (``APP_BY_NAME`` registers the same ones).
SPEC_ALIASES = {"pagerank": "pr"}

#: ``<app>@optimized`` — the same spec built with
#: ``compile_program(optimize=True)``: GL301 dead-sync phases stripped
#: per partition strategy and GL302-fusible push phases sharing one
#: gather.  Bitwise-identical results, strictly fewer messages.
OPTIMIZED_SUFFIX = "@optimized"


def base_app_name(name: str) -> str:
    """Strip the ``@optimized`` suffix from an app name."""
    return name.removesuffix(OPTIMIZED_SUFFIX)


def spec_for(name: str) -> ProgramSpec:
    """Resolve a spec by app name (with or without ``@optimized``)."""
    base = base_app_name(name.lower())
    base = SPEC_ALIASES.get(base, base)
    try:
        return PROGRAM_SPECS[base]
    except KeyError:
        known = ", ".join(sorted(PROGRAM_SPECS))
        raise ValueError(
            f"no program spec for {name!r} (known: {known})"
        ) from None


def optimized_app_names() -> List[str]:
    """``<app>@optimized`` names (the dataflow-optimized builds)."""
    return [f"{name}{OPTIMIZED_SUFFIX}" for name in sorted(PROGRAM_SPECS)]
