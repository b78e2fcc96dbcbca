"""ProgramSpec -> generated Python source -> runnable VertexProgram.

This is the paper's preprocessor made literal: :func:`compile_program`
renders a :class:`~repro.compiler.spec.ProgramSpec` into *real Python
source* — a ``VertexProgram`` subclass whose ``make_state``,
``make_fields``, and phase-major ``step`` are emitted from the three
kernel templates (frontier push / sparse pull / dense pull), with the
sync endpoints in every generated ``FieldSpec`` coming from
:func:`~repro.compiler.spec.derive_endpoints`, never from the spec.

The source is executed into a registered module whose text is seeded
into :mod:`linecache`, so the generated class is a first-class citizen:
tracebacks show generated lines and ``inspect.getsource`` works.  Its
sync contract is checked against the spec, not re-read from the source:
``repro lint`` and ``compile_program(verify=True)`` compare the emitted
endpoints with the derived ones (:func:`repro.analysis.linter.lint_spec`),
and the emitter itself tells the runtime sanitizer which lines it wrote
to address no endpoint (the class's ``non_endpoint_lines``).  A
template may change its idioms freely as long as the spec's access
sets hold — ``tests/compiler/test_kernel_equivalence.py``, the golden
matrix and the sanitizer sweep check that they do.
"""

from __future__ import annotations

import itertools
import linecache
import re
import sys
import types
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.compiler.spec import (
    _DST_REF,
    _SRC_REF,
    CompileError,
    PhaseSpec,
    ProgramSpec,
    StageSpec,
    SyncDecl,
    derive_endpoints,
)
from repro.core.index_sets import SPARSE_RATIO
from repro.core.sync_structures import REDUCTIONS
from repro.partition.strategy import OperatorClass

#: Scatter-combine source text per reduction.
_SCATTER_SRC: Dict[str, str] = {
    "min": "np.minimum.at",
    "max": "np.maximum.at",
    "add": "np.add.at",
    "bor": "np.bitwise_or.at",
}

#: Generated-module global name per reduction.
_REDUCE_NAME: Dict[str, str] = {
    "min": "MIN",
    "max": "MAX",
    "add": "ADD",
    "bor": "BOR",
    "assign": "ASSIGN",
}

#: An idempotent scatter hitting fewer than one slot in this many diffs
#: only those slots (see :func:`_emit_scatter`).  Measured crossover on a
#: 33k-slot uint32 target: 50 slots cost 1.7 us sparse vs 9.9 us dense,
#: 4k slots 22.6 vs 10.2, 33k slots 264 vs 9.7.  The same ratio splits
#: :func:`repro.core.index_sets.unique_ids`.
SPARSE_SCATTER_RATIO = SPARSE_RATIO

_COMPILE_COUNTER = itertools.count()


def _ident(name: str) -> str:
    """A safe Python identifier fragment for ``name``."""
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _class_name(spec: ProgramSpec) -> str:
    parts = [p for p in _ident(spec.name).split("_") if p]
    return "Compiled" + "".join(p.capitalize() for p in parts)


def _frozenset_literal(values) -> str:
    inner = ", ".join(repr(v) for v in sorted(values))
    return "frozenset({%s})" % inner


def render_fragment(
    text: str,
    *,
    src: Optional[str] = None,
    dst: Optional[str] = None,
    local: str = "{f}",
    weights: str = "weights",
    mask: str = "usable",
) -> str:
    """Substitute the placeholder grammar into concrete source text."""
    if src is not None:
        text = _SRC_REF.sub(lambda m: src.format(f=m.group(1)), text)
    if dst is not None:
        text = _DST_REF.sub(lambda m: dst.format(f=m.group(1)), text)
    text = text.replace("{w}", weights).replace("{mask}", mask)
    # Whole-array references last, so {src.f}/{dst.f} are long gone.
    return re.sub(
        r"\{([A-Za-z_]\w*)\}", lambda m: local.format(f=m.group(1)), text
    )


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        #: 1-based numbers of the lines emitted with ``non_endpoint=True``:
        #: their indexed state accesses address no edge endpoint (the
        #: frontier's indices, a scatter's snapshot of its own slots).
        self.non_endpoint_lines: Set[int] = set()

    def emit(
        self, indent: int, text: str = "", non_endpoint: bool = False
    ) -> None:
        if text:
            self.lines.append("    " * indent + text)
        else:
            self.lines.append("")
        if non_endpoint:
            self.non_endpoint_lines.add(len(self.lines))

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _target_reduce(spec: ProgramSpec, target: str) -> str:
    """The reduction combining scatters into ``target``."""
    reduce = spec.field_decl(target).reduce
    if reduce is None:
        raise CompileError(
            f"{spec.name}: scatter target {target!r} declares no reduction"
        )
    if reduce not in _SCATTER_SRC:
        raise CompileError(
            f"{spec.name}: reduction {reduce!r} has no deterministic "
            f"scatter-combine; compiled programs support "
            f"{sorted(_SCATTER_SRC)}"
        )
    return reduce


def _phase_aliases(spec: ProgramSpec, *phases: PhaseSpec) -> List[str]:
    """State keys the phase methods alias, in declaration order: every
    field they reference and every scalar their fragments name bare."""
    wanted = set()
    for phase in phases:
        wanted |= phase.referenced_fields()
        for text in phase.expressions():
            wanted.update(re.findall(r"[A-Za-z_]\w*", re.sub(r"\{[^{}]*\}", " ", text)))
    ordered = [f.name for f in spec.fields if f.name in wanted]
    ordered += [key for key, _ in spec.scalars if key in wanted]
    return ordered


def _emit_aliases(out: _Emitter, names: List[str]) -> None:
    for name in names:
        out.emit(2, f'{name} = state["{name}"]')


def _emit_scatter(
    out: _Emitter,
    spec: ProgramSpec,
    target: str,
    indent: int,
    index_var: str,
    candidate: str,
    accumulate: bool = False,
) -> None:
    """The reduction-specific scatter + written-set idiom.

    A non-idempotent scatter writes every slot it hits.  An idempotent
    one writes the slots whose value changed, found one of two ways: a
    sparse scatter (fewer than one slot in :data:`SPARSE_SCATTER_RATIO`)
    snapshots and re-reads only the slots it writes; a dense one diffs
    the whole target against a copy, which is cheaper once the fancy
    indexing costs more than one contiguous pass.  Both give the same
    set, and NaN -> NaN is "not changed" in both.  Hit slots repeat, so
    they become a set through :func:`~repro.core.index_sets.unique_ids`;
    a dense diff's ``flatnonzero`` already is one.

    ``accumulate`` appends each scatter's slots to ``written`` instead of
    binding ``updated`` — the form a method with several scatters needs
    (a multi-scatter phase, a GL302-fused group), whose caller makes one
    set of them all, exactly the union of separate outcome sets.
    """
    reduce = _target_reduce(spec, target)
    scatter = f"{_SCATTER_SRC[reduce]}({target}, {index_var}, {candidate})"

    def written(piece: str, unique: bool) -> str:
        if accumulate:
            return f"written.append({piece})"
        if unique:
            return f"updated = {piece}"
        return f"updated = index_sets.unique_ids({piece}, part.num_nodes)"

    if not REDUCTIONS[reduce].idempotent:
        out.emit(indent, scatter)
        out.emit(indent, written(index_var, False))
        return
    out.emit(
        indent,
        f"if len({index_var}) * {SPARSE_SCATTER_RATIO} < len({target}):",
    )
    out.emit(indent + 1, f"before = {target}[{index_var}]", non_endpoint=True)
    out.emit(indent + 1, scatter)
    out.emit(indent + 1, f"after = {target}[{index_var}]", non_endpoint=True)
    changed = _changed(spec, target, "after", "before")
    out.emit(indent + 1, written(f"{index_var}[{changed}]", False))
    out.emit(indent, "else:")
    out.emit(indent + 1, f"before = {target}.copy()")
    out.emit(indent + 1, scatter)
    changed = _changed(spec, target, target, "before")
    out.emit(indent + 1, written(f"np.flatnonzero({changed})", True))


def _changed(spec: ProgramSpec, target: str, after: str, before: str) -> str:
    """Source of ``target``'s "value changed" mask; NaN -> NaN is not."""
    if np.dtype(spec.field_decl(target).dtype).kind != "f":
        return f"{after} != {before}"
    return (
        f"({after} != {before}) & "
        f"(({after} == {after}) | ({before} == {before}))"
    )


def _emit_post(out: _Emitter, line: str) -> None:
    """A post line; indexing by ``{mask}`` addresses active nodes only."""
    out.emit(
        2,
        render_fragment(line, local="{f}", mask="usable"),
        non_endpoint="{mask}" in line,
    )


def _emit_push_prologue(
    out: _Emitter, lead: PhaseSpec, method: str, aliases: List[str],
    copies: int = 1,
) -> None:
    """Guard, popcount, gather, work counters and edge filter shared by
    push methods.

    The active set is the frontier's sorted IDs (or the ``select``
    mask's ``flatnonzero``), the guard evaluated on those nodes only, so
    a step costs its active set rather than a pass over every proxy.
    ``{mask}`` in post lines is that index array.  A transposed phase
    gathers the transposed graph (``dst`` are the stored edges' sources).

    ``copies`` scales the work counters (a GL302 group replays one
    gather for several phases).  A phase without post lines returns the
    empty outcome before gathering when no usable node is left: an empty
    frontier has no edges, so the outcome is the one the full path
    would build.
    """
    scale = f" * {copies}" if copies > 1 else ""
    out.emit(1, f"def {method}(self, part, state, frontier):")
    _emit_aliases(out, aliases)
    if lead.select:
        selected = render_fragment(lead.select, local="{f}")
        out.emit(2, f"usable = np.flatnonzero({selected})")
    else:
        out.emit(2, "usable = frontier")
    if lead.guard:
        guard = render_fragment(lead.guard, local="{f}[usable]")
        out.emit(2, f"usable = usable[{guard}]", non_endpoint=True)
    out.emit(2, "updated = index_sets.EMPTY")
    out.emit(2, "active = len(usable)")
    if not (lead.post_gather or lead.post_scatter):
        out.emit(2, "if active == 0:")
        out.emit(3, "return StepOutcome(updated=updated, work=WorkStats())")
    graph = "part.graph.transpose()" if lead.orientation == "transpose" else "part.graph"
    out.emit(
        2,
        f"src_rep, dst, positions = gather_frontier_edges({graph}, usable)",
    )
    for line in lead.post_gather:
        _emit_post(out, line)
    out.emit(2, "work = WorkStats(")
    out.emit(
        2,
        f"    edges_processed=len(dst){scale}, "
        f"nodes_processed=active{scale}",
    )
    out.emit(2, ")")
    out.emit(2, "if len(dst):")
    if lead.edge_filter:
        keep = render_fragment(
            lead.edge_filter, src="{f}[src_rep]", dst="{f}[dst]", local="{f}"
        )
        out.emit(3, f"keep = {keep}")
        out.emit(
            3, "src_rep, dst, positions = src_rep[keep], dst[keep], positions[keep]"
        )
    if lead.uses_weights:
        out.emit(3, "if part.graph.weights is None:")
        out.emit(4, "weights = np.ones(len(positions), dtype=np.int64)")
        out.emit(3, "else:")
        out.emit(
            4, "weights = part.graph.weights[positions].astype(np.int64)"
        )


def _emit_push(
    out: _Emitter, spec: ProgramSpec, phases: List[PhaseSpec], method: str
) -> None:
    """One gather driving every scatter of ``phases``: a push phase's
    scatters, counted once, or a GL302 fusion group's.

    :func:`repro.analysis.dataflow.fusible` guarantees a group's phases
    gather identically and that no later phase reads an earlier phase's
    target, so replaying the scatters against one ``gather_frontier_edges``
    pass is bitwise-identical to the unfused phase-major driver —
    including the work counters, scaled by the number of fused phases.
    """
    lead = phases[0]
    _emit_push_prologue(out, lead, method, _phase_aliases(spec, *phases), len(phases))
    scatters = [pair for phase in phases for pair in phase.scatters]
    accumulate = len(scatters) > 1
    if accumulate:
        out.emit(3, "written = []")
    for target, kernel in scatters:
        kernel = render_fragment(
            kernel, src="{f}[src_rep]", dst="{f}[dst]", local="{f}"
        )
        out.emit(3, f"candidate = {kernel}")
        _emit_scatter(out, spec, target, 3, "dst", "candidate", accumulate)
    if accumulate:
        out.emit(
            3,
            "updated = index_sets.unique_ids(np.concatenate(written), "
            "part.num_nodes)",
        )
    for line in lead.post_scatter:  # fusion groups carry none
        _emit_post(out, line)
    out.emit(2, "return StepOutcome(updated=updated, work=work)")


def _fusion_groups(
    phases: List[PhaseSpec], fused_pairs: List[Tuple[str, str]]
) -> List[List[PhaseSpec]]:
    """Partition a direction's phases into emission groups.

    Greedy and non-overlapping: a ``(earlier, later)`` pair from
    :func:`repro.analysis.dataflow.fusion_candidates` becomes one
    two-phase group; chains fuse their first pair only (the analyzer
    proved adjacency pairwise, not transitively).
    """
    pairs = set(fused_pairs)
    groups: List[List[PhaseSpec]] = []
    i = 0
    while i < len(phases):
        if (
            i + 1 < len(phases)
            and (phases[i].name, phases[i + 1].name) in pairs
        ):
            groups.append([phases[i], phases[i + 1]])
            i += 2
        else:
            groups.append([phases[i]])
            i += 1
    return groups


def _emit_sparse_pull(
    out: _Emitter, spec: ProgramSpec, phase: PhaseSpec, method: str
) -> None:
    if phase.post_gather or phase.post_scatter:
        raise CompileError(
            f"{spec.name}/{phase.name}: post lines are only supported in "
            "frontier_push phases"
        )
    out.emit(1, f"def {method}(self, part, state, frontier):")
    _emit_aliases(out, _phase_aliases(spec, phase))
    if phase.select:
        targets = render_fragment(phase.select, local="{f}")
        out.emit(2, f"targets = np.flatnonzero({targets})")
    else:
        out.emit(2, "targets = np.arange(part.num_nodes, dtype=np.intp)")
    out.emit(2, "transpose = part.graph.transpose()")
    out.emit(
        2,
        "node_rep, neighbor, positions = gather_frontier_edges("
        "transpose, targets)",
    )
    out.emit(2, "updated = index_sets.EMPTY")
    out.emit(2, "work = WorkStats(")
    out.emit(
        2,
        "    edges_processed=len(neighbor), nodes_processed=len(targets)",
    )
    out.emit(2, ")")
    out.emit(2, "if len(neighbor):")
    # A pull reads every in-neighbor's membership: one scratch mask of
    # the frontier, linear in the host like the pull itself.
    out.emit(3, "in_frontier = np.zeros(part.num_nodes, dtype=bool)")
    out.emit(3, "in_frontier[frontier] = True")
    if phase.guard:
        guard = render_fragment(phase.guard, local="{f}[neighbor]")
        out.emit(3, f"active = in_frontier[neighbor] & ({guard})")
    else:
        out.emit(3, "active = in_frontier[neighbor]")
    out.emit(3, "if np.any(active):")
    out.emit(4, "node_rep = node_rep[active]")
    kernel = render_fragment(
        phase.kernel, src="{f}[neighbor[active]]", local="{f}"
    )
    out.emit(4, f"candidate = {kernel}")
    _emit_scatter(out, spec, phase.target, 4, "node_rep", "candidate")
    out.emit(2, "return StepOutcome(updated=updated, work=work)")


def _emit_dense_pull(
    out: _Emitter, spec: ProgramSpec, phase: PhaseSpec, method: str
) -> None:
    if phase.post_gather or phase.post_scatter:
        raise CompileError(
            f"{spec.name}/{phase.name}: post lines are only supported in "
            "frontier_push phases"
        )
    out.emit(1, f"def {method}(self, part, state, frontier):")
    _emit_aliases(out, _phase_aliases(spec, phase))
    out.emit(2, "src, dst = part.graph.edge_arrays()")
    if phase.source_rows is not None:
        out.emit(
            2,
            f"aggregate_neighbor_rows({phase.target}, "
            f"{phase.source_rows}, src, dst)",
        )
        idempotent = False
    else:
        reduce = _target_reduce(spec, phase.target)
        kernel = render_fragment(phase.kernel, src="{f}[src]", local="{f}")
        idempotent = REDUCTIONS[reduce].idempotent
        if idempotent:
            out.emit(2, f"before = {phase.target}.copy()")
        out.emit(2, f"{_SCATTER_SRC[reduce]}({phase.target}, dst, {kernel})")
    if idempotent:
        changed = _changed(spec, phase.target, phase.target, "before")
        out.emit(2, f"updated = np.flatnonzero({changed})")
    else:
        # Every edge fires every round, so the written set is the nodes
        # with a local in-edge: round-invariant, cached on the graph
        # instead of re-scattered.
        out.emit(2, "updated = part.graph.nodes_with_in_edges()")
    out.emit(2, "work = WorkStats(")
    out.emit(
        2, "    edges_processed=len(dst), nodes_processed=part.num_nodes"
    )
    out.emit(2, ")")
    out.emit(2, "return StepOutcome(updated=updated, work=work)")


def _emit_make_state(out: _Emitter, spec: ProgramSpec) -> None:
    out.emit(1, "def make_state(self, part, ctx):")
    out.emit(2, "n = part.num_nodes")
    if spec.wide_dim:
        out.emit(2, f"dim = {spec.wide_dim}")
    if spec.needs_global_degrees:
        out.emit(2, "if ctx.global_out_degree is None:")
        out.emit(
            3,
            f'raise ValueError("{spec.name} requires '
            'ctx.global_out_degree")',
        )
    if spec.needs_global_in_degrees:
        out.emit(2, "if ctx.global_in_degree is None:")
        out.emit(
            3,
            f'raise ValueError("{spec.name} requires '
            'ctx.global_in_degree")',
        )
    out.emit(2, "state = {}")
    if any(p.kind == "dense_pull" for p in spec.phases):
        # Built before the labels (allocating a host's largest,
        # longest-lived arrays first measurably lowers a run's peak RSS)
        # and cached on the graph, not in the state: the process
        # runtime's workers inherit them through fork, and no snapshot
        # or migration ever sees an edge-sized array.
        out.emit(2, "part.graph.edge_arrays()")
    for decl in spec.fields:
        out.emit(2, f'state["{decl.name}"] = {decl.init}')
        if decl.source_value is not None:
            out.emit(2, "if part.has_proxy(ctx.source):")
            out.emit(
                3,
                f'state["{decl.name}"][part.to_local(ctx.source)] = '
                f"{decl.source_value}",
            )
        for line in decl.extra_init:
            out.emit(2, line)
    for key, expr in spec.scalars:
        out.emit(2, f'state["{key}"] = {expr}')
    if spec.stages:
        out.emit(2, 'state["stage"] = 0')
    out.emit(2, "return state")


def _emit_dead_sync_table(
    out: _Emitter, dead_table: Dict[str, Dict[str, Tuple[str, ...]]]
) -> None:
    """The module-level GL301 elimination table.

    ``{strategy value: {wire: frozenset(dead sync phases)}}`` — emitted
    only by ``compile_program(optimize=True)``, consumed by the
    generated ``make_fields`` via the partition's stamped strategy.
    """
    out.emit(0, "#: GL301 dead-sync table (repro.analysis.dataflow).")
    out.emit(0, "_DEAD_SYNC = {")
    for strategy in sorted(dead_table):
        per_wire = dead_table[strategy]
        inner = ", ".join(
            f'"{wire}": {_frozenset_literal(per_wire[wire])}'
            for wire in sorted(per_wire)
        )
        out.emit(1, f'"{strategy}": {{{inner}}},')
    out.emit(0, "}")


def _emit_make_fields(
    out: _Emitter,
    spec: ProgramSpec,
    sync: Tuple[SyncDecl, ...],
    method: str,
    dead_table: Dict[str, Dict[str, Tuple[str, ...]]],
) -> None:
    """``method`` building the ``FieldSpec``\\ s of the ``sync`` wires."""
    endpoints = derive_endpoints(spec)
    dead_wires = set()
    for per_wire in dead_table.values():
        dead_wires.update(per_wire)
    dead_wires &= {decl.wire_name for decl in sync}
    out.emit(1, f"def {method}(self, part, state):")
    if dead_wires:
        out.emit(2, '_strategy = getattr(part, "strategy", None)')
        out.emit(2, "_dead = _DEAD_SYNC.get(")
        out.emit(
            3, "_strategy.value if _strategy is not None else None, {}"
        )
        out.emit(2, ")")
    out.emit(2, "fields = []")
    for decl in sync:
        wire = decl.wire_name
        ident = _ident(wire)
        field_decl = spec.field_decl(decl.field)
        reduce_name = _REDUCE_NAME[field_decl.reduce]
        writes, reads = endpoints[wire]
        if decl.hook is not None:
            out.emit(0, "")
            out.emit(2, f"def _after_{ident}(changed):")
            out.emit(3, f"return _HOOK_{ident}(part, state)")
        out.emit(0, "")
        out.emit(2, "fields.append(FieldSpec(")
        out.emit(3, f'name="{wire}",')
        out.emit(3, f'values=state["{decl.field}"],')
        out.emit(3, f"reduce_op={reduce_name},")
        if decl.broadcast is not None:
            out.emit(3, f'broadcast_values=state["{decl.broadcast}"],')
        if decl.hook is not None:
            out.emit(3, f"on_master_after_reduce=_after_{ident},")
        if field_decl.compression is not None:
            out.emit(3, f'compression=state["{field_decl.compression}"],')
        out.emit(3, f"writes={_frozenset_literal(writes)},")
        out.emit(3, f"reads={_frozenset_literal(reads)},")
        if wire in dead_wires:
            out.emit(
                3,
                'sync_phases=frozenset({"broadcast", "reduce"}) '
                f'- _dead.get("{wire}", frozenset()),',
            )
        out.emit(2, "))")
    out.emit(2, "return fields")


def _emit_stage(
    out: _Emitter, spec: ProgramSpec, stage: StageSpec, suffix: str,
    dead_table: Dict[str, Dict[str, Tuple[str, ...]]],
    fused_pairs: List[Tuple[str, str]],
) -> None:
    """One stage's ``make_fields``, ``initial_frontier`` and phase-major
    ``step``: the class's own methods for a single-stage program (empty
    ``suffix``), private per-stage methods for a staged one."""

    def name(method: str) -> str:
        return f"_{method}{suffix}" if suffix else method

    _emit_make_fields(out, spec, stage.sync, name("make_fields"), dead_table)
    out.emit(0, "")
    out.emit(1, f"def {name('initial_frontier')}(self, part, state, ctx):")
    if all(p.kind == "dense_pull" for p in stage.phases):
        # Topology-driven: no phase reads a frontier, so it holds none.
        out.emit(2, "return index_sets.EMPTY")
    elif stage.frontier == "all":
        out.emit(2, "return np.arange(part.num_nodes, dtype=np.intp)")
    else:
        out.emit(2, "if part.has_proxy(ctx.source):")
        out.emit(3, "return np.array([part.to_local(ctx.source)], dtype=np.intp)")
        out.emit(2, "return index_sets.EMPTY")
    out.emit(0, "")
    # -- the phase-major step ------------------------------------------------
    push_phases = [p for p in stage.phases if p.kind == "frontier_push"]
    pull_phases = [p for p in stage.phases if p.kind != "frontier_push"]
    default = "pull" if spec.operator_class is OperatorClass.PULL else "push"
    out.emit(
        1,
        f'def {name("step")}(self, part, state, frontier, direction: str = '
        f'"{default}"):',
    )
    at = 2 if stage.counter is None else 3
    if stage.counter is not None:
        out.emit(2, "try:")
    push = f"return self._step_push{suffix}(part, state, frontier)"
    pull = f"return self._step_pull{suffix}(part, state, frontier)"
    if push_phases and pull_phases:
        out.emit(at, 'if direction == "pull":')
        out.emit(at + 1, pull)
        out.emit(at, push)
    else:
        out.emit(at, push if push_phases else pull)
    if stage.counter is not None:
        key, step = stage.counter
        out.emit(2, "finally:  # the stage's round counter")
        out.emit(3, f'state["{key}"] {"-" if step < 0 else "+"}= {abs(step)}')
    out.emit(0, "")

    def _emit_group(group: List[PhaseSpec], method: str) -> None:
        if group[0].kind == "frontier_push":
            _emit_push(out, spec, group, method)
        elif group[0].kind == "sparse_pull":
            _emit_sparse_pull(out, spec, group[0], method)
        else:
            _emit_dense_pull(out, spec, group[0], method)
        out.emit(0, "")

    def _emit_direction(phases: List[PhaseSpec], method: str) -> None:
        groups = _fusion_groups(phases, fused_pairs)
        if len(groups) == 1:
            _emit_group(groups[0], method)
            return
        # Phase-major: run the direction's groups in declared order,
        # uniting their written sets and summing their work counters.
        out.emit(1, f"def {method}(self, part, state, frontier):")
        out.emit(2, "written = []")
        out.emit(2, "edges = 0")
        out.emit(2, "nodes = 0")
        subs = []
        for group in groups:
            sub = "_phase_" + "__".join(_ident(p.name) for p in group)
            subs.append(sub)
            out.emit(2, f"outcome = self.{sub}(part, state, frontier)")
            out.emit(2, "written.append(outcome.updated)")
            out.emit(2, "edges += outcome.work.edges_processed")
            out.emit(2, "nodes += outcome.work.nodes_processed")
        out.emit(2, "updated = index_sets.union(written, part.num_nodes)")
        out.emit(2, "work = WorkStats(")
        out.emit(2, "    edges_processed=edges, nodes_processed=nodes")
        out.emit(2, ")")
        out.emit(2, "return StepOutcome(updated=updated, work=work)")
        out.emit(0, "")
        for group, sub in zip(groups, subs):
            _emit_group(group, sub)

    if push_phases:
        _emit_direction(push_phases, f"_step_push{suffix}")
    if pull_phases:
        _emit_direction(pull_phases, f"_step_pull{suffix}")


def _emit_stage_dispatch(out: _Emitter, stages: Tuple[StageSpec, ...]) -> None:
    """A staged program's entry points: each runs the method of the stage
    ``state["stage"]`` names; ``next_stage`` gives the entries of the
    stage after it — its index and its ``enter`` scalars."""
    for method, params in (
        ("make_fields", "part, state"),
        ("initial_frontier", "part, state, ctx"),
        ("step", "part, state, frontier, direction"),
    ):
        table = ", ".join(f"self._{method}_{_ident(s.name)}" for s in stages)
        default = '="push"' if method == "step" else ""
        out.emit(1, f"def {method}(self, {params}{default}):")
        out.emit(2, f'return ({table})[state["stage"]]({params})')
        out.emit(0, "")
    out.emit(1, "def next_stage(self, state, gather):")
    out.emit(2, 'stage = state["stage"] + 1')
    out.emit(2, f"if stage < {len(stages)}:")
    out.emit(3, "return dict(_ENTER[stage](gather), stage=stage)")
    out.emit(2, "return None")
    out.emit(0, "")


def render_program(spec: ProgramSpec, optimize: bool = False) -> str:
    """Render the complete generated module source for ``spec``.

    With ``optimize=True`` the whole-program dataflow analyzer
    (:mod:`repro.analysis.dataflow`) feeds two transforms into the
    emitted source: a ``_DEAD_SYNC`` table that strips GL301-dead sync
    phases from the generated ``FieldSpec``\\ s per partition strategy,
    and GL302 phase fusion that drives adjacent compatible push
    scatters off one edge gather.  A spec pinning
    ``endpoint_overrides`` (GL305) is rendered unoptimized — a
    tampered contract proves nothing.
    """
    return _render(spec, optimize).source()


def _render(spec: ProgramSpec, optimize: bool) -> _Emitter:
    """The emitter holding :func:`render_program`'s lines."""
    dead_table: Dict[str, Dict[str, Tuple[str, ...]]] = {}
    fused_pairs: List[Tuple[str, str]] = []
    if optimize:
        from repro.analysis.dataflow import (
            dead_sync_table,
            fusion_candidates,
            graph_from_spec,
        )

        graph = graph_from_spec(spec)
        dead_table = dead_sync_table(graph)
        fused_pairs = [
            (a.name, b.name) for a, b in fusion_candidates(graph)
        ]
    cls = _class_name(spec)
    out = _Emitter()
    out.emit(0, f'"""Generated vertex program for spec {spec.name!r}.')
    out.emit(0, "")
    out.emit(0, "Emitted by repro.compiler.compile_program; do not edit.")
    out.emit(
        0,
        "The sync endpoints below are DERIVED from the spec's phase",
    )
    out.emit(0, 'access sets (repro.compiler.spec.derive_endpoints).')
    if dead_table or fused_pairs:
        out.emit(0, "Optimized: GL301 dead-sync elimination"
                    + (" + GL302 phase fusion" if fused_pairs else "")
                    + " (repro.analysis.dataflow).")
    out.emit(0, '"""')
    out.emit(0, "import numpy as np")
    out.emit(0, "")
    out.emit(
        0,
        "from repro.apps.base import StepOutcome, VertexProgram, "
        "gather_frontier_edges",
    )
    out.emit(0, "from repro.core import index_sets")
    out.emit(
        0,
        "from repro.core.sync_structures import "
        "ADD, BOR, MAX, MIN, FieldSpec",
    )
    out.emit(0, "from repro.partition.strategy import OperatorClass")
    out.emit(0, "from repro.runtime.timing import WorkStats")
    if any(p.source_rows is not None for p in spec.phases):
        out.emit(
            0,
            "from repro.features.kernels import aggregate_neighbor_rows",
        )
    for statement in spec.imports:
        out.emit(0, statement)
    if dead_table:
        out.emit(0, "")
        _emit_dead_sync_table(out, dead_table)
    out.emit(0, "")
    out.emit(0, "")
    out.emit(0, f"class {cls}(VertexProgram):")
    suffix = "@optimized" if optimize else ""
    out.emit(1, f'name = "{spec.name}{suffix}"')
    out.emit(1, f"needs_weights = {spec.needs_weights}")
    out.emit(1, f"symmetrize_input = {spec.symmetrize_input}")
    out.emit(1, f"operator_class = OperatorClass.{spec.operator_class.name}")
    out.emit(1, "is_reduction = True")
    out.emit(1, f"iterate_locally = {spec.iterate_locally}")
    out.emit(1, f"uses_frontier = {spec.uses_frontier}")
    out.emit(1, f"supports_pull = {spec.supports_pull}")
    out.emit(1, f"empty_frontier_is_idle = {spec.empty_frontier_is_idle}")
    out.emit(1, f"supports_migration = {spec.supports_migration}")
    out.emit(
        1,
        "migratable_node_arrays = "
        f"{tuple(decl.name for decl in spec.fields)!r}",
    )
    out.emit(1, f"needs_source = {spec.needs_source}")
    out.emit(1, f"needs_global_degrees = {spec.needs_global_degrees}")
    out.emit(1, f"needs_global_in_degrees = {spec.needs_global_in_degrees}")
    out.emit(0, "")
    _emit_make_state(out, spec)
    out.emit(0, "")
    if spec.stages:
        _emit_stage_dispatch(out, spec.stages)
    for stage in spec.stage_list:
        suffix = f"_{_ident(stage.name)}" if spec.stages else ""
        _emit_stage(out, spec, stage, suffix, dead_table, fused_pairs)
    if spec.residual is not None:
        out.emit(1, "def local_residual(self, state):")
        out.emit(2, f'return float(state["{spec.residual}"])')
        out.emit(0, "")
    if spec.converged is not None:
        out.emit(
            1,
            "def is_globally_converged(self, residual_sum, round_index, "
            "ctx):",
        )
        out.emit(
            2, "return bool(_CONVERGED(residual_sum, round_index, ctx))"
        )
        out.emit(0, "")
    return out


def _seed_globals(spec: ProgramSpec) -> Dict:
    """Opaque objects the generated source references by name."""
    seeds: Dict = dict(spec.constants)
    for decl in spec.sync:
        if decl.hook is not None:
            seeds[f"_HOOK_{_ident(decl.wire_name)}"] = decl.hook
    if spec.converged is not None:
        seeds["_CONVERGED"] = spec.converged
    if spec.stages:
        seeds["_ENTER"] = tuple(stage.enter for stage in spec.stages)
    return seeds


def _materialize(spec: ProgramSpec, source: str) -> types.ModuleType:
    """Exec the generated source as a registered, inspectable module.

    The module lands in ``sys.modules`` with a virtual ``__file__`` whose
    text is seeded into :mod:`linecache`, so :func:`inspect.getsource`
    and tracebacks read the generated code verbatim.
    """
    serial = next(_COMPILE_COUNTER)
    modname = f"repro.apps._compiled.{_ident(spec.name)}_{serial}"
    filename = f"<compiled:{spec.name}#{serial}>"
    module = types.ModuleType(modname)
    module.__file__ = filename
    module.__dict__.update(_seed_globals(spec))
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(True),
        filename,
    )
    sys.modules[modname] = module
    try:
        code = compile(source, filename, "exec")
        exec(code, module.__dict__)
    except Exception as exc:
        del sys.modules[modname]
        del linecache.cache[filename]
        raise CompileError(
            f"{spec.name}: generated source failed to execute: {exc}"
        ) from exc
    return module


def compile_program(
    spec: ProgramSpec, verify: bool = False, optimize: bool = False
):
    """Compile a :class:`ProgramSpec` into a runnable vertex program.

    Returns an *instance* of the generated class (the shape ``make_app``
    hands out).  The class itself carries ``spec``,
    ``generated_source`` and ``non_endpoint_lines`` (the emitter's
    declared exemptions, read by ``--sanitize``); pass ``verify=True``
    to check the emitted sync contract against the spec (GL001–GL011)
    and fail the compile on any error-severity finding (``repro lint``
    runs the same check standalone).

    ``optimize=True`` first runs the GL3xx whole-program dataflow
    sweep (:mod:`repro.analysis.dataflow`) and refuses to compile a
    program with error-severity static sync hazards (GL304); it then
    renders with GL301 dead-sync elimination and GL302 phase fusion
    enabled.  Results are bitwise-identical to the unoptimized build —
    only provably-dead messages are dropped.
    """
    if optimize:
        from repro.analysis.dataflow import analyze_spec

        hazards = [
            f for f in analyze_spec(spec) if f.severity == "error"
        ]
        if hazards:
            detail = "; ".join(
                f"{f.rule_id}: {f.message}" for f in hazards
            )
            raise CompileError(
                f"{spec.name}: refusing to optimize a program with "
                f"static sync hazards — {detail}"
            )
    out = _render(spec, optimize)
    source = out.source()
    module = _materialize(spec, source)
    cls = module.__dict__[_class_name(spec)]
    cls.spec = spec
    cls.generated_source = source
    cls.optimized = optimize
    cls.non_endpoint_lines = frozenset(
        (module.__file__, line) for line in out.non_endpoint_lines
    )
    if verify:
        findings = verify_compiled(cls)
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            detail = "; ".join(
                f"{f.rule_id}: {f.message}" for f in errors
            )
            raise CompileError(
                f"{spec.name}: generated program failed the sync-contract "
                f"check — {detail}"
            )
    return cls()


def verify_compiled(program_cls) -> List:
    """Check one generated class's sync contract against its spec."""
    from repro.analysis.linter import lint_programs

    return lint_programs([program_cls])
