"""Whole-program sync dataflow analysis — the GL3xx rule family.

PR 9's compiler made synchronization *declarative*: a
:class:`~repro.compiler.spec.ProgramSpec` names its phases and wires and
:func:`~repro.compiler.spec.derive_endpoints` derives where each field
is written and read.  This module is the pass that *reasons* over that
structure, the way Gluon's §3 reasons over application code: it builds a
phase-level def-use graph (fields as values, phases as def/use nodes,
:class:`~repro.compiler.spec.SyncDecl` wires as the edges communication
flows along) and runs three proofs over it:

* **GL301 — dead-sync elimination.**  §3.1's strategy invariants bound
  which edge endpoints a *mirror* can occupy: under OEC mirrors have no
  out-edges (never an edge source), under IEC no in-edges (never a
  destination).  A wire whose write endpoints are all mirror-impossible
  ships only reduction identities — its reduce phase is dead; one whose
  use surface is consumed only at mirror-impossible endpoints refreshes
  values nothing reads — its broadcast is dead.  Either can be dropped
  with bitwise-identical results (``compile_program(optimize=True)``
  does exactly that).

* **GL302 — phase fusion.**  Consecutive phases of one direction group
  that share a gather (same guard, orientation, weights) with no
  intervening write consumed between them can run off a single edge
  pass — the second gather is redundant.

* **GL304 — static sync hazards.**  The compile-time complement of the
  GL201/GL202 runtime sanitizer (and equally binding under ``--runtime
  process``, where no accidental shared memory can paper over a stale
  proxy): a later phase of the same round reading a field an earlier
  phase scatter-wrote sees locally-fresh but remotely-stale proxies; two
  phases scattering one field at different endpoints race.

* **GL305 — tampered endpoints.**  A spec carrying
  ``endpoint_overrides`` has its contract pinned by hand; every proof
  above is void for it, so the analyzer says so instead of silently
  skipping derivation.

It also issues **self-stabilization certificates**.  Confined recovery
(§2.3, Phoenix) re-initializes lost state and trusts the algorithm to
re-converge.  That is only sound for programs whose reductions are
idempotent *and* whose frontier is data-driven *and* whose update
kernels are monotone, with no master-side accumulator hooks, *and* whose
phase predicates never turn an update off for a vertex whose value just
improved; the certificate checks all five, and
:mod:`repro.resilience.recovery` consults it.

A handwritten program carries no spec, so nothing here analyzes it:
it gets no certificate and no GL3xx findings, and is checked at run
time by the GL201/GL202 sanitizer instead.
"""

from __future__ import annotations

import ast as pyast
import re
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding
from repro.compiler.spec import (
    FieldDecl,
    PhaseSpec,
    ProgramSpec,
    _local_refs,
    derive_phase_access,
)
from repro.partition.strategy import (
    MIRROR_MAY_HAVE_IN_EDGES,
    MIRROR_MAY_HAVE_OUT_EDGES,
    PartitionStrategy,
)

#: The two synchronization phases a wire can ship.
SYNC_PHASES = ("reduce", "broadcast")


# ---------------------------------------------------------------------------
# The def-use graph.
# ---------------------------------------------------------------------------


@dataclass
class PhaseNode:
    """One compute phase as a def/use node of the dataflow graph."""

    name: str
    index: int
    #: Which direction group runs the phase ("push" or "pull").
    direction: str
    kind: str
    orientation: str
    #: Field -> endpoints the phase defines (scatter-writes).
    writes: Dict[str, FrozenSet[str]]
    #: Field -> endpoints the phase uses.  This is the *use surface*:
    #: the derivation's read set plus the consumption sites it
    #: deliberately ignores (pull-target masks and post lines).
    reads: Dict[str, FrozenSet[str]]
    #: Gather structure the fusion rule compares.
    targets: Tuple[str, ...] = ()
    guard: Optional[str] = None
    select: Optional[str] = None
    edge_filter: Optional[str] = None
    uses_weights: bool = False
    has_post: bool = False
    stage: int = 0  # phases of different stages never share a round


@dataclass
class WireEdge:
    """One :class:`SyncDecl` wire: the edge communication flows along."""

    wire: str
    field: str
    read_surface: str
    reduce: Optional[str]
    idempotent: Optional[bool]
    has_hook: bool
    #: Endpoints any phase defines the field at.
    writes: FrozenSet[str]
    #: Endpoints any phase uses the read surface at.
    uses: FrozenSet[str]


@dataclass
class DataflowGraph:
    """Phase-level def-use graph of one vertex program."""

    program: str
    phases: List[PhaseNode] = dc_field(default_factory=list)
    wires: List[WireEdge] = dc_field(default_factory=list)
    uses_frontier: bool = False
    #: True when endpoint_overrides void every proof (GL305).
    overridden: bool = False

    def groups(self) -> List[List[PhaseNode]]:
        """The phases one round runs back-to-back: per stage, the push
        group then the pull group, each in program order."""
        keys = sorted({(p.stage, p.direction != "push") for p in self.phases})
        return [
            [p for p in self.phases if (p.stage, p.direction != "push") == key]
            for key in keys
        ]


# ---------------------------------------------------------------------------
# Building the graph from a ProgramSpec.
# ---------------------------------------------------------------------------


def _phase_access(
    phase: PhaseSpec, field: str, surface: str
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """One phase's ``(defs, uses)`` endpoints for a (field, surface) pair.

    Defs and the core uses come from the same
    :func:`derive_phase_access` the compiler's endpoint derivation runs.
    The use surface is then widened with the consumption sites the
    derivation deliberately ignores (they do not change *which* proxies
    sync, only whether a sync phase is removable): sparse pulls' ``select``
    masks read the surface on the destination side to pick gather
    targets, and post-gather/post-scatter lines read whole local arrays
    on the active side.
    """
    writes, reads = derive_phase_access(phase, field, read_surface=surface)
    extra = set()
    if phase.kind == "sparse_pull" and surface in _local_refs(phase.select):
        extra.add(phase.dest_endpoint)
    for line in phase.post_gather + phase.post_scatter:
        if surface in _local_refs(line):
            extra.add(phase.source_endpoint)
    return writes, frozenset(set(reads) | extra)


def graph_from_spec(spec: ProgramSpec) -> DataflowGraph:
    """Build the def-use graph of a declarative program spec."""
    graph = DataflowGraph(
        program=spec.name,
        uses_frontier=spec.uses_frontier,
        overridden=bool(spec.endpoint_overrides),
    )
    field_names = [f.name for f in spec.fields]
    staged = [(i, phase) for i, stage in enumerate(spec.stage_list) for phase in stage.phases]
    for index, (stage, phase) in enumerate(staged):
        writes: Dict[str, FrozenSet[str]] = {}
        reads: Dict[str, FrozenSet[str]] = {}
        for name in field_names:
            w, r = _phase_access(phase, name, name)
            if w:
                writes[name] = w
            if r:
                reads[name] = r
        graph.phases.append(
            PhaseNode(
                name=phase.name,
                index=index,
                direction=(
                    "push" if phase.kind == "frontier_push" else "pull"
                ),
                kind=phase.kind,
                orientation=phase.orientation,
                writes=writes,
                reads=reads,
                targets=phase.targets,
                guard=phase.guard,
                select=phase.select,
                edge_filter=phase.edge_filter,
                uses_weights=phase.uses_weights,
                has_post=bool(phase.post_gather or phase.post_scatter),
                stage=stage,
            )
        )
    for decl in spec.sync:
        field_decl = spec.field_decl(decl.field)
        wire_writes: set = set()
        wire_uses: set = set()
        for phase in spec.phases:
            w, u = _phase_access(phase, decl.field, decl.read_surface)
            wire_writes |= w
            wire_uses |= u
        graph.wires.append(
            WireEdge(
                wire=decl.wire_name,
                field=decl.field,
                read_surface=decl.read_surface,
                reduce=field_decl.reduce,
                idempotent=(
                    field_decl.reduction.idempotent
                    if field_decl.reduction is not None
                    else None
                ),
                has_hook=decl.hook is not None,
                writes=frozenset(wire_writes),
                uses=frozenset(wire_uses),
            )
        )
    return graph


# ---------------------------------------------------------------------------
# GL301 — dead-sync elimination.
# ---------------------------------------------------------------------------


def _mirror_possible(endpoint: str, strategy: PartitionStrategy) -> bool:
    """Can a mirror proxy occupy ``endpoint`` of an edge under ``strategy``?

    §3.1's strategy invariants: an edge *source* needs an out-edge, a
    *destination* an in-edge — directions OEC/IEC deny to mirrors.
    """
    if endpoint == "source":
        return MIRROR_MAY_HAVE_OUT_EDGES[strategy]
    return MIRROR_MAY_HAVE_IN_EDGES[strategy]


def dead_phases_for(
    wire: WireEdge, strategy: PartitionStrategy
) -> FrozenSet[str]:
    """Which of the wire's sync phases are provably dead under a strategy.

    * The **reduce** ships mirror values to masters; if no phase can
      ever define the field at a mirror-occupiable endpoint, every
      mirror holds the reduction identity (or a value the master
      already has) and the phase is dead.
    * The **broadcast** refreshes mirror copies of the read surface; if
      every use of that surface sits at a mirror-impossible endpoint,
      the refreshed values are never consumed before the next write and
      the phase is dead.
    """
    dead = set()
    if wire.writes and not any(
        _mirror_possible(e, strategy) for e in wire.writes
    ):
        dead.add("reduce")
    if wire.uses and not any(
        _mirror_possible(e, strategy) for e in wire.uses
    ):
        dead.add("broadcast")
    return frozenset(dead)


def dead_sync_table(
    graph: DataflowGraph,
) -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """``{strategy value: {wire: dead sync phases}}`` for codegen.

    Empty for an overridden (GL305) graph — a hand-pinned contract
    proves nothing.  Strategies with no dead wire are omitted.
    """
    if graph.overridden:
        return {}
    table: Dict[str, Dict[str, Tuple[str, ...]]] = {}
    for strategy in PartitionStrategy:
        per_wire = {}
        for wire in graph.wires:
            dead = dead_phases_for(wire, strategy)
            if dead:
                per_wire[wire.wire] = tuple(sorted(dead))
        if per_wire:
            table[strategy.value] = per_wire
    return table


def _gl301(graph: DataflowGraph) -> List[Finding]:
    findings = []
    for wire in graph.wires:
        by_phase: Dict[str, List[str]] = {p: [] for p in SYNC_PHASES}
        for strategy in PartitionStrategy:
            for phase in dead_phases_for(wire, strategy):
                by_phase[phase].append(strategy.value)
        for phase in SYNC_PHASES:
            strategies = by_phase[phase]
            if not strategies:
                continue
            surface = (
                "write endpoints %s are never mirror-writable"
                % sorted(wire.writes)
                if phase == "reduce"
                else "read surface %r is only consumed at %s"
                % (wire.read_surface, sorted(wire.uses))
            )
            findings.append(
                Finding(
                    "GL301",
                    message=(
                        f"{phase} phase of wire {wire.wire!r} is dead "
                        f"under {'/'.join(sorted(strategies))}: {surface}, "
                        "a mirror-impossible endpoint set — droppable "
                        "with bitwise-identical results"
                    ),
                    subject=graph.program,
                    field_name=wire.wire,
                    details={
                        "sync_phase": phase,
                        "strategies": sorted(strategies),
                        "writes": sorted(wire.writes),
                        "uses": sorted(wire.uses),
                    },
                )
            )
    return findings


# ---------------------------------------------------------------------------
# GL302 — phase fusion / redundant gather.
# ---------------------------------------------------------------------------


def fusible(a: PhaseNode, b: PhaseNode) -> bool:
    """Can consecutive phases ``a`` then ``b`` share one edge gather?

    They must gather identically (same kind, orientation, guard,
    selection, edge filter, weights), carry no one-shot post lines
    (those order against the gather), scatter *different* fields, and
    ``b`` must not consume anything ``a`` defines — otherwise fusing
    would feed ``b`` the pre-``a`` gather.
    """
    if a.kind != "frontier_push" or b.kind != "frontier_push":
        return False
    gather = ("orientation", "guard", "select", "edge_filter", "uses_weights")
    if any(getattr(a, key) != getattr(b, key) for key in gather):
        return False
    if a.has_post or b.has_post:
        return False
    if not a.targets or not b.targets or set(a.targets) & set(b.targets):
        return False
    return not set(a.targets) & set(b.reads)


def fusion_candidates(
    graph: DataflowGraph,
) -> List[Tuple[PhaseNode, PhaseNode]]:
    """Adjacent (earlier, later) push-phase pairs one gather can drive."""
    if graph.overridden:
        return []
    return [
        (a, b)
        for group in graph.groups()
        for a, b in zip(group, group[1:])
        if fusible(a, b)
    ]


def _gl302(graph: DataflowGraph) -> List[Finding]:
    findings = []
    for a, b in fusion_candidates(graph):
        findings.append(
            Finding(
                "GL302",
                message=(
                    f"phases {a.name!r} and {b.name!r} share one gather "
                    f"(guard {a.guard!r}, {a.orientation}) with no "
                    "intervening consumed write — one edge pass can "
                    "drive both scatters"
                ),
                subject=graph.program,
                details={"earlier": a.name, "later": b.name},
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Self-stabilization certificates.
# ---------------------------------------------------------------------------

#: Endpoint placeholders, longest-match first ({src.f} before {f}).
_REF = re.compile(
    r"\{src\.(?P<src>[A-Za-z_]\w*)\}"
    r"|\{dst\.(?P<dst>[A-Za-z_]\w*)\}"
    r"|\{(?P<loc>[A-Za-z_]\w*)\}"
)

#: Vectorized numpy callables that are monotone in every argument.
_MONOTONE_CALLS = frozenset({"minimum", "maximum", "fmin", "fmax"})


def _desugar_kernel(kernel: str) -> Tuple[str, FrozenSet[str]]:
    """Replace placeholder refs with identifiers; return (source, vars).

    ``vars`` is the set of identifiers standing for *field* values — the
    variables monotonicity is judged against.  ``{w}``/``{mask}`` render
    to identifiers too but count as per-edge constants.
    """
    fields = set()

    def replace(match: "re.Match") -> str:
        if match.group("src") is not None:
            name = f"__src_{match.group('src')}"
            fields.add(name)
        elif match.group("dst") is not None:
            name = f"__dst_{match.group('dst')}"
            fields.add(name)
        else:
            local = match.group("loc")
            name = f"__loc_{local}"
            if local not in ("w", "mask"):
                fields.add(name)
        return name

    return _REF.sub(replace, kernel), frozenset(fields)


def _has_field_vars(node: pyast.AST, fields: FrozenSet[str]) -> bool:
    return any(
        isinstance(sub, pyast.Name) and sub.id in fields
        for sub in pyast.walk(node)
    )


def _call_name(node: pyast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, pyast.Attribute):
        return func.attr
    if isinstance(func, pyast.Name):
        return func.id
    return None


def _monotone(node: pyast.AST, fields: FrozenSet[str]) -> bool:
    """Is the expression monotone non-decreasing in every field variable?

    Structural and conservative: constants (any field-free subtree),
    field reads, sums, min/max, dtype casts of monotone terms, and
    products/subtractions with a field-free right side when the
    multiplier is a non-negative literal.  Anything data-dependent
    (``np.where``, comparisons, division by a field) is refused — a
    refusal means "not certified", never "broken".
    """
    if not _has_field_vars(node, fields):
        return True
    if isinstance(node, pyast.Name):
        return True
    if isinstance(node, pyast.BinOp):
        if isinstance(node.op, pyast.Add):
            return _monotone(node.left, fields) and _monotone(
                node.right, fields
            )
        if isinstance(node.op, pyast.Sub):
            return _monotone(node.left, fields) and not _has_field_vars(
                node.right, fields
            )
        if isinstance(node.op, pyast.Mult):
            for term, other in (
                (node.left, node.right),
                (node.right, node.left),
            ):
                if (
                    isinstance(other, pyast.Constant)
                    and isinstance(other.value, (int, float))
                    and other.value >= 0
                ):
                    return _monotone(term, fields)
            return False
        return False
    if isinstance(node, pyast.Call):
        name = _call_name(node)
        if name in _MONOTONE_CALLS:
            return all(_monotone(arg, fields) for arg in node.args)
        if name == "astype" and isinstance(node.func, pyast.Attribute):
            # cast of a monotone term to a (field-free) dtype
            return _monotone(node.func.value, fields) and not any(
                _has_field_vars(arg, fields) for arg in node.args
            )
        return False
    if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.UAdd):
        return _monotone(node.operand, fields)
    return False


def kernel_is_monotone(kernel: Optional[str]) -> bool:
    """Machine check: is a spec kernel monotone in its field inputs?

    ``None`` kernels (wide ``source_rows`` aggregations) are sums with
    unit coefficients — monotone by construction.
    """
    if kernel is None:
        return True
    source, fields = _desugar_kernel(kernel)
    try:
        tree = pyast.parse(source, mode="eval")
    except SyntaxError:
        return False
    return _monotone(tree.body, fields)


#: Comparisons that a value moving down (-1) or up (+1) never turns off.
_KEPT_WHILE_MOVING = {-1: (pyast.Lt, pyast.LtE), 1: (pyast.Gt, pyast.GtE)}
#: ``c op x`` read as ``x op' c``.
_MIRRORED = {pyast.Lt: pyast.Gt, pyast.Gt: pyast.Lt, pyast.LtE: pyast.GtE, pyast.GtE: pyast.LtE}


def _improvement_direction(decl: Optional[FieldDecl]) -> Optional[int]:
    """Which way a field's value moves when its reduction improves it:
    -1 (min), +1 (max), ``None`` when the reduction orders nothing."""
    reduce = decl.reduce if decl is not None else None
    return {"min": -1, "max": 1}.get(reduce)


def _kept(node: pyast.AST, decls: Dict[str, Optional[FieldDecl]], constants: Dict) -> bool:
    """Does a predicate that holds keep holding as its fields improve?

    Structural and conservative, like :func:`_monotone`: ``&``/``|`` of
    kept terms; ``x < c`` / ``x <= c`` over a monotone term of min
    fields (``>``/``>=`` for max fields) and a field-free ``c``; and
    ``x != identity`` for a bare field ``x`` (nothing lies beyond the
    reduction's identity, so an improved value never reaches it).
    Equality, negation and anything else is refused.
    """
    names = frozenset(decls)
    if not _has_field_vars(node, names):
        return True
    if isinstance(node, pyast.BinOp) and isinstance(node.op, (pyast.BitAnd, pyast.BitOr)):
        return _kept(node.left, decls, constants) and _kept(node.right, decls, constants)
    if not isinstance(node, pyast.Compare) or len(node.ops) != 1:
        return False
    term, op, bound = node.left, type(node.ops[0]), node.comparators[0]
    if _has_field_vars(bound, names):
        if _has_field_vars(term, names):
            return False
        term, op, bound = bound, _MIRRORED.get(op, op), term
    directions = {
        _improvement_direction(decls[sub.id])
        for sub in pyast.walk(term)
        if isinstance(sub, pyast.Name) and sub.id in names
    }
    if len(directions) != 1 or None in directions or not _monotone(term, names):
        return False
    (direction,) = directions
    if op in _KEPT_WHILE_MOVING[direction]:
        return True
    if op is not pyast.NotEq or not isinstance(term, pyast.Name):
        return False
    if isinstance(bound, pyast.Constant):
        value = bound.value
    elif isinstance(bound, pyast.Name) and bound.id in constants:
        value = constants[bound.id]
    else:
        return False
    decl = decls[term.id]
    return bool(value == decl.reduction.identity(decl.dtype))


def predicate_kept_under_improvement(predicate: Optional[str], spec: ProgramSpec) -> bool:
    """Machine check: can a field improving never switch the predicate off?

    A phase's ``select``, guard or edge filter decides which vertices
    take part in an update.  Once a vertex's value improves — a reseeded
    host, an inserted edge — the update must still reach it; a predicate
    like Ligra's ``dist == INFINITY`` (pull only while unvisited) is sound
    from a clean level-synchronous start but not after a reseed.
    """
    if predicate is None:
        return True
    source, fields = _desugar_kernel(predicate)
    decls = {}
    for var in fields:
        try:  # "__loc_f" / "__src_f" / "__dst_f" -> "f"
            decls[var] = spec.field_decl(var.split("_", 3)[3])
        except KeyError:
            decls[var] = None
    try:
        tree = pyast.parse(source, mode="eval")
    except SyntaxError:
        return False
    return _kept(tree.body, decls, dict(spec.constants))


@dataclass(frozen=True)
class StabilizationCertificate:
    """Machine-checked confined-recovery eligibility for one program."""

    program: str
    self_stabilizing: bool
    #: (condition name, holds) pairs, in check order.
    conditions: Tuple[Tuple[str, bool], ...]

    @property
    def reasons(self) -> Tuple[str, ...]:
        """Names of the failed conditions (empty when certified)."""
        return tuple(name for name, holds in self.conditions if not holds)


def certify_spec(spec: ProgramSpec) -> StabilizationCertificate:
    """The certificate of a declarative spec (all five conditions)."""
    frontier = spec.uses_frontier
    reductions = [spec.field_decl(d.field).reduction for d in spec.sync]
    idempotent = bool(reductions) and all(
        op is not None and op.idempotent for op in reductions
    )
    no_hooks = not any(d.hook is not None for d in spec.sync)
    monotone = all(
        kernel_is_monotone(kernel) for p in spec.phases for _, kernel in p.scatters
    )
    kept = all(
        predicate_kept_under_improvement(predicate, spec)
        for p in spec.phases
        for predicate in (p.guard, p.select, p.edge_filter)
    )
    conditions = (
        ("data-driven-frontier", frontier),
        ("idempotent-reductions", idempotent),
        ("no-master-hooks", no_hooks),
        ("monotone-kernels", monotone),
        ("predicates-kept-under-improvement", kept),
    )
    return StabilizationCertificate(
        program=spec.name,
        self_stabilizing=all(holds for _, holds in conditions),
        conditions=conditions,
    )


def certificate_for(
    target: Union[ProgramSpec, type, object],
) -> Optional[StabilizationCertificate]:
    """The stabilization certificate for a spec, program class, or instance.

    Compiled programs carry their spec (``cls.spec``) and certify from
    it.  A handwritten program has no spec and gets ``None`` — callers
    must treat that as "not certified", not as a license.
    """
    if isinstance(target, ProgramSpec):
        return certify_spec(target)
    spec = getattr(target, "spec", None)
    return certify_spec(spec) if isinstance(spec, ProgramSpec) else None


# ---------------------------------------------------------------------------
# GL304 — static stale-mirror-read / write-write race detection.
# ---------------------------------------------------------------------------


def _gl304(graph: DataflowGraph) -> List[Finding]:
    """Cross-phase hazards inside one direction group.

    Phases of a group run back-to-back in one round with no sync in
    between: a later phase consuming what an earlier one scattered sees
    fresh local proxies but stale remote ones (the partitioning decides
    which — GL202's static twin), and two phases scattering one field
    at different endpoints disagree about where the reduce must gather
    (GL201's static twin).  Phases of different stages never share a
    round.
    """
    findings = []
    for group in graph.groups():
        direction = group[0].direction
        for i, earlier in enumerate(group):
            for later in group[i + 1:]:
                for name in sorted(
                    set(earlier.writes) & set(later.writes)
                ):
                    if earlier.writes[name] != later.writes[name]:
                        findings.append(
                            Finding(
                                "GL304",
                                message=(
                                    f"phases {earlier.name!r} and "
                                    f"{later.name!r} ({direction} group) "
                                    f"both scatter {name!r} but at "
                                    "different endpoints "
                                    f"({sorted(earlier.writes[name])} vs "
                                    f"{sorted(later.writes[name])}) — "
                                    "cross-phase write-write race"
                                ),
                                subject=graph.program,
                                field_name=name,
                                details={
                                    "hazard": "write-write",
                                    "earlier": earlier.name,
                                    "later": later.name,
                                },
                            )
                        )
                for name in sorted(
                    set(earlier.writes) & set(later.reads)
                ):
                    findings.append(
                        Finding(
                            "GL304",
                            message=(
                                f"phase {later.name!r} reads {name!r} "
                                f"that phase {earlier.name!r} scatter-"
                                "wrote earlier in the same round — "
                                "local proxies are fresh but remote "
                                "mirrors are stale until the round's "
                                "sync (equally under --runtime process)"
                            ),
                            subject=graph.program,
                            field_name=name,
                            details={
                                "hazard": "stale-read",
                                "earlier": earlier.name,
                                "later": later.name,
                            },
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# GL305 — tampered endpoints.
# ---------------------------------------------------------------------------


def _gl305(spec: ProgramSpec) -> List[Finding]:
    if not spec.endpoint_overrides:
        return []
    wires = sorted(name for name, _ in spec.endpoint_overrides)
    return [
        Finding(
            "GL305",
            message=(
                f"spec pins endpoint_overrides for wire(s) "
                f"{', '.join(repr(w) for w in wires)} — endpoints are "
                "no longer derived from the phases, so dead-sync, "
                "fusion, and stabilization proofs are void for this "
                "program"
            ),
            subject=spec.name,
            details={"wires": wires},
        )
    ]


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def analyze_spec(spec: ProgramSpec) -> List[Finding]:
    """Every GL3xx finding for one declarative program spec."""
    findings = _gl305(spec)
    if spec.endpoint_overrides:
        # A tampered contract proves nothing; stop at the GL305 flag
        # rather than reporting eliminations that would corrupt results.
        return findings
    graph = graph_from_spec(spec)
    findings.extend(_gl301(graph))
    findings.extend(_gl302(graph))
    findings.extend(_gl304(graph))
    return findings


def dataflow_programs(programs: Sequence[type]) -> List[Finding]:
    """GL3xx findings over a set of program classes (lint integration)."""
    findings: List[Finding] = []
    seen = set()
    for cls in programs:
        if cls in seen:
            continue
        seen.add(cls)
        findings.extend(analyze_spec(cls.spec))
    return findings
