"""Declarative program specifications — the compiler's input language.

A :class:`ProgramSpec` is an ordered tuple of :class:`PhaseSpec` compute
phases (push / sparse-pull / dense-pull, each a textual vectorized
kernel over declared :class:`FieldDecl` fields) plus :class:`SyncDecl`
synchronization pairings — or, for a program run in passes (bc), ordered
:class:`StageSpec` stages of them, run one after another by one executor
over one layout.  Crucially the sync *endpoints* — which edge
end a field is written at and which end it is read at, the
``WriteAtDestination`` / ``ReadAtSource`` parameters of the paper's
Figure 4 — are **derived** from the phases' access sets by
:func:`derive_endpoints`; specs never hand-declare them.  Compiled to
real Python source by :func:`repro.compiler.program_codegen.compile_program`.

Kernel/guard strings reference fields through placeholders:

* ``{src.dist}`` — the field gathered at the edge *source* endpoint
  (renders ``dist[src_rep]`` in a push phase, ``dist[neighbor[active]]``
  in a sparse pull phase, ``dist[src]`` in a dense pull phase);
* ``{dst.dist}`` — the field gathered at the edge *destination*;
* ``{dist}`` — the whole local array (active-side reads; a push guard
  renders it at the frontier's indices, ``dist[usable]``);
* ``{w}`` — the per-edge weights; ``{mask}`` — the active nodes as an
  index array (post lines only).

A declared scalar is named bare (``level``, not ``{level}``).

The placeholders double as the access sets the endpoint derivation
consumes: a field appearing as ``{src.f}`` (or whole-array on the
active side) is *read at source*; the phase's scatter targets are
*written at destination* (both flipped for ``orientation="transpose"``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.sync_structures import REDUCTIONS, ReductionOp
from repro.errors import ReproError
from repro.partition.strategy import OperatorClass


class CompileError(ReproError):
    """Raised when an operator specification is inconsistent."""


@dataclass(frozen=True)
class FieldDecl:
    """One node label (synchronized or local).

    Attributes:
        name: Field name (the state-dict key).
        dtype: numpy dtype of the label.
        reduce: Reduction name from
            :data:`repro.core.sync_structures.REDUCTIONS`, or ``None``
            for a local (never-synchronized) field.
        init: Initializer — a Python *source expression* rendered
            verbatim into the generated ``make_state``.  Expressions may
            reference ``part``, ``ctx``, ``n`` (local node count),
            ``dim`` (the program's wide dimension), previously declared
            fields via ``state["..."]``, spec constants, and ``np``.
        width: For wide ``(n, d)`` fields, the source expression of the
            column count (e.g. ``"ctx.feature_dim"``); ``None`` for 1-D.
        compression: Wire payload encoding for the synchronized field —
            a state key holding the mode (e.g. the ``"compression"``
            scalar mirroring ``ctx.compression``), or ``None``.
        source_value: Optional source expression assigned to the
            ``ctx.source`` proxy after ``init`` (bfs/sssp-style seeds).
        extra_init: Extra ``make_state`` statements emitted after the
            base initialization (may reference ``state``).
    """

    name: str
    dtype: type
    reduce: Optional[str]
    init: str
    width: Optional[str] = None
    compression: Optional[str] = None
    source_value: Optional[str] = None
    extra_init: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.reduce is not None and self.reduce not in REDUCTIONS:
            known = ", ".join(sorted(REDUCTIONS))
            raise CompileError(
                f"field {self.name!r}: unknown reduction {self.reduce!r} "
                f"(known: {known})"
            )
        if not isinstance(self.init, str):
            raise CompileError(
                f"field {self.name!r}: init must be a source expression"
            )

    @property
    def reduction(self) -> Optional[ReductionOp]:
        """The resolved reduction operation (``None`` for local fields)."""
        if self.reduce is None:
            return None
        return REDUCTIONS[self.reduce]


#: Kernel/guard placeholder grammar (see module docstring).
_SRC_REF = re.compile(r"\{src\.([A-Za-z_]\w*)\}")
_DST_REF = re.compile(r"\{dst\.([A-Za-z_]\w*)\}")
_LOCAL_REF = re.compile(r"\{([A-Za-z_]\w*)\}")

#: Placeholder names that are template variables, not fields.
RESERVED_REFS = frozenset({"w", "mask"})

#: Phase kinds the codegen templates implement.
PHASE_KINDS = ("frontier_push", "sparse_pull", "dense_pull")


def _local_refs(text: str) -> FrozenSet[str]:
    """Whole-array field references in a kernel/guard fragment."""
    return frozenset(
        name
        for name in _LOCAL_REF.findall(text or "")
        if name not in RESERVED_REFS
    )


def _src_refs(text: str) -> FrozenSet[str]:
    return frozenset(_SRC_REF.findall(text or ""))


def _dst_refs(text: str) -> FrozenSet[str]:
    return frozenset(_DST_REF.findall(text or ""))


def _all_refs(text: str) -> FrozenSet[str]:
    return _src_refs(text) | _dst_refs(text) | _local_refs(text)


@dataclass(frozen=True)
class PhaseSpec:
    """One ordered compute phase of a :class:`ProgramSpec`.

    Attributes:
        name: Phase name (for descriptions and generated method names).
        kind: Which codegen template runs the phase —

            * ``"frontier_push"``: gather out-edges of guarded frontier
              nodes, scatter-combine the kernel's candidates into the
              destinations (bfs/sssp/cc/kcore/pr-push/bc);
            * ``"sparse_pull"``: gather in-edges of the ``select``
              destinations, adopt candidates from frontier in-neighbors
              (bfs/cc pull directions);
            * ``"dense_pull"``: scatter-combine over *all* local edges,
              pre-gathered once in ``make_state`` (pagerank, and — with
              ``source_rows`` — the wide SpMM aggregations).
        target: The field the phase's reduction writes.
        kernel: Candidate-value source expression (placeholder grammar in
            the module docstring).  ``None`` only for wide dense pulls,
            where ``source_rows`` names the row matrix to aggregate.
        guard: Source-side predicate expression; push phases apply it to
            the frontier, sparse pulls to the gathered in-neighbors.
        select: Mask of the nodes whose edges are gathered: a sparse
            pull's destinations (``None``: all), or a push's active nodes
            instead of the frontier (active-side reads, like a guard's).
        uses_weights: Whether the kernel references ``{w}``.
        source_rows: Wide dense pull only — the field whose rows feed
            ``aggregate_neighbor_rows`` into ``target``.
        post_gather: Statements emitted right after the edge gather
            (one-shot flags; may use ``{field}`` and ``{mask}``).
        post_scatter: Statements emitted after the scatter, *outside*
            the non-empty-edge-set branch (pr-push's delta clearing).
        orientation: ``"forward"`` iterates the stored edge direction;
            ``"transpose"`` (push only) gathers the transposed graph: the
            active node is the stored edge's destination, the write its source.
        edge_filter: Push only — a predicate over the gathered edges, taken
            after the work counters and before any kernel; its reads derive
            like kernel reads.
        extra_scatters: Push only — further ``(target, kernel)`` pairs
            scattered off the same gather, in order; the work is counted
            once.  A later kernel may not read an earlier target.
    """

    name: str
    kind: str
    target: str
    kernel: Optional[str] = None
    guard: Optional[str] = None
    select: Optional[str] = None
    uses_weights: bool = False
    source_rows: Optional[str] = None
    post_gather: Tuple[str, ...] = ()
    post_scatter: Tuple[str, ...] = ()
    orientation: str = "forward"
    edge_filter: Optional[str] = None
    extra_scatters: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise CompileError(
                f"phase {self.name!r}: unknown kind {self.kind!r} "
                f"(known: {', '.join(PHASE_KINDS)})"
            )
        if self.orientation not in ("forward", "transpose"):
            raise CompileError(
                f"phase {self.name!r}: orientation must be 'forward' or "
                f"'transpose', not {self.orientation!r}"
            )
        if self.kind == "dense_pull":
            if (self.kernel is None) == (self.source_rows is None):
                raise CompileError(
                    f"phase {self.name!r}: dense pulls take exactly one "
                    "of kernel= (scalar) or source_rows= (wide)"
                )
        elif self.kernel is None:
            raise CompileError(f"phase {self.name!r}: kernel is required")
        push_only = {
            "weighted kernels": self.uses_weights,
            "transposed gathers": self.orientation == "transpose",
            "edge filters": self.edge_filter is not None,
            "extra scatters": bool(self.extra_scatters),
        }
        misplaced = [name for name, given in push_only.items() if given]
        if misplaced and self.kind != "frontier_push":
            raise CompileError(
                f"phase {self.name!r}: {', '.join(misplaced)} are only "
                "supported in frontier_push phases"
            )
        if self.select is not None and self.kind == "dense_pull":
            raise CompileError(f"phase {self.name!r}: dense pulls take no select")
        targets = self.targets
        for i, (target, kernel) in enumerate(self.scatters[1:], start=1):
            if target in targets[:i] or set(targets[:i]) & _all_refs(kernel):
                raise CompileError(
                    f"phase {self.name!r}: scatter into {target!r} repeats "
                    "or reads an earlier scatter's target"
                )

    # -- access sets (what the endpoint derivation consumes) -----------------

    @property
    def scatters(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        """Every ``(target, kernel)`` pair the phase scatters, in order."""
        return ((self.target, self.kernel),) + self.extra_scatters

    @property
    def targets(self) -> Tuple[str, ...]:
        """The fields the phase's reductions write."""
        return tuple(target for target, _ in self.scatters)

    def expressions(self) -> Tuple[str, ...]:
        """Every source fragment of the phase, kernels first."""
        texts = [kernel for _, kernel in self.scatters]
        texts += [self.guard, self.select, self.edge_filter]
        return tuple(t for t in texts if t) + self.post_gather + self.post_scatter

    @property
    def source_endpoint(self) -> str:
        """Which edge end the *active* (computing) node sits at."""
        return "source" if self.orientation == "forward" else "destination"

    @property
    def dest_endpoint(self) -> str:
        """Which edge end the phase's reduction writes."""
        return "destination" if self.orientation == "forward" else "source"

    def _edge_texts(self) -> Tuple[Optional[str], ...]:
        """The fragments evaluated per gathered edge: kernels and filter."""
        return tuple(kernel for _, kernel in self.scatters) + (self.edge_filter,)

    def reads_at_source(self) -> FrozenSet[str]:
        """Fields the phase reads on the active side (incl. guards)."""
        refs = set(_local_refs(self.guard))
        for text in self._edge_texts():
            refs |= _src_refs(text) | _local_refs(text)
        if self.kind == "frontier_push":
            refs |= _local_refs(self.select)
        if self.source_rows is not None:
            refs.add(self.source_rows)
        return frozenset(refs)

    def reads_at_destination(self) -> FrozenSet[str]:
        """Fields the phase reads on the written side."""
        refs = set(_dst_refs(self.guard))
        for text in self._edge_texts():
            refs |= _dst_refs(text)
        return frozenset(refs)

    def referenced_fields(self) -> FrozenSet[str]:
        """Every field the phase touches (for alias emission/validation)."""
        refs = set(self.targets)
        for text in self.expressions():
            refs |= _all_refs(text)
        if self.source_rows is not None:
            refs.add(self.source_rows)
        return frozenset(refs)


@dataclass(frozen=True)
class SyncDecl:
    """One synchronized field pairing: reduce surface + broadcast surface.

    The *endpoints* (``writes``/``reads`` of the generated
    :class:`~repro.core.sync_structures.FieldSpec`) are not declared
    here — :func:`derive_endpoints` computes them from the phases.

    Attributes:
        field: The reduced field (must carry a ``reduce`` in its decl).
        name: Wire name of the field (defaults to ``field``).
        broadcast: For derived broadcasts, the field whose values flow
            master -> mirrors after the reduce (pagerank's ``contrib``).
        hook: Master-side apply ``(part, state) -> dirty`` run after
            the reduce phase (required iff ``broadcast`` is set);
            ``dirty`` is the masters to broadcast as sorted, unique
            ``np.intp`` local IDs (:mod:`repro.core.index_sets`).
            Without a frontier it must return the set: a hooked field
            of such a program builds no reduce change set for the plain
            rule to fall back on (``None`` is a ``SyncError``).
    """

    field: str
    name: Optional[str] = None
    broadcast: Optional[str] = None
    hook: Optional[Callable] = None

    def __post_init__(self) -> None:
        if (self.broadcast is None) != (self.hook is None):
            raise CompileError(
                f"sync {self.field!r}: derived broadcasts need both "
                "broadcast= and hook= (or neither)"
            )

    @property
    def wire_name(self) -> str:
        return self.name if self.name is not None else self.field

    @property
    def read_surface(self) -> str:
        """The field mirrors actually *read* (broadcast pair or values)."""
        return self.broadcast if self.broadcast is not None else self.field


@dataclass(frozen=True)
class StageSpec:
    """One ordered stage of a staged :class:`ProgramSpec`: it runs rounds
    until its global frontier drains, then the executor enters the next
    stage over the same layout.

    Attributes:
        name: Stage name (for generated method names).
        phases: The stage's phases; at least one is a ``frontier_push``.
        sync: The wires the stage synchronizes.
        frontier: The stage's initial frontier, ``"all"`` or ``"source"``.
        counter: ``(scalar, step)`` — a declared scalar advanced by
            ``step`` after every step (bc's BFS level), or ``None``.
        enter: Every stage but the first: ``enter(gather) -> {scalar:
            value}``, run once on the coordinator as the stage begins;
            ``gather(key)`` assembles a field's global master values.
    """

    name: str
    phases: Tuple[PhaseSpec, ...]
    sync: Tuple[SyncDecl, ...]
    frontier: str = "all"
    counter: Optional[Tuple[str, int]] = None
    enter: Optional[Callable] = None


@dataclass(frozen=True)
class ProgramSpec:
    """A complete vertex program of ordered phases, ready to compile.

    Attributes:
        name: Application name (the generated class's ``name``).
        fields: Ordered field declarations (``make_state`` emits them in
            this order, so inits may reference earlier fields).
        phases: Ordered compute phases.  Push-direction steps run every
            ``frontier_push`` phase; pull-direction steps run every
            ``sparse_pull``/``dense_pull`` phase.  A staged program
            leaves it empty: it becomes every stage's phases, in order.
        sync: Synchronization pairings (endpoints derived, never given);
            a staged program's are every stage's wires.
        constants: ``(name, value)`` pairs bound in the generated
            module's namespace (e.g. ``("INFINITY", np.uint32(...))``).
        scalars: ``(state_key, source_expression)`` pairs for non-array
            state entries (``ctx`` mirrors, residual accumulators).
        imports: Extra import statements for the generated module (for
            kernels like ``feature_rows``).
        frontier: Initial frontier — ``"all"`` proxies or the
            ``"source"`` node only.
        residual: State key returned by the generated
            ``local_residual`` (topology-driven apps), or ``None``.
        converged: Optional ``(residual_sum, round_index, ctx) -> bool``
            global convergence test.
        wide_dim: Column-count expression bound as ``dim`` in
            ``make_state`` when any field is wide.
        endpoint_overrides: **Testing hook** — ``(wire_name, (writes,
            reads))`` pairs substituted for the derived endpoints, so the
            lint suite can prove ``repro lint`` catches a tampered
            contract.  Never set this in a real spec.
        stages: Ordered :class:`StageSpec` stages (empty: one stage made
            of ``phases``, ``sync`` and ``frontier``).  The generated
            class keeps the stage index in ``state["stage"]``.
    """

    name: str
    fields: Tuple[FieldDecl, ...]
    phases: Tuple[PhaseSpec, ...] = ()
    sync: Tuple[SyncDecl, ...] = ()
    constants: Tuple[Tuple[str, Any], ...] = ()
    scalars: Tuple[Tuple[str, str], ...] = ()
    imports: Tuple[str, ...] = ()
    frontier: str = "all"
    residual: Optional[str] = None
    converged: Optional[Callable] = None
    wide_dim: Optional[str] = None
    needs_weights: bool = False
    symmetrize_input: bool = False
    needs_global_degrees: bool = False
    needs_global_in_degrees: bool = False
    endpoint_overrides: Tuple[
        Tuple[str, Tuple[FrozenSet[str], FrozenSet[str]]], ...
    ] = ()
    stages: Tuple[StageSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.stages:
            phases = tuple(p for stage in self.stages for p in stage.phases)
            sync = tuple(d for stage in self.stages for d in stage.sync)
            if self.phases not in ((), phases) or self.sync not in ((), sync):
                raise CompileError(
                    f"{self.name}: a staged program declares its phases "
                    "and wires in its stages"
                )
            object.__setattr__(self, "phases", phases)
            object.__setattr__(self, "sync", sync)
        if not self.phases:
            raise CompileError(f"{self.name}: a program needs >= 1 phase")
        if not self.fields:
            raise CompileError(f"{self.name}: a program needs >= 1 field")
        for stage in self.stage_list:
            if stage.frontier not in ("all", "source"):
                raise CompileError(
                    f"{self.name}: frontier must be 'all' or 'source', not "
                    f"{stage.frontier!r}"
                )
        declared = {f.name for f in self.fields}
        if len(declared) != len(self.fields):
            raise CompileError(f"{self.name}: duplicate field declarations")
        scalar_keys = {key for key, _ in self.scalars}
        known = declared | scalar_keys
        by_name = {f.name: f for f in self.fields}
        for phase in self.phases:
            unknown = phase.referenced_fields() - known
            if unknown:
                raise CompileError(
                    f"{self.name}/{phase.name}: kernel references "
                    f"undeclared fields {sorted(unknown)}"
                )
            for target in phase.targets:
                if target not in declared:
                    raise CompileError(
                        f"{self.name}/{phase.name}: scatter target "
                        f"{target!r} is not a declared field"
                    )
        wire_names = set()
        for decl in self.sync:
            if decl.field not in declared:
                raise CompileError(
                    f"{self.name}: sync field {decl.field!r} undeclared"
                )
            if by_name[decl.field].reduce is None:
                raise CompileError(
                    f"{self.name}: sync field {decl.field!r} declares no "
                    "reduction"
                )
            if decl.broadcast is not None and decl.broadcast not in declared:
                raise CompileError(
                    f"{self.name}: broadcast field {decl.broadcast!r} "
                    "undeclared"
                )
            if decl.wire_name in wire_names:
                raise CompileError(
                    f"{self.name}: duplicate wire name {decl.wire_name!r}"
                )
            wire_names.add(decl.wire_name)
        if self.residual is not None and self.residual not in scalar_keys:
            raise CompileError(
                f"{self.name}: residual key {self.residual!r} is not a "
                "declared scalar"
            )
        if any(f.width is not None for f in self.fields) and not self.wide_dim:
            raise CompileError(
                f"{self.name}: wide fields need wide_dim= (the column "
                "count expression)"
            )
        for index, stage in enumerate(self.stages):
            where = f"{self.name}/{stage.name}"
            if not any(p.kind == "frontier_push" for p in stage.phases):
                raise CompileError(f"{where}: a stage ends when its frontier drains")
            if stage.counter is not None and stage.counter[0] not in scalar_keys:
                raise CompileError(f"{where}: counter {stage.counter[0]!r} is not a scalar")
            if (stage.enter is None) != (index == 0):
                raise CompileError(f"{where}: every stage but the first takes enter=")
        # Endpoints are derived, never declared — validate they derive
        # to something coherent for every synchronized field.
        derive_endpoints(self)

    # -- derived program shape (the generated class's flags) -----------------

    @property
    def operator_class(self) -> OperatorClass:
        """PULL iff every phase is topology-driven dense pull."""
        if all(p.kind == "dense_pull" for p in self.phases):
            return OperatorClass.PULL
        return OperatorClass.PUSH

    @property
    def supports_pull(self) -> bool:
        return any(p.kind in ("sparse_pull", "dense_pull") for p in self.phases)

    @property
    def uses_frontier(self) -> bool:
        return any(p.kind == "frontier_push" for p in self.phases)

    @property
    def needs_source(self) -> bool:
        """Whether ``ctx.source`` is read: a stage seeded by the source's
        frontier, or a field giving the source its own initial value."""
        return any(stage.frontier == "source" for stage in self.stage_list) or any(
            decl.source_value is not None for decl in self.fields
        )

    @property
    def empty_frontier_is_idle(self) -> bool:
        """An empty frontier leaves every push phase with no usable node:
        each gathers from the frontier itself (no ``select``) and, with no
        post lines, returns the empty outcome before its gather.  Every
        engine steps push over an empty frontier, and no stage counter
        advances in a single-stage program."""
        return self.uses_frontier and not self.stages and not any(
            p.select or p.post_gather or p.post_scatter
            for p in self.phases
            if p.kind == "frontier_push"
        )

    @property
    def iterate_locally(self) -> bool:
        """Chaotic local re-application is legal only for data-driven
        programs whose reductions are all idempotent (§2.3), and never
        for a staged one (its counters count rounds)."""
        if not self.uses_frontier or self.stages:
            return False
        by_name = {f.name: f for f in self.fields}
        return all(
            by_name[d.field].reduction.idempotent for d in self.sync
        )

    @property
    def supports_migration(self) -> bool:
        """One-shot per-proxy flags (post lines) pin proxies to hosts, and
        a staged program's stage index and counters are not per-node
        state: ``migrate_states`` would reset them to their initial values."""
        return not self.stages and not any(
            p.post_gather or p.post_scatter for p in self.phases
        )

    @property
    def stage_list(self) -> Tuple[StageSpec, ...]:
        """The ordered stages; a single-stage program is its own stage."""
        return self.stages or (
            StageSpec(self.name, self.phases, self.sync, self.frontier),
        )

    def field_decl(self, name: str) -> FieldDecl:
        for decl in self.fields:
            if decl.name == name:
                return decl
        raise KeyError(name)


def derive_phase_access(
    phase: PhaseSpec, field: str, read_surface: Optional[str] = None
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Derive one phase's ``(writes, reads)`` endpoints for ``field``.

    This is the per-phase core of :func:`derive_endpoints`, exported so
    a handwritten program can derive its ``FieldSpec`` endpoints from a
    declarative phase description instead of hand-writing location sets.
    """
    surface = read_surface if read_surface is not None else field
    writes = set()
    reads = set()
    if field in phase.targets:
        writes.add(phase.dest_endpoint)
    if surface in phase.reads_at_source():
        reads.add(phase.source_endpoint)
    if surface in phase.reads_at_destination():
        reads.add(phase.dest_endpoint)
    return frozenset(writes), frozenset(reads)


def derive_endpoints(
    spec: ProgramSpec,
) -> Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]]:
    """Derive every synchronized field's ``(writes, reads)`` endpoints.

    The union over phases — of every stage: a field one stage syncs and
    a later stage reads keeps those reads — of :func:`derive_phase_access`:
    writes where a phase scatters the field, reads where a phase consumes
    its read surface (the broadcast pair for derived broadcasts).  Raises
    :class:`CompileError` when a sync declaration derives an empty set:
    a field nothing writes needs no reduce, one nothing reads needs no
    broadcast, so an empty side means the spec's access sets are wrong.
    """
    overrides = dict(spec.endpoint_overrides)
    derived: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
    for decl in spec.sync:
        writes: set = set()
        reads: set = set()
        for phase in spec.phases:
            w, r = derive_phase_access(
                phase, decl.field, read_surface=decl.read_surface
            )
            writes |= w
            reads |= r
        if not writes:
            raise CompileError(
                f"{spec.name}: no phase writes sync field {decl.field!r} "
                "— the reduce would ship nothing"
            )
        if not reads:
            raise CompileError(
                f"{spec.name}: no phase reads {decl.read_surface!r} — "
                "the broadcast would feed nothing"
            )
        derived[decl.wire_name] = overrides.get(
            decl.wire_name, (frozenset(writes), frozenset(reads))
        )
    return derived
