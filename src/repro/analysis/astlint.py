"""Static lint pass over handwritten ``VertexProgram`` code.

The paper's C++ rendering of Gluon gets its sync contracts checked by the
type system: ``sync<WriteLocation, ReadLocation>`` is a template
instantiation, so a program that writes at an endpoint it never declared
does not compile.  The Python rendering declares the same contract as
data (:class:`~repro.core.sync_structures.FieldSpec` ``writes``/``reads``
sets), which the substrate silently *trusts* when it elides traffic — a
wrong declaration produces wrong answers, not errors.

A compiled program never comes here: its endpoints are derived from its
:class:`~repro.compiler.spec.ProgramSpec`, and :mod:`repro.analysis.linter`
checks it against that spec.  For handwritten programs (``repro lint
--module``) this module recovers a compile-time-style check by AST
analysis:

* ``make_state`` is scanned for state entries holding edge-endpoint
  arrays (e.g. pull-pagerank's pre-gathered ``edge_src``/``edge_dst``);
* ``make_fields`` is scanned for ``FieldSpec(...)`` declarations — which
  state arrays are synced, with which reduction and endpoint sets;
* the compute methods (``step`` and its helpers) are scanned for
  endpoint-indexed reads and writes of those arrays, using index
  *provenance*: the tuples returned by ``gather_frontier_edges`` carry
  (source, destination) roles, flipped when the traversed graph is a
  ``transpose()``, and the roles survive ``astype``/mask filtering.

The inferred endpoint sets are then checked against the declarations
(rules GL001-GL005), and the class-level flags (``supports_pull``,
``iterate_locally``, ``operator_class``) against the code shape
(GL006/GL007/GL010).  Whole-array and boolean-mask accesses carry no
endpoint information and are deliberately ignored — the pass
under-approximates, so everything it *does* flag is endpoint-derived.
"""

from __future__ import annotations

import ast
import inspect
import os
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.algebra import rowwise_well_defined
from repro.analysis.findings import Finding
from repro.core.sync_structures import LOCATIONS, REDUCTIONS, ReductionOp
from repro.errors import LintError

#: ``make_fields``' default endpoint declarations (FieldSpec defaults).
DEFAULT_WRITES = frozenset({"destination"})
DEFAULT_READS = frozenset({"source"})

#: Methods that are not part of the per-round compute phase.
NON_COMPUTE_METHODS = frozenset(
    {
        "__init__",
        "make_state",
        "make_fields",
        "initial_frontier",
        "local_residual",
        "is_globally_converged",
        "gather_master_values",
    }
)

#: numpy allocators whose first argument is the shape.
_SHAPE_ALLOCATORS = frozenset({"zeros", "ones", "empty", "full"})


@dataclass
class FieldDecl:
    """One ``FieldSpec(...)`` declaration recovered from ``make_fields``."""

    name: str
    values_key: Optional[str]
    broadcast_key: Optional[str]
    reduce_op: Optional[ReductionOp]
    #: Declared endpoint sets; ``None`` = declaration too dynamic to read.
    writes: Optional[frozenset]
    reads: Optional[frozenset]
    has_hook: bool
    lineno: int

    @property
    def read_surface_key(self) -> Optional[str]:
        """State key the compute phase reads (broadcast side)."""
        return self.broadcast_key if self.broadcast_key else self.values_key


@dataclass
class AccessEvent:
    """One endpoint-indexed access of a state array in compute code."""

    key: str
    endpoint: str
    kind: str  # "read" | "write"
    lineno: int
    method: str
    #: Line of the innermost enclosing statement — accesses sharing a
    #: statement are simultaneous (a gather feeding its own scatter),
    #: which the cross-phase hazard pass (GL304) must not order.
    statement: int = 0


@dataclass
class ProgramReport:
    """Everything the AST pass recovered from one program class."""

    cls: type
    file: Optional[str]
    fields: List[FieldDecl] = field(default_factory=list)
    events: List[AccessEvent] = field(default_factory=list)
    #: Provenance tags of make_state entries ("source"/"destination").
    state_tags: Dict[str, str] = field(default_factory=dict)
    #: State keys holding wide (n, d) row matrices (2-D allocations).
    wide_keys: Set[str] = field(default_factory=set)
    has_pull_path: bool = False
    compares_pull: bool = False
    gathers_forward: bool = False
    gathers_transpose: bool = False
    class_lineno: int = 0


def _class_ast(cls: type) -> Tuple[ast.ClassDef, Optional[str]]:
    """Parse the class source with absolute line numbers."""
    try:
        source_lines, start = inspect.getsourcelines(cls)
        filename = inspect.getsourcefile(cls)
    except (OSError, TypeError) as exc:
        raise LintError(f"cannot read source of {cls.__qualname__}: {exc}") from exc
    tree = ast.parse(textwrap.dedent("".join(source_lines)))
    ast.increment_lineno(tree, start - 1)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            return node, filename
    raise LintError(f"no class definition found for {cls.__qualname__}")


def _relpath(filename: Optional[str]) -> Optional[str]:
    if filename is None:
        return None
    try:
        rel = os.path.relpath(filename)
    except ValueError:
        return filename
    return filename if rel.startswith("..") else rel


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_transpose_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "transpose"
    )


def _is_scatter_call(node: ast.AST) -> bool:
    """``np.<ufunc>.at(array, indices, values)`` — a scatter-combine."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "at"
        and len(node.args) >= 2
    )


def _resolve_locations(node: ast.AST, module_globals: Dict) -> Optional[frozenset]:
    """Evaluate a literal-ish ``writes=``/``reads=`` declaration."""
    if isinstance(node, ast.Set):
        items = [_const_str(e) for e in node.elts]
        if all(items):
            return frozenset(items)
        return None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
        and len(node.args) == 1
    ):
        return _resolve_locations(node.args[0], module_globals)
    if isinstance(node, (ast.List, ast.Tuple)):
        items = [_const_str(e) for e in node.elts]
        if all(items):
            return frozenset(items)
        return None
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None:
        value = module_globals.get(name)
        if isinstance(value, (set, frozenset)) and value <= LOCATIONS:
            return frozenset(value)
    return None


def _resolve_reduce_op(
    node: ast.AST, module_globals: Dict
) -> Optional[ReductionOp]:
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return None
    value = module_globals.get(name)
    if isinstance(value, ReductionOp):
        return value
    return REDUCTIONS.get(name.lower())


def _statement_map(root: ast.AST) -> Dict[int, int]:
    """``id(node) -> lineno`` of each node's innermost enclosing statement."""
    mapping: Dict[int, int] = {}

    def visit(node: ast.AST, stmt_lineno: int) -> None:
        if isinstance(node, ast.stmt):
            stmt_lineno = node.lineno
        mapping[id(node)] = stmt_lineno
        for child in ast.iter_child_nodes(node):
            visit(child, stmt_lineno)

    visit(root, getattr(root, "lineno", 0))
    return mapping


class _MethodScanner:
    """Ordered walk of one method body, tracking index provenance.

    ``tags`` maps local names to the edge endpoint ("source" /
    "destination", in the graph's *original* orientation) their integer
    index arrays address; ``keys`` maps local names to the state-dict
    key of the array they alias; ``transposed`` marks graph-valued
    locals obtained via ``.transpose()``.
    """

    def __init__(self, report: ProgramReport, method: ast.FunctionDef):
        self.report = report
        self.method = method
        self.tags: Dict[str, str] = {}
        self.keys: Dict[str, str] = {}
        self.transposed: Set[str] = set()
        self.dict_names: Set[str] = set()
        self._stmts = _statement_map(method)

    def _stmt_of(self, node: ast.AST) -> int:
        """Line of the innermost statement enclosing ``node``."""
        return self._stmts.get(id(node), getattr(node, "lineno", 0))

    # -- provenance resolution ---------------------------------------------

    def _tag(self, node: ast.AST) -> Optional[str]:
        """Endpoint tag of an index-array expression, if any."""
        if isinstance(node, ast.Name):
            if node.id == "state":
                return None
            return self.tags.get(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("astype", "copy"):
                return self._tag(node.func.value)
            return None
        if isinstance(node, ast.Subscript):
            # ``state["edge_src"]`` loads an endpoint array make_state
            # pre-gathered (pull pagerank); the tag travels with it.
            key = self._key(node)
            if key is not None and key in self.report.state_tags:
                return self.report.state_tags[key]
            base = self._tag(node.value)
            if base is not None and self._tag(node.slice) is None:
                # Filtering a tagged index array by a mask keeps the tag
                # (e.g. ``dst[accept]``); indexing by another endpoint
                # array is a value gather, not an index array.
                return base
        return None

    def _key(self, node: ast.AST) -> Optional[str]:
        """State-dict key of an array expression, if it aliases one."""
        if isinstance(node, ast.Name):
            return self.keys.get(node.id)
        if isinstance(node, ast.Subscript):
            if isinstance(node.value, ast.Name) and (
                node.value.id == "state" or node.value.id in self.dict_names
            ):
                return _const_str(node.slice)
        return None

    def _is_gather(self, node: ast.AST) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name):
            return func.id == "gather_frontier_edges"
        if isinstance(func, ast.Attribute):
            return func.attr == "gather_frontier_edges"
        return False

    def _gather_roles(self, call: ast.Call) -> Tuple[str, str]:
        """(first, second) return roles in the original orientation."""
        transposed = False
        if call.args:
            graph = call.args[0]
            if _is_transpose_call(graph):
                transposed = True
            elif isinstance(graph, ast.Name) and graph.id in self.transposed:
                transposed = True
        if transposed:
            self.report.gathers_transpose = True
            return ("destination", "source")
        self.report.gathers_forward = True
        return ("source", "destination")

    # -- event recording ----------------------------------------------------

    def _record(self, key: Optional[str], endpoint: Optional[str], kind: str,
                lineno: int, statement: int = 0) -> None:
        if key is None or endpoint is None:
            return
        self.report.events.append(
            AccessEvent(
                key=key,
                endpoint=endpoint,
                kind=kind,
                lineno=lineno,
                method=self.method.name,
                statement=statement or lineno,
            )
        )

    def _scan_reads(self, node: ast.AST) -> None:
        """Record every endpoint-indexed load inside ``node``."""
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.ctx, ast.Load)
            ):
                self._record(
                    self._key(sub.value),
                    self._tag(sub.slice),
                    "read",
                    sub.lineno,
                    statement=self._stmt_of(sub),
                )

    # -- statement dispatch --------------------------------------------------

    def scan(self) -> None:
        if self.method.name == "step":
            for arg in self.method.args.args:
                if arg.arg != "direction":
                    continue
                defaults = self.method.args.defaults
                offset = len(self.method.args.args) - len(defaults)
                index = self.method.args.args.index(arg) - offset
                if 0 <= index < len(defaults):
                    if _const_str(defaults[index]) == "pull":
                        self.report.has_pull_path = True
        for stmt in ast.walk(self.method):
            if isinstance(stmt, ast.Assign):
                self._scan_assign(stmt)
            elif isinstance(stmt, ast.AugAssign):
                self._scan_augassign(stmt)
            elif isinstance(stmt, ast.Call):
                self._scan_call(stmt)
            elif isinstance(stmt, ast.Compare):
                self._scan_compare(stmt)
        # With the environments built, record every endpoint-indexed
        # load in one pass (each Subscript node is visited exactly once).
        self._scan_reads(self.method)

    def _scan_assign(self, stmt: ast.Assign) -> None:
        value = stmt.value
        if isinstance(value, ast.Call) and self._is_gather(value):
            roles = self._gather_roles(value)
            for target in stmt.targets:
                if isinstance(target, ast.Tuple) and len(target.elts) >= 2:
                    for element, role in zip(target.elts[:2], roles):
                        if isinstance(element, ast.Name):
                            self.tags[element.id] = role
            return
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "edges"
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Tuple) and len(target.elts) >= 2:
                    for element, role in zip(
                        target.elts[:2], ("source", "destination")
                    ):
                        if isinstance(element, ast.Name):
                            self.tags[element.id] = role
            return
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                if _is_transpose_call(value):
                    self.transposed.add(target.id)
                if isinstance(value, ast.Dict):
                    self.dict_names.add(target.id)
                tag = self._tag(value)
                if tag is not None:
                    self.tags[target.id] = tag
                else:
                    self.tags.pop(target.id, None)
                key = self._key(value)
                if key is not None:
                    self.keys[target.id] = key
                elif not isinstance(value, ast.Name):
                    self.keys.pop(target.id, None)
            elif isinstance(target, ast.Subscript):
                self._record(
                    self._key(target.value),
                    self._tag(target.slice),
                    "write",
                    target.lineno,
                    statement=stmt.lineno,
                )

    def _scan_augassign(self, stmt: ast.AugAssign) -> None:
        if isinstance(stmt.target, ast.Subscript):
            self._record(
                self._key(stmt.target.value),
                self._tag(stmt.target.slice),
                "write",
                stmt.target.lineno,
                statement=stmt.lineno,
            )

    def _scan_call(self, call: ast.Call) -> None:
        if _is_scatter_call(call):
            self._record(
                self._key(call.args[0]),
                self._tag(call.args[1]),
                "write",
                call.lineno,
                statement=self._stmt_of(call),
            )

    def _scan_compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(_const_str(op) == "pull" for op in operands):
            self.report.compares_pull = True
            self.report.has_pull_path = True


class _MakeStateScanner(_MethodScanner):
    """``make_state`` scan: which state keys hold endpoint arrays.

    Also recovers which keys hold *wide* (n, d) row matrices — 2-D
    allocations and arrays shaped like them — so the reporter can check
    their reductions row-wise (GL011).
    """

    def __init__(self, report: ProgramReport, method: ast.FunctionDef):
        super().__init__(report, method)
        self.wide_locals: Set[str] = set()

    def scan(self) -> None:
        for stmt in ast.walk(self.method):
            if isinstance(stmt, ast.Assign):
                self._scan_assign(stmt)
                if isinstance(stmt.value, ast.Dict):
                    self._scan_dict(stmt.value)
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and self._is_wide(
                        stmt.value
                    ):
                        self.wide_locals.add(target.id)
                    elif isinstance(target, ast.Subscript):
                        key = _const_str(target.slice)
                        if key is None:
                            continue
                        tag = self._tag(stmt.value)
                        if tag is not None:
                            self.report.state_tags[key] = tag
                        if self._is_wide(stmt.value):
                            self.report.wide_keys.add(key)
            elif isinstance(stmt, ast.Return) and isinstance(
                stmt.value, ast.Dict
            ):
                self._scan_dict(stmt.value)

    def _scan_dict(self, node: ast.Dict) -> None:
        for key_node, value_node in zip(node.keys, node.values):
            key = _const_str(key_node) if key_node is not None else None
            if key is None:
                continue
            tag = self._tag(value_node)
            if tag is not None:
                self.report.state_tags[key] = tag
            if self._is_wide(value_node):
                self.report.wide_keys.add(key)

    def _is_wide(self, node: ast.AST) -> bool:
        """Whether an expression produces a wide (n, d) row matrix."""
        if isinstance(node, ast.Name):
            return node.id in self.wide_locals
        if not isinstance(node, ast.Call):
            return False
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name in _SHAPE_ALLOCATORS:
            return bool(
                node.args
                and isinstance(node.args[0], ast.Tuple)
                and len(node.args[0].elts) >= 2
            )
        if func_name in ("zeros_like", "empty_like", "ones_like", "full_like"):
            return bool(node.args) and self._is_wide(node.args[0])
        if func_name in ("astype", "copy") and isinstance(
            node.func, ast.Attribute
        ):
            return self._is_wide(node.func.value)
        return False


def _scan_make_fields(
    report: ProgramReport, method: ast.FunctionDef, module_globals: Dict
) -> None:
    """Recover the ``FieldSpec(...)`` declarations."""
    scanner = _MethodScanner(report, method)
    for stmt in ast.walk(method):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    key = scanner._key(stmt.value)
                    if key is not None:
                        scanner.keys[target.id] = key
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name != "FieldSpec":
            continue
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        positional = {0: "name", 1: "values", 2: "reduce_op"}
        for index, arg in enumerate(node.args):
            kwargs.setdefault(positional.get(index, f"arg{index}"), arg)
        name_node = kwargs.get("name")
        writes = DEFAULT_WRITES
        reads = DEFAULT_READS
        if "writes" in kwargs:
            writes = _resolve_locations(kwargs["writes"], module_globals)
        if "reads" in kwargs:
            reads = _resolve_locations(kwargs["reads"], module_globals)
        report.fields.append(
            FieldDecl(
                name=_const_str(name_node) or f"<field@{node.lineno}>",
                values_key=(
                    scanner._key(kwargs["values"])
                    if "values" in kwargs
                    else None
                ),
                broadcast_key=(
                    scanner._key(kwargs["broadcast_values"])
                    if "broadcast_values" in kwargs
                    else None
                ),
                reduce_op=(
                    _resolve_reduce_op(kwargs["reduce_op"], module_globals)
                    if "reduce_op" in kwargs
                    else None
                ),
                writes=writes,
                reads=reads,
                has_hook="on_master_after_reduce" in kwargs,
                lineno=node.lineno,
            )
        )


def _mro_methods(cls: type) -> Tuple[Dict[str, Tuple[ast.FunctionDef, Dict]],
                                     Optional[str], int]:
    """Methods of ``cls`` with inherited bodies, most-derived wins.

    Programs may share their skeleton through a base class (the broken
    fixtures inherit ``make_state``); the pass must see the *effective*
    method set, each paired with the globals of its defining module
    (reduction-op and location names resolve there).  Returns (methods,
    file of the concrete class, its line number).
    """
    import sys

    methods: Dict[str, Tuple[ast.FunctionDef, Dict]] = {}
    filename: Optional[str] = None
    class_lineno = 0
    from repro.apps.base import VertexProgram

    for ancestor in reversed(cls.__mro__):
        if ancestor in (object, VertexProgram) or not issubclass(
            ancestor, VertexProgram
        ):
            continue
        try:
            class_node, ancestor_file = _class_ast(ancestor)
        except LintError:
            if ancestor is cls:
                raise
            continue
        module_globals = (
            vars(sys.modules.get(ancestor.__module__, object())) or {}
        )
        for node in class_node.body:
            if isinstance(node, ast.FunctionDef):
                methods[node.name] = (node, module_globals)
        if ancestor is cls:
            filename = ancestor_file
            class_lineno = class_node.lineno
    return methods, filename, class_lineno


def analyze_program(cls: type) -> ProgramReport:
    """Run the full AST pass over one concrete vertex program class."""
    methods, filename, class_lineno = _mro_methods(cls)
    report = ProgramReport(cls=cls, file=_relpath(filename))
    report.class_lineno = class_lineno
    if "make_state" in methods:
        _MakeStateScanner(report, methods["make_state"][0]).scan()
    if "make_fields" in methods:
        node, module_globals = methods["make_fields"]
        _scan_make_fields(report, node, module_globals)
    for name, (node, _) in methods.items():
        if name in NON_COMPUTE_METHODS:
            continue
        # State entries holding endpoint arrays seed the provenance:
        # ``src = state["edge_src"]`` tags ``src`` with its role.
        _MethodScanner(report, node).scan()
    if "_step_pull" in methods:
        report.has_pull_path = True
    _apply_state_tags(report)
    return report


def _apply_state_tags(report: ProgramReport) -> None:
    """Re-tag events on state keys that hold endpoint index arrays.

    ``step`` loads like ``src = state["edge_src"]`` produce *reads* of
    the tagged key rather than index provenance; drop those pseudo-events
    and let a second scan pick up accesses indexed through them.
    """
    if not report.state_tags:
        return
    report.events = [
        event for event in report.events if event.key not in report.state_tags
    ]


def report_findings(report: ProgramReport) -> List[Finding]:
    """Turn a :class:`ProgramReport` into catalog findings."""
    cls = report.cls
    findings: List[Finding] = []
    subject = cls.__name__

    def finding(rule_id, message, lineno=None, field_name=None, **details):
        findings.append(
            Finding(
                rule_id=rule_id,
                message=message,
                subject=subject,
                file=report.file,
                line=lineno or report.class_lineno,
                field_name=field_name,
                details=details,
            )
        )

    synced_keys = set()
    for decl in report.fields:
        for key in (decl.values_key, decl.broadcast_key):
            if key is not None:
                synced_keys.add(key)

    # -- per-field endpoint checks (GL001/GL002/GL004/GL005) ----------------
    for decl in report.fields:
        write_events = [
            e for e in report.events
            if e.kind == "write" and e.key == decl.values_key
        ]
        read_events = [
            e for e in report.events
            if e.kind == "read" and e.key == decl.read_surface_key
        ]
        inferred_writes = {e.endpoint for e in write_events}
        inferred_reads = {e.endpoint for e in read_events}
        if decl.writes is not None:
            for event in write_events:
                if event.endpoint not in decl.writes:
                    finding(
                        "GL001",
                        f"step writes at the {event.endpoint} endpoint "
                        f"({event.method}) but `writes` declares only "
                        f"{sorted(decl.writes)} — the reduce phase elides "
                        "this update",
                        lineno=event.lineno,
                        field_name=decl.name,
                        endpoint=event.endpoint,
                    )
            if inferred_writes:
                for endpoint in sorted(decl.writes - inferred_writes):
                    finding(
                        "GL004",
                        f"declared write endpoint {endpoint!r} is never "
                        "written by the step — the reduce proxy set is "
                        "wider than needed",
                        lineno=decl.lineno,
                        field_name=decl.name,
                        endpoint=endpoint,
                    )
        if decl.reads is not None:
            for event in read_events:
                if event.endpoint not in decl.reads:
                    finding(
                        "GL002",
                        f"step reads at the {event.endpoint} endpoint "
                        f"({event.method}) but `reads` declares only "
                        f"{sorted(decl.reads)} — the broadcast never "
                        "refreshes this proxy",
                        lineno=event.lineno,
                        field_name=decl.name,
                        endpoint=event.endpoint,
                    )
            if inferred_reads:
                for endpoint in sorted(decl.reads - inferred_reads):
                    finding(
                        "GL005",
                        f"declared read endpoint {endpoint!r} is never "
                        "read through an endpoint index — possibly wider "
                        "than needed (frontier-mask reads are invisible "
                        "to this pass)",
                        lineno=decl.lineno,
                        field_name=decl.name,
                        endpoint=endpoint,
                    )
        # -- reduction-declaration checks (GL007/GL008/GL009/GL011) ---------
        if decl.reduce_op is not None:
            if (
                decl.values_key in report.wide_keys
                and not rowwise_well_defined(decl.reduce_op)
            ):
                finding(
                    "GL011",
                    f"wide field over state[{decl.values_key!r}] reduced "
                    f"with {decl.reduce_op.name!r}, whose combine is not "
                    "row-wise well-defined — combining (n, d) rows mixes "
                    "columns, so wide sync diverges from d per-column "
                    "syncs",
                    lineno=decl.lineno,
                    field_name=decl.name,
                )
            if cls.iterate_locally and not decl.reduce_op.idempotent:
                finding(
                    "GL007",
                    f"iterate_locally=True with the non-idempotent "
                    f"{decl.reduce_op.name!r} reduction — an asynchronous "
                    "engine re-applies contributions within one round "
                    "(double counting)",
                    lineno=decl.lineno,
                    field_name=decl.name,
                )
            if not decl.reduce_op.commutative:
                finding(
                    "GL009",
                    f"reduction {decl.reduce_op.name!r} is not commutative "
                    "— results depend on the order peers are applied in",
                    lineno=decl.lineno,
                    field_name=decl.name,
                )
        if decl.has_hook and decl.broadcast_key is None:
            finding(
                "GL008",
                "on_master_after_reduce on a field whose broadcast_values "
                "is values — the folded value feeds back into the next "
                "reduce phase",
                lineno=decl.lineno,
                field_name=decl.name,
            )

    # -- unsynced endpoint writes (GL003) -----------------------------------
    flagged: Set[str] = set()
    for event in report.events:
        if event.kind != "write" or event.key in synced_keys:
            continue
        if event.key in flagged:
            continue
        flagged.add(event.key)
        finding(
            "GL003",
            f"state[{event.key!r}] is scattered to the {event.endpoint} "
            f"endpoint ({event.method}) but never returned from "
            "make_fields — cross-host updates to it are lost "
            "(unsynced-write race)",
            lineno=event.lineno,
            field_name=event.key,
        )

    # -- class-flag checks (GL006/GL010) ------------------------------------
    if cls.supports_pull and not report.has_pull_path:
        finding(
            "GL006",
            "supports_pull=True but the step has no pull path — Ligra's "
            "direction optimization will call a direction the program "
            "rejects",
        )
    elif not cls.supports_pull and report.compares_pull:
        finding(
            "GL006",
            "the step handles a 'pull' direction but supports_pull=False "
            "— the pull path is dead code the engines never take",
        )
    from repro.partition.strategy import OperatorClass

    if (
        cls.operator_class is OperatorClass.PULL
        and report.gathers_forward
        and not report.gathers_transpose
    ):
        finding(
            "GL010",
            "operator_class=PULL but the step only gathers forward "
            "(out-)edges — a push-shaped operator; strategy legality "
            "checks are mis-steered",
        )
    return findings
