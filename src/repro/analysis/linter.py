"""Lint orchestration: resolve targets, run every checker, merge findings.

This is the engine behind ``repro lint``.  A *target* is a program
class the compiler generated from a
:class:`~repro.compiler.spec.ProgramSpec` (it carries that ``spec``);
targets come from

* a built-in app name (``--app bfs``);
* a module path (``--module my_programs.py``) — every ``ProgramSpec``
  bound at that file's top level (imported by name or defined there),
  compiled once each;
* nothing — all built-in applications (the CI sweep).

Each target is checked against its spec (:func:`lint_spec`), as
``dataflow.analyze_spec`` decides GL3xx, and the algebraic checker
runs over exactly the reduction ops the targets' fields reference (an
op shared by many programs is measured once).  A handwritten
:class:`~repro.apps.base.VertexProgram` has no spec to lint: it is
checked at run time by ``repro run --sanitize`` (GL201/GL202).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.algebra import check_reductions, rowwise_well_defined
from repro.analysis.findings import Finding
from repro.compiler.program_codegen import compile_program
from repro.compiler.spec import CompileError, ProgramSpec, derive_endpoints
from repro.errors import LintError


def resolve_app(name: str) -> List[type]:
    """The program behind one built-in app name."""
    from repro.apps import make_app

    try:
        return [type(make_app(name))]
    except ValueError as exc:
        raise LintError(str(exc)) from None


def resolve_module_path(path: str) -> List[type]:
    """Compile every ``ProgramSpec`` bound at a module file's top level."""
    spec = importlib.util.spec_from_file_location("repro_lint_target", path)
    if spec is None or spec.loader is None:
        raise LintError(f"cannot import module {path!r}")
    module = importlib.util.module_from_spec(spec)
    # Registered so dataclass machinery resolves.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise LintError(f"error importing {path!r}: {exc}") from exc
    # One entry per spec object: an alias (``DEFAULT = MY_SPEC``) is
    # linted once.  A spec imported by name is bound here too, so it is
    # linted with the module's own.
    specs = list({
        id(value): value for value in vars(module).values()
        if isinstance(value, ProgramSpec)
    }.values())
    if not specs:
        raise LintError(
            f"no ProgramSpec found in {path!r}: repro lint checks specs; "
            "check a handwritten VertexProgram at run time with the "
            "sanitizer (`repro run --sanitize`, or sanitize=True on its "
            "executor)"
        )
    try:
        return [
            type(compile_program(spec))
            for spec in sorted(specs, key=lambda s: s.name)
        ]
    except CompileError as exc:
        raise LintError(f"{path!r}: {exc}") from exc


def all_builtin_programs() -> List[Tuple[str, List[type]]]:
    """(app name, programs) for every built-in app, aliases collapsed."""
    from repro.apps import APP_BY_NAME

    seen: Dict[type, str] = {}
    resolved = []
    for name, cls in APP_BY_NAME.items():
        if cls in seen:
            continue
        seen[cls] = name
        resolved.append((name, resolve_app(name)))
    return resolved


def lint_spec(spec: ProgramSpec) -> List[Finding]:
    """GL001–GL011 decided from a compiled program's spec.

    Each sync wire's emitted endpoints (:func:`derive_endpoints`, which
    applies ``endpoint_overrides``) are compared with the ones its phases
    derive: a derived endpoint missing from the emitted set fires GL001
    (writes) or GL002 (reads), an emitted one no phase derives GL004 or
    GL005.  A phase target no wire carries fires GL003, a
    non-commutative reduction GL009, a wide field whose op is not
    row-wise well-defined GL011.
    """
    findings: List[Finding] = []

    def finding(rule_id, message, field_name, **details):
        findings.append(
            Finding(
                rule_id=rule_id,
                message=message,
                subject=spec.name,
                field_name=field_name,
                details=details,
            )
        )

    emitted = derive_endpoints(spec)
    derived = derive_endpoints(
        dataclasses.replace(spec, endpoint_overrides=())
    )
    for decl in spec.sync:
        wire = decl.wire_name
        for side, (name, verb, missing, extra, loss) in enumerate((
            ("writes", "write", "GL001", "GL004",
             "the reduce phase elides this update"),
            ("reads", "read", "GL002", "GL005",
             "the broadcast never refreshes this proxy"),
        )):
            have, need = emitted[wire][side], derived[wire][side]
            for endpoint in sorted(need - have):
                finding(
                    missing,
                    f"the phases {verb} at the {endpoint} endpoint but "
                    f"`{name}` declares only {sorted(have)} — {loss}",
                    wire,
                    endpoint=endpoint,
                )
            for endpoint in sorted(have - need):
                finding(
                    extra,
                    f"declared {verb} endpoint {endpoint!r} is derived by "
                    "no phase — the proxy set is wider than needed",
                    wire,
                    endpoint=endpoint,
                )
        field_decl = spec.field_decl(decl.field)
        op = field_decl.reduction
        if not op.commutative:
            finding(
                "GL009",
                f"reduction {op.name!r} is not commutative — results "
                "depend on the order peers are applied in",
                wire,
            )
        if field_decl.width is not None and not rowwise_well_defined(op):
            finding(
                "GL011",
                f"wide field {decl.field!r} reduced with {op.name!r}, whose "
                "combine is not row-wise well-defined — wide sync diverges "
                "from d per-column syncs",
                wire,
            )
    synced = {d.field for d in spec.sync} | {d.read_surface for d in spec.sync}
    for target in dict.fromkeys(t for p in spec.phases for t in p.targets):
        if target not in synced:
            finding(
                "GL003",
                f"{target!r} is a phase's scatter target but no sync wire "
                "carries it — cross-host updates to it are lost",
                target,
            )
    return findings


def lint_programs(programs: Iterable[type]) -> List[Finding]:
    """Spec + algebraic findings for a set of compiled program classes."""
    findings: List[Finding] = []
    referenced_ops = []
    seen_classes = set()
    for cls in programs:
        if cls in seen_classes:
            continue
        seen_classes.add(cls)
        spec = cls.spec
        findings.extend(lint_spec(spec))
        referenced_ops.extend(
            spec.field_decl(decl.field).reduction for decl in spec.sync
        )
    findings.extend(check_reductions(referenced_ops))
    return findings


def lint_app(name: str) -> List[Finding]:
    """Lint one built-in app by name."""
    return lint_programs(resolve_app(name))


def lint_module_path(path: str) -> List[Finding]:
    """Lint every ``ProgramSpec`` a module file binds."""
    return lint_programs(resolve_module_path(path))


def _resolve_targets(
    app: Optional[str], module: Optional[str]
) -> Tuple[List[str], List[type]]:
    """(target names, program classes) for one lint invocation."""
    if app is not None:
        return [app], resolve_app(app)
    if module is not None:
        return [module], resolve_module_path(module)
    names: List[str] = []
    programs: List[type] = []
    for name, app_programs in all_builtin_programs():
        names.append(name)
        programs.extend(app_programs)
    return names, programs


def run_lint(
    app: Optional[str] = None,
    module: Optional[str] = None,
    dataflow: bool = False,
) -> Tuple[List[str], List[Finding]]:
    """CLI entry: lint an app, a module, or every built-in.

    ``dataflow=True`` appends the GL3xx whole-program sweep
    (:func:`repro.analysis.dataflow.dataflow_programs`) — dead syncs,
    fusion opportunities, static sync hazards and tampered endpoints —
    to the per-program GL0xx/GL1xx findings.
    """
    if app is not None and module is not None:
        raise LintError("--app and --module are mutually exclusive")
    names, programs = _resolve_targets(app, module)
    findings = lint_programs(programs)
    if dataflow:
        from repro.analysis.dataflow import dataflow_programs

        findings.extend(dataflow_programs(programs))
    return names, findings
