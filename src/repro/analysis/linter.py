"""Lint orchestration: resolve targets, run every checker, merge findings.

This is the engine behind ``repro lint``.  A *target* is a concrete
:class:`~repro.apps.base.VertexProgram` subclass (one that defines its
own ``step`` and ``make_fields``); targets come from

* a built-in app name (``--app bfs``) — the class the compiler
  generated from its spec;
* a module path (``--module my_programs.py``) — every concrete program
  defined in that file;
* nothing — all built-in applications (the CI sweep).

A compiled program (one carrying its ``spec``) is checked against that
spec (:func:`lint_spec`), as ``dataflow.analyze_class`` decides GL3xx;
a handwritten one goes through the AST pass
(:mod:`repro.analysis.astlint`).  Either way the algebraic checker
runs over exactly the reduction ops the targets' fields reference (an
op shared by many programs is measured once).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import astlint
from repro.analysis.algebra import check_reductions, rowwise_well_defined
from repro.analysis.findings import Finding
from repro.apps.base import VertexProgram
from repro.compiler.spec import ProgramSpec, derive_endpoints
from repro.errors import LintError


def is_concrete_program(cls: type) -> bool:
    """A lintable program: defines its own ``step`` and ``make_fields``."""
    if not (isinstance(cls, type) and issubclass(cls, VertexProgram)):
        return False
    if cls is VertexProgram:
        return False
    return (
        cls.step is not VertexProgram.step
        and cls.make_fields is not VertexProgram.make_fields
    )


def _programs_in_module(module) -> List[type]:
    """Concrete programs *defined* in ``module`` (not just imported)."""
    programs = []
    for value in vars(module).values():
        if (
            is_concrete_program(value)
            and value.__module__ == module.__name__
        ):
            programs.append(value)
    programs.sort(key=lambda cls: cls.__qualname__)
    return programs


def resolve_app(name: str) -> List[type]:
    """The program behind one built-in app name."""
    from repro.apps import make_app

    try:
        return [type(make_app(name))]
    except ValueError as exc:
        raise LintError(str(exc)) from None


def resolve_module_path(path: str) -> List[type]:
    """Concrete programs defined in a user module file."""
    spec = importlib.util.spec_from_file_location("repro_lint_target", path)
    if spec is None or spec.loader is None:
        raise LintError(f"cannot import module {path!r}")
    module = importlib.util.module_from_spec(spec)
    # Registered so inspect.getsource and dataclass machinery resolve.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise LintError(f"error importing {path!r}: {exc}") from exc
    programs = _programs_in_module(module)
    if not programs:
        raise LintError(f"no concrete vertex programs found in {path!r}")
    return programs


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
    row-wise well-defined GL011.  GL006/GL007/GL008/GL010 cannot fire:
    the spec derives the class flags, and ``SyncDecl`` refuses a hook
    without a broadcast array.
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
    """Static + algebraic findings for a set of program classes."""
    findings: List[Finding] = []
    referenced_ops = []
    seen_classes = set()
    for cls in programs:
        if cls in seen_classes:
            continue
        seen_classes.add(cls)
        spec = getattr(cls, "spec", None)
        if isinstance(spec, ProgramSpec):
            findings.extend(lint_spec(spec))
            referenced_ops.extend(
                spec.field_decl(decl.field).reduction for decl in spec.sync
            )
            continue
        report = astlint.analyze_program(cls)
        findings.extend(astlint.report_findings(report))
        for decl in report.fields:
            if decl.reduce_op is not None:
                referenced_ops.append(decl.reduce_op)
    findings.extend(check_reductions(referenced_ops))
    return findings


def lint_app(name: str) -> List[Finding]:
    """Lint one built-in app by name."""
    return lint_programs(resolve_app(name))


def lint_module_path(path: str) -> List[Finding]:
    """Lint every concrete program defined in a module file."""
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
    fusion opportunities, stabilization mismatches, and static sync
    hazards — to the per-program GL0xx/GL1xx findings.
    """
    if app is not None and module is not None:
        raise LintError("--app and --module are mutually exclusive")
    names, programs = _resolve_targets(app, module)
    findings = lint_programs(programs)
    if dataflow:
        from repro.analysis.dataflow import dataflow_programs

        findings.extend(dataflow_programs(programs))
    return names, findings
