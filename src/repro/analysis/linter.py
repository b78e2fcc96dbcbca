"""Lint orchestration: resolve targets, run every checker, merge findings.

This is the engine behind ``repro lint``.  A *target* is a concrete
:class:`~repro.apps.base.VertexProgram` subclass (one that defines its
own ``step`` and ``make_fields``); targets come from

* a built-in app name (``--app bfs``) — for a spec app the class the
  compiler generated (its source lives in :mod:`linecache`), for a
  composite app like bc the forward/backward phase programs its module
  contributes;
* a module path (``--module my_programs.py``) — every concrete program
  defined in that file;
* nothing — all built-in applications (the CI sweep; for the spec
  apps this *is* the compiler's verification loop over generated code).

For each target the static AST pass runs, plus the algebraic checker
over exactly the reduction ops the target's fields reference (registry
ops are assumed checked elsewhere only in the sense that duplicates are
collapsed — an op shared by many programs is measured once).
"""

from __future__ import annotations

import importlib.util
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.algebra import check_reductions
from repro.analysis.astlint import analyze_program, report_findings
from repro.analysis.findings import Finding
from repro.apps.base import VertexProgram
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
    """Programs behind one built-in app name.

    For a composite app (bc's two-phase driver) the facade class itself
    is not concrete; the phase programs living in its module are linted
    in its place.
    """
    from repro.apps import make_app

    try:
        cls = type(make_app(name))
    except ValueError as exc:
        raise LintError(str(exc)) from None
    module = sys.modules[cls.__module__]
    programs = _programs_in_module(module)
    if not programs:
        raise LintError(
            f"app {name!r} has no concrete vertex program to lint"
        )
    return programs


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


def lint_programs(programs: Iterable[type]) -> List[Finding]:
    """Static + algebraic findings for a set of program classes."""
    findings: List[Finding] = []
    referenced_ops = []
    seen_classes = set()
    for cls in programs:
        if cls in seen_classes:
            continue
        seen_classes.add(cls)
        report = analyze_program(cls)
        findings.extend(report_findings(report))
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


def lint_all_apps() -> Tuple[List[str], List[Finding]]:
    """Lint every built-in app; returns (target names, findings)."""
    programs: List[type] = []
    names: List[str] = []
    for name, app_programs in all_builtin_programs():
        names.append(name)
        programs.extend(app_programs)
    return names, lint_programs(programs)


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
