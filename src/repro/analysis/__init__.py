"""Analysis layer: experiment harnesses, rendering, and contract checks.

`repro.analysis.experiments` regenerates the data behind every table and
figure in the paper's evaluation (§5); `repro.analysis.tables` renders the
rows the way the paper prints them.  The benchmark suite under
``benchmarks/`` is a thin pytest-benchmark wrapper over these functions.

The sync-contract checking layer (``repro lint`` / ``--sanitize``) also
lives here: :mod:`~repro.analysis.findings` (rule catalog),
:mod:`~repro.analysis.algebra` (reduction-law checker),
:mod:`~repro.analysis.linter` (orchestration: each target is a
``ProgramSpec``, checked against its compiled class),
:mod:`~repro.analysis.sanitizer` (runtime proxy-access sanitizer), and
:mod:`~repro.analysis.dataflow` (whole-program sync dataflow analyzer:
GL301 dead-sync elimination, GL302 phase fusion, GL304 static sync
hazards, GL305 tampered endpoints; and the stabilization certificates
that gate confined recovery).
"""

from repro.analysis.algebra import check_reduction, check_reductions
from repro.analysis.dataflow import (
    DataflowGraph,
    StabilizationCertificate,
    analyze_spec,
    certificate_for,
    dataflow_programs,
    dead_sync_table,
    fusion_candidates,
    graph_from_spec,
    kernel_is_monotone,
)
from repro.analysis.findings import (
    RULES,
    Finding,
    Rule,
    has_errors,
    render_json,
    render_text,
    severity_counts,
    sort_findings,
)
from repro.analysis.linter import (
    lint_app,
    lint_module_path,
    lint_programs,
    run_lint,
)
from repro.analysis.tables import format_table, geomean
from repro.analysis import experiments

__all__ = [
    "format_table",
    "geomean",
    "experiments",
    "RULES",
    "Rule",
    "Finding",
    "has_errors",
    "severity_counts",
    "sort_findings",
    "render_text",
    "render_json",
    "check_reduction",
    "check_reductions",
    "lint_app",
    "lint_module_path",
    "lint_programs",
    "run_lint",
    "DataflowGraph",
    "StabilizationCertificate",
    "analyze_spec",
    "certificate_for",
    "dataflow_programs",
    "dead_sync_table",
    "fusion_candidates",
    "graph_from_spec",
    "kernel_is_monotone",
]
