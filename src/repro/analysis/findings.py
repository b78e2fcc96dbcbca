"""Sync-contract findings: rule catalog, severities, and rendering.

Every check in the contract-checking layer — the static lint pass
(:mod:`repro.analysis.linter`: a compiled program against its spec),
the algebraic reduction checker (:mod:`repro.analysis.algebra`), and
the runtime proxy-access sanitizer (:mod:`repro.analysis.sanitizer`) —
reports through the same machine-readable :class:`Finding` shape: a
rule ID from the catalog below, a severity, a human message, and a
``file:line`` anchor when one is known (the sanitizer's, at the
offending access; static findings name the spec and wire instead).

The catalog is the contract: each rule guards one invariant the Gluon
substrate silently *relies on* when it elides communication (the
``WriteAtDestination``/``ReadAtSource`` parameters of Figure 4 and the
reduction-operator properties of §3.3).  A violated rule produces wrong
answers, not errors — which is exactly why the checks exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


#: Severity order, most severe first (``error`` gates CI).
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Rule:
    """One contract rule: identifier, default severity, invariant."""

    rule_id: str
    severity: str
    title: str
    #: The paper invariant the rule guards (anchors the DESIGN.md table).
    invariant: str


#: The sync-contract rule catalog.  GL0xx = static lint, GL1xx =
#: algebraic reduction laws, GL2xx = runtime sanitizer, GL3xx =
#: whole-program dataflow analyzer (:mod:`repro.analysis.dataflow`).
RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "GL001", "error", "endpoint-write-mismatch",
            "§3.2: a field written at an edge endpoint not in its "
            "declared `writes` is elided from the reduce phase — the "
            "update never reaches the master.",
        ),
        Rule(
            "GL002", "error", "endpoint-read-mismatch",
            "§3.2: a field read at an edge endpoint not in its declared "
            "`reads` never receives the broadcast — the proxy reads a "
            "stale mirror value.",
        ),
        Rule(
            "GL003", "error", "unsynced-write",
            "Figure 5: a state array scattered to edge endpoints but "
            "absent from `make_fields` is never synchronized — a lost "
            "cross-host update (unsynced-write race).",
        ),
        Rule(
            "GL004", "warning", "over-declared-write",
            "§3.2: a declared write endpoint the step never uses widens "
            "the reduce proxy set — correct, but pays avoidable traffic.",
        ),
        Rule(
            "GL005", "info", "over-declared-read",
            "§3.2: a declared read endpoint the step never uses widens "
            "the broadcast proxy set — correct, but pays avoidable "
            "traffic (reads through frontier masks are invisible to the "
            "linter, so this stays informational).",
        ),
        Rule(
            "GL009", "warning", "noncommutative-reduce",
            "§3.3: peers are applied in ascending host order, so a "
            "non-commutative reduction makes the answer depend on the "
            "partitioning.",
        ),
        Rule(
            "GL011", "error", "non-rowwise-reduction",
            "Wide fields: a 2-D (n, d) field is reduced row by row, so "
            "its operator must act independently per column — "
            "combine on a matrix must equal the column-stacked combines. "
            "A row-mixing operator gives different answers for wide and "
            "per-column sync.",
        ),
        Rule(
            "GL101", "error", "identity-violation",
            "§3.3: the substrate seeds fresh proxies with the declared "
            "identity; if combine(identity, x) != x the first reduce "
            "corrupts the value.",
        ),
        Rule(
            "GL102", "error", "false-idempotence",
            "§2.3: `idempotent=True` lets mirrors keep their value at "
            "reset; if combine(a, a) != a the kept value is re-applied — "
            "double counting.",
        ),
        Rule(
            "GL103", "error", "false-commutativity",
            "§3.3: `commutative=True` promises peer-order independence; "
            "an order-dependent combine breaks determinism across host "
            "counts.",
        ),
        Rule(
            "GL104", "info", "undeclared-idempotence",
            "§2.3: combine measures idempotent but is declared "
            "non-idempotent — mirrors are reset to the identity "
            "needlessly (correct, but re-broadcasts kept values).",
        ),
        Rule(
            "GL301", "info", "dead-sync-elimination",
            "§3.1/§3.2: under the resolved partitioning strategy the "
            "wire's read surface is never consumed before its next write "
            "(e.g. no mirror has out-edges under OEC, so a source-read "
            "broadcast refreshes values nothing will read) — the sync "
            "phase can be dropped with bitwise-identical results.",
        ),
        Rule(
            "GL302", "info", "phase-fusion",
            "§3.2: consecutive phases share a gather over the same edge "
            "orientation with no intervening remote write, so one pass "
            "over the edges can drive both scatters — a redundant "
            "broadcast/gather the compiler can fuse away.",
        ),
        Rule(
            "GL304", "error", "static-sync-hazard",
            "§3.2 (compile time): one phase reads a field at a "
            "remote-visible endpoint that an earlier phase in the same "
            "round wrote without an intervening sync (stale-mirror "
            "read), or two phases scatter-write the same field at "
            "different endpoints (cross-phase write-write race) — the "
            "static complement of the GL201/GL202 runtime sanitizer.",
        ),
        Rule(
            "GL305", "warning", "tampered-endpoints",
            "§3.2: the spec carries `endpoint_overrides`, so its sync "
            "endpoints are pinned by hand instead of derived from the "
            "phase pipeline — every downstream proof (dead-sync, "
            "fusion, certificates) is void for this program.",
        ),
        Rule(
            "GL201", "error", "lost-update",
            "§3.2 (runtime): a mirror outside the declared-write proxy "
            "set was written during compute; the reduce phase will never "
            "carry that update to the master.",
        ),
        Rule(
            "GL202", "error", "stale-read",
            "§3.2 (runtime): a mirror outside the declared-read proxy "
            "set was read after a sync round; the broadcast phase never "
            "refreshes it, so the compute saw a stale value.",
        ),
    )
}


@dataclass
class Finding:
    """One reported contract violation (machine-readable)."""

    rule_id: str
    message: str
    #: Program (VertexProgram subclass) or reduction op the finding is on.
    subject: str
    #: Source anchor, when one is known.
    file: Optional[str] = None
    line: Optional[int] = None
    #: Field name, when the finding is about one synchronized field.
    field_name: Optional[str] = None
    #: Extra rule-specific context (host/round for sanitizer findings...).
    details: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise KeyError(f"unknown lint rule {self.rule_id!r}")

    @property
    def rule(self) -> Rule:
        """The catalog rule this finding reports."""
        return RULES[self.rule_id]

    @property
    def severity(self) -> str:
        """Severity of the finding (the rule's default severity)."""
        return self.rule.severity

    @property
    def anchor(self) -> str:
        """``file:line`` anchor, or ``-`` when none is known."""
        if self.file is None:
            return "-"
        if self.line is None:
            return self.file
        return f"{self.file}:{self.line}"

    def to_dict(self) -> Dict:
        """Flat JSON-ready representation."""
        doc = {
            "rule": self.rule_id,
            "severity": self.severity,
            "title": self.rule.title,
            "subject": self.subject,
            "message": self.message,
            "file": self.file,
            "line": self.line,
        }
        if self.field_name is not None:
            doc["field"] = self.field_name
        if self.details:
            doc["details"] = self.details
        return doc


def severity_counts(findings: List[Finding]) -> Dict[str, int]:
    """Findings per severity, in catalog order."""
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] += 1
    return counts


def has_errors(findings: List[Finding]) -> bool:
    """Whether any finding is error-severity (the CI gate)."""
    return any(f.severity == "error" for f in findings)


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Stable order: severity first, then rule ID, then subject."""
    rank = {severity: i for i, severity in enumerate(SEVERITIES)}
    return sorted(
        findings,
        key=lambda f: (rank[f.severity], f.rule_id, f.subject, f.line or 0),
    )


def render_text(findings: List[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = []
    for finding in sort_findings(findings):
        where = f" [{finding.field_name}]" if finding.field_name else ""
        lines.append(
            f"{finding.severity:>7}  {finding.rule_id}  "
            f"{finding.subject}{where}: {finding.message}  ({finding.anchor})"
        )
    counts = severity_counts(findings)
    summary = ", ".join(
        f"{counts[severity]} {severity}(s)" for severity in SEVERITIES
    )
    lines.append(f"{len(findings)} finding(s): {summary}")
    return "\n".join(lines) + "\n"


def render_json(findings: List[Finding], targets: List[str]) -> str:
    """The ``repro lint --json`` document (entire stdout)."""
    ordered = sort_findings(findings)
    return json.dumps(
        {
            "targets": targets,
            "counts": severity_counts(findings),
            "findings": [f.to_dict() for f in ordered],
        },
        indent=2,
    )
