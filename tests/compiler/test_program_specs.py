"""The compiled-program contract: the registry hands out the program
generated from each spec, its sync endpoints are derived (never
declared), and the GL lint rules check the emitted endpoints against the
spec — never by re-reading the generated source.  (That the generated
programs compute what the handwritten apps they replaced computed is
pinned absolutely by ``tests/integration/test_golden_matrix.py``.)
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.findings import RULES
from repro.analysis.linter import lint_programs, lint_spec, run_lint
from repro.apps import APP_BY_NAME, make_app
from repro.apps.specs import (
    BFS_SPEC,
    PROGRAM_SPECS,
    SSSP_SPEC,
    base_app_name,
    optimized_app_names,
    spec_for,
)
from repro.compiler import (
    FieldDecl,
    PhaseSpec,
    ProgramSpec,
    SyncDecl,
    compile_program,
    derive_endpoints,
    render_program,
    verify_compiled,
)
from repro.compiler.spec import CompileError
from repro.core.sync_structures import REDUCTIONS

from tests.analysis.broken_programs import ROWMIX

MIGRATED = sorted(PROGRAM_SPECS)


def _overridden(writes, reads):
    """sssp with its one wire's emitted endpoints pinned by hand."""
    return dataclasses.replace(
        SSSP_SPEC,
        endpoint_overrides=(
            ("dist", (frozenset(writes), frozenset(reads))),
        ),
    )


def _unsynced_target():
    """A second phase scatters into a field no wire carries."""
    return ProgramSpec(
        name="unsynced-target",
        fields=tuple(
            FieldDecl(name, np.uint32, reduce="min",
                      init="np.zeros(n, dtype=np.uint32)")
            for name in ("x", "y")
        ),
        phases=(
            PhaseSpec("p", "frontier_push", "x", kernel="{src.x}"),
            PhaseSpec("q", "frontier_push", "y", kernel="{src.x}"),
        ),
        sync=(SyncDecl("x"),),
    )


def _reduced_with(reduce, wide=False):
    """One field, aggregated over all edges and reduced with ``reduce``."""
    return ProgramSpec(
        name=f"reduced-with-{reduce}",
        fields=(
            FieldDecl(
                "x", np.float64, reduce=reduce,
                init="np.zeros((n, dim))" if wide else "np.zeros(n)",
                width="dim" if wide else None,
            ),
        ),
        phases=(
            PhaseSpec("p", "dense_pull", "x", source_rows="x")
            if wide
            else PhaseSpec("p", "dense_pull", "x", kernel="{src.x}"),
        ),
        sync=(SyncDecl("x"),),
        wide_dim="4" if wide else None,
    )


#: Spec-decidable rule -> (minimal tampered spec, every rule it fires).
SPEC_RULES = {
    "GL001": (lambda: _overridden({"source"}, {"source"}),
              {"GL001", "GL004"}),
    "GL002": (lambda: _overridden({"destination"}, {"destination"}),
              {"GL002", "GL005"}),
    "GL003": (_unsynced_target, {"GL003"}),
    "GL004": (lambda: _overridden({"source", "destination"}, {"source"}),
              {"GL004"}),
    "GL005": (lambda: _overridden({"destination"},
                                  {"source", "destination"}),
              {"GL005"}),
    "GL009": (lambda: _reduced_with("assign"), {"GL009"}),
    "GL011": (lambda: _reduced_with("rowmix", wide=True), {"GL011"}),
}


class TestDerivedEndpoints:
    """Sync endpoints come from the phases' access sets, never by hand."""

    @pytest.mark.parametrize("app", [a for a in MIGRATED if a != "bc"])
    def test_migrated_specs_derive_forward_flow(self, app):
        spec = spec_for(app)
        endpoints = derive_endpoints(spec)
        assert endpoints, f"{app}: no sync wires derived"
        for wire, (writes, reads) in endpoints.items():
            assert writes == frozenset({"destination"}), (app, wire)
            assert reads == frozenset({"source"}), (app, wire)

    def test_bc_backward_derives_reversed_flow(self):
        """BC's transposed dependency phase derives the §3.2-reversed
        endpoints: written at the edge source, read at the destination."""
        endpoints = derive_endpoints(PROGRAM_SPECS["bc"])
        assert endpoints["delta_acc"] == (
            frozenset({"source"}), frozenset({"destination"})
        )

    def test_bc_forward_derives_both_end_reads(self):
        """dist and sigma sync forward and are read on both ends of the
        transposed edges backward: the union over stages keeps both."""
        endpoints = derive_endpoints(PROGRAM_SPECS["bc"])
        both = frozenset({"source", "destination"})
        assert endpoints["dist"] == (frozenset({"destination"}), both)
        assert endpoints["sigma_acc"] == (frozenset({"destination"}), both)

    @pytest.mark.parametrize(
        "app", ["featprop", "featprop-mean", "labelprop", "sage"]
    )
    def test_feature_apps_derive_default_flow(self, app):
        ((writes, reads),) = derive_endpoints(PROGRAM_SPECS[app]).values()
        assert writes == frozenset({"destination"})
        assert reads == frozenset({"source"})

    def test_unwritten_sync_field_is_rejected(self):
        """A sync wire nothing writes derives an empty reduce side —
        the spec validation must refuse it."""
        with pytest.raises(CompileError, match="no phase writes"):
            ProgramSpec(
                name="broken",
                fields=(
                    FieldDecl("a", np.uint32, reduce="min",
                              init="np.zeros(n, dtype=np.uint32)"),
                    FieldDecl("b", np.uint32, reduce="min",
                              init="np.zeros(n, dtype=np.uint32)"),
                ),
                phases=(
                    PhaseSpec(name="p", kind="frontier_push",
                              target="a", kernel="{src.a}"),
                ),
                sync=(SyncDecl(field="b"),),
            )


class TestVerificationLoop:
    """compile → lint against the spec: tampered endpoints trip GL001."""

    def _tampered_bfs(self):
        return dataclasses.replace(
            BFS_SPEC,
            endpoint_overrides=(
                ("dist", (frozenset({"source"}),
                          frozenset({"source", "destination"}))),
            ),
        )

    def test_lint_clean_on_every_migrated_spec(self):
        """The default sweep checks every spec app against its spec."""
        names, findings = run_lint()
        assert set(MIGRATED) <= set(names)
        errors = [f for f in findings if f.severity == "error"]
        assert not errors, [f.message for f in errors]

    def test_tampered_endpoints_fire_gl001(self):
        program = compile_program(self._tampered_bfs())
        findings = verify_compiled(type(program))
        gl001 = [f for f in findings if f.rule.rule_id == "GL001"]
        assert gl001, "tampered writes set must trip GL001"
        assert all(f.severity == "error" for f in gl001)

    def test_compile_verify_gate_rejects_tampered_spec(self):
        with pytest.raises(CompileError, match="GL001"):
            compile_program(self._tampered_bfs(), verify=True)

    @pytest.mark.parametrize("name", MIGRATED + optimized_app_names())
    def test_every_build_is_finding_free(self, name):
        assert lint_programs([type(make_app(name))]) == []

    @pytest.mark.parametrize("rule_id", sorted(SPEC_RULES))
    def test_rule_fires_on_tampered_spec(self, rule_id, monkeypatch):
        monkeypatch.setitem(REDUCTIONS, ROWMIX.name, ROWMIX)
        build, expected = SPEC_RULES[rule_id]
        spec = build()
        findings = lint_spec(spec)
        assert {f.rule_id for f in findings} == expected
        finding = next(f for f in findings if f.rule_id == rule_id)
        assert finding.severity == RULES[rule_id].severity
        assert finding.subject == spec.name

    def test_render_is_deterministic(self):
        assert render_program(BFS_SPEC) == render_program(BFS_SPEC)

    def test_generated_source_attached(self):
        cls = type(make_app("bfs"))
        assert cls.spec.name == "bfs"
        assert "class CompiledBfs" in cls.generated_source


class TestRegistry:
    """One source of truth: the spec registry resolves names everywhere."""

    @pytest.mark.parametrize("app", MIGRATED)
    def test_bare_name_is_the_generated_program(self, app):
        program = make_app(app)
        assert type(program) is APP_BY_NAME[app]
        assert type(program).spec is PROGRAM_SPECS[app]
        assert program.name == app
        assert type(program).optimized is False

    def test_base_app_name_round_trip(self):
        assert base_app_name("bfs@optimized") == "bfs"
        assert base_app_name("bfs") == "bfs"

    def test_spec_for_unknown_app(self):
        with pytest.raises(ValueError, match="known"):
            spec_for("nonesuch")

    def test_compiled_suffix_is_gone(self):
        with pytest.raises(ValueError, match="unknown application"):
            make_app("cc@compiled")

    def test_class_built_once_instances_fresh(self):
        a, b = make_app("bfs"), make_app("bfs")
        assert type(a) is type(b)
        assert a is not b

    def test_pagerank_alias(self):
        assert type(make_app("pagerank")) is type(make_app("pr"))
        assert spec_for("pagerank") is PROGRAM_SPECS["pr"]
