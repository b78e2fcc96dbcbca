"""The compiled-program contract: the registry hands out the program
generated from each spec, its sync endpoints are derived (never
declared), and the GL lint pass verifies the generated source like any
handwritten program.  (That the generated programs compute what the
handwritten apps they replaced computed is pinned absolutely by
``tests/integration/test_golden_matrix.py``.)
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.linter import run_lint
from repro.apps import APP_BY_NAME, bc, make_app
from repro.apps.specs import (
    BFS_SPEC,
    PROGRAM_SPECS,
    base_app_name,
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

MIGRATED = sorted(PROGRAM_SPECS)


class TestDerivedEndpoints:
    """Sync endpoints come from the phases' access sets, never by hand."""

    @pytest.mark.parametrize("app", MIGRATED)
    def test_migrated_specs_derive_forward_flow(self, app):
        spec = spec_for(app)
        endpoints = derive_endpoints(spec)
        assert endpoints, f"{app}: no sync wires derived"
        for wire, (writes, reads) in endpoints.items():
            assert writes == frozenset({"destination"}), (app, wire)
            assert reads == frozenset({"source"}), (app, wire)

    def test_bc_backward_derives_reversed_flow(self):
        """BC's transposed dependency phase derives the §3.2-reversed
        endpoints the module used to hand-declare."""
        assert bc.DELTA_WRITES == frozenset({"source"})
        assert bc.DELTA_READS == frozenset({"destination"})

    def test_bc_forward_derives_both_end_reads(self):
        assert bc.DIST_WRITES == frozenset({"destination"})
        assert bc.DIST_READS == frozenset({"source", "destination"})
        assert bc.SIGMA_WRITES == frozenset({"destination"})
        assert bc.SIGMA_READS == frozenset({"source", "destination"})

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
    """compile → lint: tampered access sets must trip GL001."""

    def _tampered_bfs(self):
        return dataclasses.replace(
            BFS_SPEC,
            endpoint_overrides=(
                ("dist", (frozenset({"source"}),
                          frozenset({"source", "destination"}))),
            ),
        )

    def test_lint_clean_on_every_migrated_spec(self):
        """The default sweep *is* the generated-code sweep."""
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
