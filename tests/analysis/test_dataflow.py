"""The whole-program sync dataflow analyzer (GL3xx).

Three obligations:

* every rule *fires* on a fixture spec engineered to violate it
  (GL301 dead syncs, GL302 fusion, GL304 static hazards, GL305
  tampered endpoints);
* the analyzer is *exact* on the migrated specs — the dead-sync tables
  and stabilization certificates below are the hand-checked ground
  truth this PR's optimizer relies on;
* the sweep is *clean* on every registered program, generated and
  optimized: info-severity eliminations only, no hazards (no false
  positives).

Only a compiled class is analyzed (from its spec); a handwritten
program gets no certificate.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.dataflow import (
    analyze_spec,
    certificate_for,
    certify_spec,
    dataflow_programs,
    dead_sync_table,
    fusion_candidates,
    graph_from_spec,
    kernel_is_monotone,
)
from repro.analysis.linter import all_builtin_programs
from repro.apps import make_app
from repro.apps.specs import PROGRAM_SPECS, optimized_app_names
from repro.compiler import FieldDecl, PhaseSpec, ProgramSpec, SyncDecl
from repro.partition.strategy import PartitionStrategy

from tests.analysis.broken_programs import WrongWriteEndpoint


def widest_path_spec():
    """The spec ``examples/custom_algorithm.py`` binds beside its class."""
    path = Path(__file__).resolve().parents[2] / "examples" / "custom_algorithm.py"
    loader = importlib.util.spec_from_file_location("custom_algorithm", path)
    example = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(example)
    return example.WIDEST_PATH_SPEC


def transposed_push_spec():
    """Pushes every node's label to its in-neighbors: a gather over the
    transposed graph, so the scatter lands at the stored edge's *source*
    and the read at its destination."""
    return ProgramSpec(
        name="fixture-transposed-push",
        fields=(
            FieldDecl("label", np.uint32, "min",
                      "np.arange(n, dtype=np.uint32)"),
        ),
        phases=(
            PhaseSpec("spread", "frontier_push", "label",
                      kernel="{src.label}", orientation="transpose"),
        ),
        sync=(SyncDecl("label"),),
        frontier="all",
    )


def _noop_hook(part, state):
    return np.zeros(part.num_nodes, dtype=bool)


def fuse_spec():
    """Two adjacent push phases sharing a gather — GL302 must fire."""
    return ProgramSpec(
        name="fixture-fuse",
        fields=(
            FieldDecl("x", np.uint32, None, "np.arange(n, dtype=np.uint32)"),
            FieldDecl("a", np.uint32, "min",
                      "np.full(n, 4294967295, dtype=np.uint32)"),
            FieldDecl("b", np.uint32, "min",
                      "np.full(n, 4294967295, dtype=np.uint32)"),
        ),
        phases=(
            PhaseSpec("scatter_a", "frontier_push", "a",
                      kernel="np.minimum({dst.a}, {src.x} + np.uint32(1))"),
            PhaseSpec("scatter_b", "frontier_push", "b",
                      kernel="np.minimum({dst.b}, {src.x} + np.uint32(2))"),
        ),
        sync=(SyncDecl("a"), SyncDecl("b")),
        frontier="all",
    )


def hazard_spec():
    """A later phase reads a field an earlier phase scatter-wrote in the
    same round — the GL304 stale-mirror-read shape."""
    return ProgramSpec(
        name="fixture-hazard",
        fields=(
            FieldDecl("x", np.uint32, None, "np.arange(n, dtype=np.uint32)"),
            FieldDecl("a", np.uint32, "min",
                      "np.full(n, 4294967295, dtype=np.uint32)"),
            FieldDecl("c", np.uint64, "min",
                      "np.full(n, 2**64 - 1, dtype=np.uint64)"),
        ),
        phases=(
            PhaseSpec("scatter_a", "frontier_push", "a",
                      kernel="{src.x} + np.uint32(1)"),
            PhaseSpec("combine", "frontier_push", "c",
                      kernel="{src.a}.astype(np.uint64) + np.uint64(1)"),
        ),
        sync=(SyncDecl("a"),),
        frontier="all",
    )


def mismatch_spec():
    """Idempotent reduction + master hook: its reductions alone would
    allow confined recovery, the certificate denies it."""
    return ProgramSpec(
        name="fixture-mismatch",
        fields=(
            FieldDecl("alive", np.uint32, None,
                      "np.ones(n, dtype=np.uint32)"),
            FieldDecl("acc", np.uint32, "min",
                      "np.full(n, 4294967295, dtype=np.uint32)"),
        ),
        phases=(
            PhaseSpec("notify", "frontier_push", "acc",
                      kernel="np.uint32(1)",
                      guard="{alive} == np.uint32(1)"),
        ),
        sync=(SyncDecl(field="acc", broadcast="alive", hook=_noop_hook),),
        frontier="all",
    )


def tampered_spec():
    """Hand-pinned endpoints void every whole-program proof (GL305)."""
    return dataclasses.replace(
        PROGRAM_SPECS["bfs"],
        endpoint_overrides=(
            ("dist", (frozenset({"source"}),
                      frozenset({"source", "destination"}))),
        ),
    )


#: Hand-checked ground truth: dead sync phases per migrated spec.
EXPECTED_DEAD = {
    "bfs": {"iec": {"dist": ("reduce",)}},
    "sssp": {"iec": {"dist": ("reduce",)},
             "oec": {"dist": ("broadcast",)}},
    "cc": {"iec": {"label": ("reduce",)},
           "oec": {"label": ("broadcast",)}},
    "kcore": {"iec": {"removed_acc": ("reduce",)},
              "oec": {"removed_acc": ("broadcast",)}},
    "pr": {"iec": {"rank_acc": ("reduce",)},
           "oec": {"rank_acc": ("broadcast",)}},
    "pr-push": {"iec": {"residual": ("reduce",)},
                "oec": {"residual": ("broadcast",)}},
    "featprop": {"iec": {"feat_acc": ("reduce",)},
                 "oec": {"feat_acc": ("broadcast",)}},
    "labelprop": {"iec": {"count_acc": ("reduce",)},
                  "oec": {"count_acc": ("broadcast",)}},
    # Forward writes land at destinations (masters under IEC); backward
    # writes at sources (masters under OEC) and reads at destinations
    # (never mirrors under IEC).
    "bc": {"iec": {"dist": ("reduce",), "sigma_acc": ("reduce",),
                   "delta_acc": ("broadcast",)},
           "oec": {"delta_acc": ("reduce",)}},
}

#: Hand-checked ground truth: which migrated specs are certified.
EXPECTED_CERTIFIED = {
    "bfs": True,
    "sssp": True,
    "cc": True,
    "kcore": False,
    "pr": False,
    "pr-push": False,
    "featprop": False,
    "labelprop": False,
    "bc": False,
}


class TestGraphModel:
    def test_spec_graph_shape(self):
        graph = graph_from_spec(PROGRAM_SPECS["sssp"])
        assert [p.name for p in graph.phases] == ["relax"]
        assert [w.wire for w in graph.wires] == ["dist"]
        wire = graph.wires[0]
        assert wire.writes == frozenset({"destination"})
        assert wire.uses == frozenset({"source"})

    def test_bfs_pull_targets_keep_destination_use(self):
        """bfs's adopt phase reads dist in its select mask — a
        destination-side read invisible to derive_phase_access that the
        analyzer must add, or it would wrongly kill the broadcast
        under OEC."""
        graph = graph_from_spec(PROGRAM_SPECS["bfs"])
        wire = graph.wires[0]
        assert "destination" in wire.uses

    def test_example_spec_graph_shape(self):
        """The widest-path example is a forward push, like sssp."""
        graph = graph_from_spec(widest_path_spec())
        assert [(p.name, p.direction) for p in graph.phases] == [
            ("relax", "push")
        ]
        (wire,) = graph.wires
        assert (wire.wire, wire.reduce) == ("capacity", "max")
        assert wire.writes == frozenset({"destination"})
        assert wire.uses == frozenset({"source"})

    def test_transposed_push_flips_roles(self):
        graph = graph_from_spec(transposed_push_spec())
        (phase,) = graph.phases
        assert phase.orientation == "transpose"
        assert phase.writes == {"label": frozenset({"source"})}
        (wire,) = graph.wires
        assert wire.writes == frozenset({"source"})
        assert wire.uses == frozenset({"destination"})

    def test_dense_pull_runs_in_the_pull_group(self):
        """pagerank's pull writes its accumulator at the destination and
        reads contributions at the source."""
        graph = graph_from_spec(PROGRAM_SPECS["pr"])
        assert {p.direction for p in graph.phases} == {"pull"}
        for wire in graph.wires:
            assert wire.writes == frozenset({"destination"}), wire.wire
            assert wire.uses == frozenset({"source"}), wire.wire

    def test_stages_never_share_a_round(self):
        """bc's forward phase scatters dist, its backward phase reads it:
        different stages, so no GL304 stale read and no fusion."""
        graph = graph_from_spec(PROGRAM_SPECS["bc"])
        assert [[p.name for p in group] for group in graph.groups()] == [
            ["relax"], ["dependency"],
        ]
        assert not [f for f in analyze_spec(PROGRAM_SPECS["bc"])
                    if f.rule.rule_id == "GL304"]


class TestGL301:
    @pytest.mark.parametrize("app", sorted(EXPECTED_DEAD))
    def test_dead_sync_tables_are_exact(self, app):
        table = dead_sync_table(graph_from_spec(PROGRAM_SPECS[app]))
        assert table == EXPECTED_DEAD[app], app

    def test_bfs_broadcast_survives_oec(self):
        """The pull-path destination read keeps bfs's broadcast alive
        under OEC — the one asymmetry in the migrated-spec table."""
        table = dead_sync_table(graph_from_spec(PROGRAM_SPECS["bfs"]))
        assert "oec" not in table

    def test_findings_fire_on_every_spec(self):
        for app in EXPECTED_DEAD:
            found = [
                f for f in analyze_spec(PROGRAM_SPECS[app])
                if f.rule.rule_id == "GL301"
            ]
            assert found, f"{app}: no GL301 finding"
            assert all(f.severity == "info" for f in found)

    def test_example_dead_table_matches_sssp(self):
        """The widest-path spec, a push-only relaxation like sssp, gets
        the dead table sssp's spec gets."""
        assert dead_sync_table(graph_from_spec(widest_path_spec())) == {
            strategy: {"capacity": phases["dist"]}
            for strategy, phases in EXPECTED_DEAD["sssp"].items()
        }

    def test_dead_phases_respect_strategy_invariants(self):
        """Under UVC/CVC mirrors can sit at either endpoint — nothing
        is ever provably dead there."""
        for app in EXPECTED_DEAD:
            table = dead_sync_table(graph_from_spec(PROGRAM_SPECS[app]))
            assert PartitionStrategy.UVC.value not in table
            assert PartitionStrategy.CVC.value not in table


class TestGL302:
    def test_fixture_pair_detected(self):
        pairs = fusion_candidates(graph_from_spec(fuse_spec()))
        assert [(a.name, b.name) for a, b in pairs] == [
            ("scatter_a", "scatter_b")
        ]

    def test_finding_fires(self):
        found = [
            f for f in analyze_spec(fuse_spec())
            if f.rule.rule_id == "GL302"
        ]
        assert len(found) == 1
        assert found[0].severity == "info"

    def test_no_candidates_on_migrated_specs(self):
        for app, spec in PROGRAM_SPECS.items():
            assert not fusion_candidates(graph_from_spec(spec)), app

    def test_read_dependency_blocks_fusion(self):
        """If the later phase consumes the earlier phase's target the
        shared gather would feed it pre-scatter values — not fusible."""
        spec = hazard_spec()
        assert not fusion_candidates(graph_from_spec(spec))


class TestStabilizationCertificates:
    @pytest.mark.parametrize("app", sorted(EXPECTED_CERTIFIED))
    def test_certificates_match_ground_truth(self, app):
        cert = certify_spec(PROGRAM_SPECS[app])
        assert cert.self_stabilizing is EXPECTED_CERTIFIED[app], (
            app, cert.reasons,
        )

    def test_a_master_hook_is_denied(self):
        cert = certify_spec(mismatch_spec())
        assert not cert.self_stabilizing
        assert cert.reasons == ("no-master-hooks",)

    def test_add_folding_denied(self):
        """An ADD accumulator folded by a master hook (bc's spec) is
        denied."""
        cert = certificate_for(make_app("bc"))
        assert cert is not None
        assert not cert.self_stabilizing

    def test_example_spec_is_certified(self):
        """Max reduction, data-driven frontier, no hook, and a monotone
        ``np.minimum`` kernel: all four conditions hold."""
        cert = certify_spec(widest_path_spec())
        assert cert.self_stabilizing, cert.reasons

    def test_certificate_for_handwritten_and_compiled(self):
        assert certificate_for(WrongWriteEndpoint) is None
        assert certificate_for(WrongWriteEndpoint()) is None
        spec_cert = certificate_for(make_app("bfs"))
        assert spec_cert is not None
        assert spec_cert.self_stabilizing


class TestMonotoneKernels:
    @pytest.mark.parametrize("kernel", [
        "{src.dist} + {w}",
        "{src.label}",
        "np.minimum({dst.a}, {src.x} + np.uint32(1))",
        "np.maximum({src.a}, {dst.a})",
        "{src.feat_acc}.astype(np.float64)",
        "np.uint32(1)",
        "{src.x} * 2",
    ])
    def test_monotone(self, kernel):
        assert kernel_is_monotone(kernel)

    @pytest.mark.parametrize("kernel", [
        "np.where({dst.dist} > level, np.uint32(level + 1), {dst.dist})",
        "{src.rank} / np.maximum({src.out_degree}, 1)",
        "{src.x} * -1",
        "-{src.x}",
    ])
    def test_non_monotone(self, kernel):
        assert not kernel_is_monotone(kernel)

    def test_missing_kernel_is_vacuously_monotone(self):
        assert kernel_is_monotone(None)


class TestGL304:
    def test_hazard_fixture_fires_error(self):
        found = [
            f for f in analyze_spec(hazard_spec())
            if f.rule.rule_id == "GL304"
        ]
        assert found, "stale-read hazard not detected"
        assert all(f.severity == "error" for f in found)

    def test_optimize_gate_refuses_hazard(self):
        from repro.compiler.program_codegen import compile_program
        from repro.compiler.spec import CompileError

        with pytest.raises(CompileError, match="GL304"):
            compile_program(hazard_spec(), optimize=True)
        # The unoptimized build is still allowed (hazard diagnostics
        # are for the optimizer's proofs, not a new compile gate).
        assert compile_program(hazard_spec()) is not None

class TestGL305:
    def test_tampered_spec_flagged_and_analysis_halts(self):
        findings = analyze_spec(tampered_spec())
        assert [f.rule.rule_id for f in findings] == ["GL305"]
        assert findings[0].severity == "warning"

    def test_tampered_spec_yields_empty_tables(self):
        graph = graph_from_spec(tampered_spec())
        assert graph.overridden
        assert dead_sync_table(graph) == {}
        assert fusion_candidates(graph) == []

    def test_optimizer_refuses_tampered_proofs(self):
        from repro.compiler.program_codegen import render_program

        source = render_program(tampered_spec(), optimize=True)
        assert "_DEAD_SYNC" not in source
        assert "sync_phases" not in source


class TestCleanSweep:
    def test_no_errors_or_mismatches_on_any_registered_program(self):
        programs = [
            cls
            for _, app_programs in all_builtin_programs()
            for cls in app_programs
        ]
        programs.extend(type(make_app(n)) for n in optimized_app_names())
        findings = dataflow_programs(programs)
        assert findings, "the sweep found nothing at all"
        bad = [
            f for f in findings
            if f.rule.rule_id in ("GL304", "GL305")
            or f.severity == "error"
        ]
        assert not bad, [f"{f.rule.rule_id}: {f.message}" for f in bad]

    def test_lint_integration(self):
        from repro.analysis.linter import run_lint

        _, plain = run_lint()
        _, with_dataflow = run_lint(dataflow=True)
        gl3 = [
            f for f in with_dataflow if f.rule.rule_id.startswith("GL3")
        ]
        assert gl3, "--dataflow added no GL3xx findings"
        assert len(with_dataflow) == len(plain) + len(gl3)
