"""Static sync-contract lint: every rule fires, every app is clean."""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis import lint_programs, run_lint
from repro.analysis.astlint import analyze_program
from repro.analysis.findings import RULES, has_errors
from repro.analysis.linter import lint_module_path, resolve_module_path
from repro.apps import APP_BY_NAME
from repro.apps.base import StepOutcome, VertexProgram, gather_frontier_edges
from repro.core.sync_structures import ADD, FieldSpec
from repro.partition.strategy import OperatorClass
from repro.runtime.timing import WorkStats

from tests.analysis.broken_programs import (
    RULE_FIXTURES,
    UnsyncedWrite,
    WrongWriteEndpoint,
)

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_algorithm.py"


def widest_path():
    """The handwritten push example: a MAX relaxation over out-edges."""
    (program,) = resolve_module_path(str(EXAMPLE))
    return program


class TransposedPush(VertexProgram):
    """Pushes every active node's weight to its in-neighbors: a gather
    over the transposed graph, so the scatter lands at the stored edge's
    *source* and the read at its destination."""

    name = "transposed-push"

    def make_state(self, part, ctx):
        return {"weight": np.ones(part.num_nodes), "acc": np.zeros(part.num_nodes)}

    def make_fields(self, part, state):
        return [
            FieldSpec(
                name="acc", values=state["acc"], reduce_op=ADD,
                writes=frozenset({"source"}), reads=frozenset({"destination"}),
            )
        ]

    def step(self, part, state, frontier, direction="push"):
        node_rep, pred, _ = gather_frontier_edges(part.graph.transpose(), frontier)
        np.add.at(state["acc"], pred, state["weight"][node_rep])
        updated = np.zeros(part.num_nodes, dtype=bool)
        updated[pred] = True
        work = WorkStats(len(pred), int(np.count_nonzero(frontier)))
        return StepOutcome(updated=updated, work=work)


class FoldedCount(VertexProgram):
    """Counts paths into an ADD accumulator that a master hook folds into
    the canonical ``total`` — the accumulator shape GL303 denies."""

    name = "folded-count"

    def make_state(self, part, ctx):
        return {"total": np.ones(part.num_nodes), "acc": np.zeros(part.num_nodes)}

    def make_fields(self, part, state):
        def fold(changed):
            m = part.num_masters
            state["total"][:m] += state["acc"][:m]
            state["acc"][:m] = 0.0
            return changed

        return [
            FieldSpec(
                name="acc", values=state["acc"], reduce_op=ADD,
                broadcast_values=state["total"], on_master_after_reduce=fold,
            )
        ]

    def step(self, part, state, frontier, direction="push"):
        src_rep, dst, _ = gather_frontier_edges(part.graph, frontier)
        np.add.at(state["acc"], dst, state["total"][src_rep])
        updated = np.zeros(part.num_nodes, dtype=bool)
        updated[dst] = True
        work = WorkStats(len(dst), int(np.count_nonzero(frontier)))
        return StepOutcome(updated=updated, work=work)


class DensePull(VertexProgram):
    """Pagerank-shaped pull whose edge endpoints ``make_state`` pre-gathers."""

    name = "dense-pull"
    operator_class = OperatorClass.PULL
    supports_pull = True
    uses_frontier = False
    iterate_locally = False

    def make_state(self, part, ctx):
        src, dst = part.graph.edges()
        return {
            "edge_src": src.astype(np.int64),
            "edge_dst": dst.astype(np.int64),
            "contrib": np.ones(part.num_nodes),
            "acc": np.zeros(part.num_nodes),
        }

    def make_fields(self, part, state):
        return [
            FieldSpec(
                name="acc",
                values=state["acc"],
                reduce_op=ADD,
                broadcast_values=state["contrib"],
                on_master_after_reduce=lambda changed: changed,
            )
        ]

    def step(self, part, state, frontier, direction="pull"):
        src = state["edge_src"]
        dst = state["edge_dst"]
        np.add.at(state["acc"], dst, state["contrib"][src])
        work = WorkStats(len(dst), part.num_nodes)
        return StepOutcome(updated=part.graph.in_degree() > 0, work=work)


class TestBrokenFixtures:
    @pytest.mark.parametrize(
        "rule_id,cls",
        sorted(RULE_FIXTURES.items()),
        ids=sorted(RULE_FIXTURES),
    )
    def test_rule_fires(self, rule_id, cls):
        findings = lint_programs([cls])
        fired = {f.rule_id for f in findings}
        assert rule_id in fired, (
            f"{cls.__name__} should trigger {rule_id}, got {sorted(fired)}"
        )
        finding = next(f for f in findings if f.rule_id == rule_id)
        assert finding.severity == RULES[rule_id].severity
        assert finding.subject == cls.__name__

    def test_findings_carry_anchors(self):
        findings = lint_programs([WrongWriteEndpoint])
        finding = next(f for f in findings if f.rule_id == "GL001")
        assert finding.file.endswith("broken_programs.py")
        assert finding.line > 0
        assert finding.field_name == "dist"
        assert "destination" in finding.message

    def test_unsynced_write_names_the_state_key(self):
        findings = lint_programs([UnsyncedWrite])
        finding = next(f for f in findings if f.rule_id == "GL003")
        assert "hops" in finding.message

    def test_module_path_lints_the_fixture_file(self):
        import tests.analysis.broken_programs as module

        findings = lint_module_path(module.__file__)
        assert set(RULE_FIXTURES) <= {f.rule_id for f in findings}
        subjects = {f.subject for f in findings}
        assert "WrongWriteEndpoint" in subjects


class TestEndpointInference:
    """The AST front end on handwritten programs."""

    def test_push_endpoints(self):
        report = analyze_program(widest_path())
        writes = {(e.key, e.endpoint) for e in report.events if e.kind == "write"}
        reads = {(e.key, e.endpoint) for e in report.events if e.kind == "read"}
        assert writes == {("capacity", "destination")}
        assert ("capacity", "source") in reads
        assert report.gathers_forward and not report.gathers_transpose

    def test_transposed_gather_flips_roles(self):
        report = analyze_program(TransposedPush)
        writes = {(e.key, e.endpoint) for e in report.events if e.kind == "write"}
        reads = {(e.key, e.endpoint) for e in report.events if e.kind == "read"}
        assert writes == {("acc", "source")}
        assert reads == {("weight", "destination")}
        assert report.gathers_transpose and not report.gathers_forward
        assert not report.has_pull_path

    def test_pull_path_and_state_tags(self):
        """``src = state["edge_src"]`` carries the role ``make_state``
        gave the array; the round-invariant ``updated`` mask off the
        graph's in-degree is no field write, so GL003 has nothing to
        flag."""
        report = analyze_program(DensePull)
        assert report.has_pull_path
        assert set(report.state_tags) == {"edge_src", "edge_dst"}
        assert {(e.key, e.endpoint, e.kind) for e in report.events} == {
            ("acc", "destination", "write"),
            ("contrib", "source", "read"),
        }
        assert lint_programs([DensePull]) == []


class TestBuiltinAppsClean:
    def test_all_apps_have_no_errors(self):
        names, findings = run_lint()
        # Aliases collapse to one target, but every app class is covered.
        assert {APP_BY_NAME[n] for n in names} == set(APP_BY_NAME.values())
        errors = [f for f in findings if f.severity == "error"]
        assert not has_errors(findings), [f.to_dict() for f in errors]

    @pytest.mark.parametrize("app_name", sorted(APP_BY_NAME))
    def test_each_app_individually_clean(self, app_name):
        from repro.analysis import lint_app

        findings = lint_app(app_name)
        errors = [f for f in findings if f.severity == "error"]
        assert not errors, [f.to_dict() for f in errors]
