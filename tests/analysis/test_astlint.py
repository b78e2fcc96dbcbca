"""Static sync-contract lint: every rule fires, every app is clean."""

import inspect

import pytest

from repro.analysis import lint_all_apps, lint_programs
from repro.analysis.astlint import analyze_program, lint_program
from repro.analysis.findings import RULES, has_errors
from repro.analysis.linter import lint_module_path
from repro.apps import APP_BY_NAME

from tests.analysis.broken_programs import (
    RULE_FIXTURES,
    StaleCandidateRead,
    UnsyncedWrite,
    WrongWriteEndpoint,
)


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
        findings = lint_program(UnsyncedWrite)
        finding = next(f for f in findings if f.rule_id == "GL003")
        assert "hops" in finding.message

    def test_index_form_idiom_hides_no_genuine_read(self):
        """The guard over the frontier's indices and the scatter's
        snapshots of its own slots are no endpoint reads; the candidate's
        ``dist[dst]`` is the one GL002."""
        findings = lint_program(StaleCandidateRead)
        assert {f.rule_id for f in findings} == {"GL002"}
        (finding,) = findings
        source, start = inspect.getsourcelines(StaleCandidateRead.step)
        assert finding.line == next(
            number for number, text in enumerate(source, start)
            if "candidate = " in text
        )

    def test_module_path_lints_the_fixture_file(self):
        import tests.analysis.broken_programs as module

        findings = lint_module_path(module.__file__)
        assert set(RULE_FIXTURES) <= {f.rule_id for f in findings}
        subjects = {f.subject for f in findings}
        assert "WrongWriteEndpoint" in subjects


class TestEndpointInference:
    """The AST front end reads the generated bfs out of ``linecache``."""

    def test_bfs_push_endpoints(self):
        report = analyze_program(APP_BY_NAME["bfs"])
        writes = {
            e.key: e.endpoint for e in report.events if e.kind == "write"
        }
        reads = {e.key: e.endpoint for e in report.events if e.kind == "read"}
        assert writes.get("dist") == "destination"
        assert reads.get("dist") == "source"

    def test_bfs_pull_path_detected(self):
        report = analyze_program(APP_BY_NAME["bfs"])
        assert report.has_pull_path
        assert report.gathers_forward
        assert report.gathers_transpose

    @pytest.mark.parametrize(
        "app_name, target, source",
        [("pr", "acc", "contrib"), ("featprop", "acc", "feat")],
    )
    def test_dense_pull_written_mask_is_not_a_field(
        self, app_name, target, source
    ):
        """The round-invariant ``updated`` mask comes off the graph's
        cached in-degree, not a scattered state array: the only endpoint
        accesses a dense pull records are its field write and read, so
        GL003 (scattered but never synchronized) has nothing to flag."""
        report = analyze_program(APP_BY_NAME[app_name])
        step = [e for e in report.events if e.method == "_step_pull"]
        assert {(e.key, e.endpoint, e.kind) for e in step} == {
            (target, "destination", "write"),
            (source, "source", "read"),
        }
        assert set(report.state_tags) == {"edge_src", "edge_dst"}
        findings = lint_program(APP_BY_NAME[app_name])
        assert "GL003" not in {f.rule_id for f in findings}



class TestBuiltinAppsClean:
    def test_all_apps_have_no_errors(self):
        names, findings = lint_all_apps()
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
