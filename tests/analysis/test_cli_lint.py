"""CLI surface of the contract checker: ``repro lint`` and ``--sanitize``."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import lint_app, run_lint
from repro.analysis.findings import RULES, has_errors
from repro.analysis.linter import lint_module_path, resolve_module_path
from repro.apps import APP_BY_NAME
from repro.apps.base import AppContext
from repro.cli import main
from repro.compiler import compile_program
from repro.engines import make_engine
from repro.errors import LintError
from repro.graph.generators import rmat
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input
from repro.utils.rng import make_rng

import tests.analysis.broken_programs as broken_programs
import tests.analysis.broken_specs as broken_specs

FIXTURE_PATH = broken_specs.__file__
EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_algorithm.py"


class TestLintCommand:
    def test_default_sweep_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "linting:" in out
        assert "0 error(s)" in out

    def test_single_app_target(self, capsys):
        assert main(["lint", "--app", "bfs"]) == 0
        assert "linting: bfs" in capsys.readouterr().out

    def test_unknown_app_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--app", "wcc"])

    def test_broken_module_exits_nonzero(self, capsys):
        assert main(["lint", "--module", FIXTURE_PATH]) == 1
        out = capsys.readouterr().out
        assert "GL001" in out
        assert "GL003" in out

    def test_json_document(self, capsys):
        assert main(["lint", "--module", FIXTURE_PATH, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["targets"] == [FIXTURE_PATH]
        assert doc["counts"]["error"] > 0
        rules = {f["rule"] for f in doc["findings"]}
        assert {"GL001", "GL003", "GL004", "GL005"} <= rules
        first = doc["findings"][0]
        assert {"rule", "severity", "subject", "message", "file", "line"} <= (
            set(first)
        )
        # Errors sort before warnings before infos.
        severities = [f["severity"] for f in doc["findings"]]
        order = {"error": 0, "warning": 1, "info": 2}
        assert severities == sorted(severities, key=order.__getitem__)

    def test_rules_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("GL001", "GL011", "GL101", "GL104", "GL201", "GL202"):
            assert rule_id in out

    def test_module_without_a_spec_points_to_sanitize(self, capsys):
        """A handwritten program has no spec to lint: the refusal names
        the run-time check instead."""
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--module", broken_programs.__file__])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "no ProgramSpec found" in err
        assert "--sanitize" in err

    def test_example_spec_is_clean(self, capsys):
        assert main(["lint", "--module", str(EXAMPLE), "--dataflow"]) == 0
        assert "widest-path" in capsys.readouterr().out

    def test_app_and_module_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["lint", "--app", "bfs", "--module", FIXTURE_PATH])


class TestBrokenFixtures:
    """``--module`` on the tampered specs: each spec-decidable rule fires
    on the spec built to trip it."""

    @pytest.fixture(scope="class")
    def findings(self):
        return lint_module_path(FIXTURE_PATH)

    @pytest.mark.parametrize("rule_id", sorted(broken_specs.RULE_FIXTURES))
    def test_rule_fires(self, findings, rule_id):
        subject = broken_specs.RULE_FIXTURES[rule_id]
        fired = {f.rule_id for f in findings if f.subject == subject}
        assert rule_id in fired, (
            f"{subject} should trigger {rule_id}, got {sorted(fired)}"
        )
        finding = next(
            f for f in findings
            if f.rule_id == rule_id and f.subject == subject
        )
        assert finding.severity == RULES[rule_id].severity

    def test_findings_name_the_wire_and_endpoint(self, findings):
        finding = next(f for f in findings if f.rule_id == "GL001")
        assert finding.subject == "wrong-write-endpoint"
        assert finding.field_name == "dist"
        assert finding.details == {"endpoint": "destination"}
        assert "destination" in finding.message

    def test_unsynced_target_names_the_field(self, findings):
        finding = next(f for f in findings if f.rule_id == "GL003")
        assert finding.field_name == "y"
        assert "'y'" in finding.message

    def test_module_targets_are_compiled_specs(self):
        """Every spec a module binds is compiled, in name order; the
        compiled classes are all the linter sees."""
        classes = resolve_module_path(FIXTURE_PATH)
        names = [cls.spec.name for cls in classes]
        assert names == sorted(
            {broken_specs.WRONG_WRITE_SPEC.name,
             broken_specs.WRONG_READ_SPEC.name,
             broken_specs.UNSYNCED_TARGET_SPEC.name}
        )
        assert all("class " in cls.generated_source for cls in classes)

    def test_example_resolves_to_its_spec(self):
        (cls,) = resolve_module_path(str(EXAMPLE))
        assert cls.spec.name == "widest-path"
        assert lint_module_path(str(EXAMPLE)) == []

    def test_aliased_spec_is_linted_once(self, tmp_path):
        """A spec bound under two names (here imported, then aliased)
        is compiled once and each of its findings reported once."""
        module = tmp_path / "aliased.py"
        module.write_text(
            "from tests.analysis.broken_specs import UNSYNCED_TARGET_SPEC\n"
            "DEFAULT = UNSYNCED_TARGET_SPEC\n"
        )
        (cls,) = resolve_module_path(str(module))
        assert cls.spec is broken_specs.UNSYNCED_TARGET_SPEC
        rule_ids = [f.rule_id for f in lint_module_path(str(module))]
        assert rule_ids.count("GL003") == 1, rule_ids

    def test_uncompilable_spec_is_a_lint_error(self, tmp_path):
        module = tmp_path / "assign_spec.py"
        module.write_text(
            "import numpy as np\n"
            "from repro.compiler import (\n"
            "    FieldDecl, PhaseSpec, ProgramSpec, SyncDecl)\n"
            "SPEC = ProgramSpec(\n"
            "    name='assign-reduced',\n"
            "    fields=(FieldDecl('x', np.float64, reduce='assign',\n"
            "                      init='np.zeros(n)'),),\n"
            "    phases=(PhaseSpec('p', 'dense_pull', 'x',\n"
            "                      kernel='{src.x}'),),\n"
            "    sync=(SyncDecl('x'),),\n"
            ")\n"
        )
        with pytest.raises(LintError, match="assign") as exc:
            resolve_module_path(str(module))
        assert str(module) in str(exc.value)

    def test_unimportable_module_is_a_lint_error(self, tmp_path):
        module = tmp_path / "raises.py"
        module.write_text("raise RuntimeError('boom')\n")
        with pytest.raises(LintError, match="error importing.*boom"):
            resolve_module_path(str(module))


class TestBuiltinAppsClean:
    def test_all_apps_have_no_errors(self):
        names, findings = run_lint()
        # Aliases collapse to one target, but every app class is covered.
        assert {APP_BY_NAME[n] for n in names} == set(APP_BY_NAME.values())
        errors = [f for f in findings if f.severity == "error"]
        assert not has_errors(findings), [f.to_dict() for f in errors]

    @pytest.mark.parametrize("app_name", sorted(APP_BY_NAME))
    def test_each_app_individually_clean(self, app_name):
        findings = lint_app(app_name)
        errors = [f for f in findings if f.severity == "error"]
        assert not errors, [f.to_dict() for f in errors]


class TestRunSanitize:
    _BASE = [
        "run",
        "--system", "d-galois",
        "--app", "bfs",
        "--workload", "rmat22s",
        "--scale-delta", "-5",
        "--hosts", "2",
    ]

    def test_clean_run_reports_clean(self, capsys):
        assert main(self._BASE + ["--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer          : clean (no contract violations)" in out

    def test_sanitize_preserves_results(self, capsys):
        assert main(self._BASE + ["--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(self._BASE + ["--sanitize", "--json"]) == 0
        guarded = json.loads(capsys.readouterr().out)
        assert "sanitizer_findings" not in guarded
        assert guarded["summary"]["rounds"] == plain["summary"]["rounds"]
        assert guarded["summary"]["comm_MB"] == plain["summary"]["comm_MB"]


@pytest.mark.parametrize("policy", ["oec", "cvc", "iec"])
def test_handwritten_example_runs_sanitizer_clean(policy):
    """``repro lint --module`` reads the example's spec; its handwritten
    class is checked where it runs: sanitizer-clean, and bitwise equal
    to the compiled spec."""
    loader = importlib.util.spec_from_file_location("custom_algorithm", EXAMPLE)
    example = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(example)
    edges = rmat(scale=9, edge_factor=8, seed=9).with_random_weights(
        make_rng(5), low=1, high=50
    )
    ctx = AppContext(
        num_global_nodes=edges.num_nodes,
        source=prepare_input("bfs", edges).ctx.source,
    )
    answers = []
    for program, sanitize in (
        (example.WidestPath(), True),
        (compile_program(example.WIDEST_PATH_SPEC), False),
    ):
        executor = DistributedExecutor(
            make_partitioner(policy).partition(edges, 4),
            make_engine("galois"),
            program,
            ctx,
            sanitize=sanitize,
        )
        assert executor.run().sanitizer_findings == []
        answers.append(executor.gather_result("capacity").tobytes())
    assert answers[0] == answers[1]
