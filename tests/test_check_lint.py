"""Self-test of the repo rules in ``tools/check_lint.py`` (X001, X002,
X003): each is fed one offending and one clean snippet."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_lint", Path(__file__).resolve().parents[1] / "tools" / "check_lint.py"
)
check_lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_lint)


def codes(path, source):
    return [code for _, _, code, _ in check_lint.check_source(path, source)]


@pytest.mark.parametrize(
    "rule, offending, clean, exempt_path",
    [
        (
            "X001",
            "def harvest(executor):\n    return executor._memoization_bytes\n",
            "def harvest(executor):\n    return executor.retired_stats\n",
            "src/repro/runtime/executor.py",
        ),
        (
            "X002",
            "from repro.runtime.executor import DistributedExecutor\n\n\n"
            "def cold(p, e, a, c):\n    return DistributedExecutor(p, e, a, c)\n",
            "def cold(plan, partitioned):\n    return plan.executor(partitioned)\n",
            "src/repro/systems.py",
        ),
        (
            "X002",
            "def stage():\n    from repro.systems import (\n        _resolve_system,\n"
            "    )\n    return _resolve_system\n",
            "def stage():\n    from repro.systems import plan_run\n    return plan_run\n",
            "src/repro/systems.py",
        ),
        (
            "X003",
            "def flags(cmd):\n    add_job_flags(cmd, 'run')\n"
            "    cmd.add_argument('--feature-dim', type=int, default=8)\n",
            "def flags(cmd, lint_cmd):\n    add_job_flags(cmd, 'run')\n"
            "    cmd.add_argument('--verify', action='store_true')\n"
            "    lint_cmd.add_argument('--app', default=None)\n",
            "src/repro/options.py",
        ),
        (
            "X003",
            "EXECUTOR_OPTIONS = ('resilience', 'compression', 'sanitize', 'runtime')\n",
            "ROW = {'app': 1, 'workload': 2, 'hosts': 3, 'policy': 4, 'rounds': 5}\n",
            "src/repro/options.py",
        ),
    ],
)
def test_repo_rule(rule, offending, clean, exempt_path):
    elsewhere = "src/repro/streaming/session.py"
    assert codes(elsewhere, offending) == [rule]
    assert codes(elsewhere, clean) == []
    # The owning module, and anything outside src/, may do it.
    assert codes(exempt_path, offending) == []
    assert codes("tests/test_x.py", offending) == []


def test_examples_may_not_reach_into_the_executor():
    """An example is read as the way to drive the library: it reads what a
    run returned, never an executor's private attributes."""
    reach_in = "def before(executor):\n    return executor._runner\n"
    assert codes("examples/repartitioning.py", reach_in) == ["X001"]
    assert codes("examples/repartitioning.py", "def before(partial):\n    return partial\n") == []
