"""Smoke test of the benchmark harness (``pytest benchmarks/perf``; not tier-1).

Runs the suite at ``--quick`` scale, validates its output against
``BENCHMARK.json``, and checks the properties later PRs rely on: exact
counters repeat, every wrap target resolves at HEAD, a vanished target
degrades to ``None`` instead of crashing, and a quick run can never
overwrite the committed record.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = [sys.executable, str(HERE / "bench.py")]


def _quick_suite(out: Path) -> dict:
    subprocess.run(
        BENCH + ["--quick", "--seed", "3", "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    started = time.perf_counter()
    document = _quick_suite(tmp_path_factory.mktemp("perf") / "quick.json")
    document["wall_s"] = time.perf_counter() - started
    return document


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 x workloads runs, each well inside its share of the 3420 s cap.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 13) <= 3420


def test_quick_suite_reports_every_declared_metric(quick):
    assert quick["wall_s"] < 30.0
    assert quick["quick"] is True
    assert set(quick["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    expected_e2e = {m["name"] for m in SPEC["end_to_end"]} | set(bench.SUITE_ONLY_UNITS)
    expected_layers = {m["name"] for m in SPEC["per_layer"]}
    for name, report in quick["workloads"].items():
        assert report["failed"] == 0, report["warnings"]
        assert not [w for w in report["warnings"] if "resolves" in w]
        assert set(report["end_to_end"]) == expected_e2e, name
        assert set(report["per_layer"]) == expected_layers, name
        for summary in report["end_to_end"].values():
            assert summary["n"] >= 1 and summary["quiet"] <= summary["median"] <= summary["max"]
            assert summary["value"] > 0 or summary["quiet"] == 0
        assert 0.3 < report["machine_slowdown"] < 10
        in_worker_blind = name == "pr_process"
        for metric, value in report["per_layer"].items():
            if value is None:
                assert in_worker_blind or metric.startswith(("parallel.", "runtime.round_ms_p99"))
        if not in_worker_blind:
            e2e = report["end_to_end"]
            wire = e2e["comm_bytes"]["value"] + e2e["construction_bytes"]["value"]
            assert report["per_layer"]["transport.bytes"] == wire


def test_exact_counters_repeat_across_invocations(quick, tmp_path):
    again = _quick_suite(tmp_path / "again.json")
    for name, report in quick["workloads"].items():
        for metric in bench.EXACT:
            assert (
                again["workloads"][name]["end_to_end"][metric]["value"]
                == report["end_to_end"][metric]["value"]
            ), (name, metric)


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace):
    done = subprocess.run(
        BENCH + ["--workload", "bfs_sparse", "--seed", "5", "--quick", "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf")
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/bench.py", "--workload", "pr_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _session_members(sid: int) -> list:
    """Command lines of the live processes (zombies too) of one session."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
                if int(fields[3]) == sid:
                    members.append((entry / "cmdline").read_text().replace("\0", " "))
            except OSError:
                pass
    return members


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_the_benchmark(trace):
    # The process runtime's shared memory starts multiprocessing's
    # resource tracker, which by itself ends only after its parent has.
    child = subprocess.Popen(
        BENCH + ["--workload", "pr_process", "--seed", "5", "--quick", "--trace", str(trace)],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert child.wait(timeout=120) == 0
    assert _session_members(child.pid) == []


def test_stop_children_ends_stragglers_and_waits():
    script = (
        "import multiprocessing, os, sys, time\n"
        "from multiprocessing import shared_memory\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import bench\n"
        "def worker():\n"
        "    if os.fork() == 0:\n"
        "        time.sleep(60)\n"
        "    time.sleep(60)\n"
        "multiprocessing.get_context('fork').Process(target=worker).start()\n"
        "shm = shared_memory.SharedMemory(create=True, size=16)\n"
        "shm.close(); shm.unlink()\n"
        "time.sleep(0.5)\n"
        "assert len(bench._descendants()) == 3, bench._descendants()\n"
        "bench.stop_children()\n"
        "assert bench._descendants() == {}, bench._descendants()\n"
    )
    child = subprocess.Popen([sys.executable, "-c", script], start_new_session=True)
    assert child.wait(timeout=60) == 0
    assert _session_members(child.pid) == []


def test_every_wrap_target_resolves_at_head():
    import repro.systems  # noqa: F401  (loads engines, partitioners, runtimes)

    unresolved = [t.span for t in layers.WRAP_TABLE if not layers.resolve(t)]
    assert unresolved == []
    for target in layers.WRAP_TABLE:
        assert not any(part.startswith("_") for part in target.attr.split("."))


def test_vanished_target_degrades_to_unresolved(monkeypatch):
    ghost = layers.Target("ghost.span", "repro.no_such_module", "gone")
    renamed = layers.Target("ghost.method", "repro.core.substrate", "GluonSubstrate.no_such")
    monkeypatch.setattr(layers, "WRAP_TABLE", (ghost, renamed) + layers.WRAP_TABLE[:1])
    import repro.systems

    original = repro.systems.prepare_input
    with layers.LayerTracer() as tracer:
        assert repro.systems.prepare_input is not original
        assert tracer.unresolved == ["ghost.span", "ghost.method"]
    assert repro.systems.prepare_input is original


def test_self_time_subtracts_children():
    spans = [
        ("runtime.run", 0.0, 10.0, -1, 0),
        ("memoization.setup", 1.0, 3.0, 0, 0),
        ("runtime.round", 4.0, 9.0, 0, 0),
        ("engine.compute", 5.0, 7.0, 2, 11),
    ]
    totals = layers.aggregate(spans)
    assert totals["runtime.run"].self_s == pytest.approx(3.0)
    assert totals["runtime.round"].self_s == pytest.approx(3.0)
    assert totals["engine.compute"].amount == 11
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)
    assert layers.split_run_residue(spans) == pytest.approx((2.0, 1.0))


def test_quiet_timings_take_the_fastest_instance_of_every_piece():
    import numpy as np
    import workloads

    def sample(events, cpu):
        timings = {"cpu_s": cpu, "total_s": events[-1] - events[0]}
        return timings, (np.array(events, dtype=float), (1, 3))

    # Pieces: set-up, two rounds, tail.  Each repeat is disturbed elsewhere.
    disturbed = [sample([0, 5, 6, 7, 8], 8.0), sample([10, 11, 15, 16, 17], 7.0),
                 sample([20, 21, 22, 23, 27], 7.0)]
    quiet = workloads._quiet_timings(disturbed)
    assert quiet["total_s"] == pytest.approx(4.0)
    assert quiet["solve_s"] == pytest.approx(2.0)
    assert quiet["setup_s"] == pytest.approx(2.0)
    assert quiet["cpu_s"] == pytest.approx(4.0)  # busy share 1.0 of the quiet wall
    ragged = disturbed + [sample([30, 31, 32, 33], 3.0)]
    assert workloads._quiet_timings(ragged) is None


def test_slowdown_is_the_piecewise_minimum_of_the_yardstick():
    import workloads

    quiet = workloads.YARDSTICK_QUIET_S
    yards = [(0.5 * quiet, 3.0 * quiet), (2.0 * quiet, 1.0 * quiet), (4.0 * quiet, 4.0 * quiet)]
    assert workloads.machine_slowdown(yards) == pytest.approx(1.5)
    summary = workloads._summary([3.0, 4.0, 6.0], 2.4, slowdown=1.5)
    assert summary["value"] == pytest.approx(1.6) and summary["quiet"] == 2.4
    assert summary["median"] == 4.0 and summary["max"] == 6.0
    assert all(piece > 0 for piece in workloads.yardstick())


def test_quick_run_is_never_recorded(quick):
    target = bench.RESULTS / "must-not-exist.json"
    with pytest.raises(SystemExit):
        bench.write_out(str(target), quick)
    assert not target.exists()


def test_compare_flags_regressions_and_exact_drift(quick):
    assert bench.compare(quick, quick, symmetric=True) == []
    worse = json.loads(json.dumps(quick))
    worse["workloads"]["pr_dense"]["end_to_end"]["solve_s"]["value"] *= 1.5
    worse["workloads"]["cc_setup"]["end_to_end"]["comm_bytes"]["value"] += 1
    problems = bench.compare(quick, worse, symmetric=False)
    assert len(problems) == 2
    assert "pr_dense.solve_s" in problems[0] and "cc_setup.comm_bytes" in problems[1]


def test_new_files_pass_lint():
    ruff = shutil.which("ruff")
    command = (
        [ruff, "check", str(HERE)] if ruff
        else [sys.executable, str(ROOT / "tools" / "check_lint.py"), str(HERE)]
    )
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 0, done.stdout
