"""Smoke tests for the benchmark harness (benchmarks/run_bench.py)."""

import json
from pathlib import Path

import pytest

from benchmarks import run_bench


class TestSmokeMatrix:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("bench")
        output = tmp / "BENCH_test.json"
        code = run_bench.main(
            [
                "--smoke",
                "--output", str(output),
                "--export-dir", str(tmp / "exports"),
            ]
        )
        assert code == 0
        return json.loads(output.read_text()), tmp

    def test_emits_full_matrix(self, payload):
        doc, _ = payload
        assert doc["smoke"] is True
        assert len(doc["matrix"]) == len(run_bench.SMOKE_APPS) * len(
            run_bench.DEFAULT_POLICIES
        ) * len(run_bench.SMOKE_HOSTS)

    def test_rows_carry_the_three_perf_axes(self, payload):
        doc, _ = payload
        for row in doc["matrix"]:
            assert row["wall_s"] >= 0
            assert row["sim_time_s"] > 0
            assert row["total_bytes"] > 0
            assert row["rounds"] >= 1
            assert row["converged"] is True
            assert row["reconciled"] is True

    def test_smoke_exports_traces_and_metrics(self, payload):
        doc, tmp = payload
        exports = tmp / "exports"
        traces = sorted(exports.glob("*.trace.json"))
        metrics = sorted(exports.glob("*.metrics.json"))
        assert len(traces) == len(doc["matrix"])
        assert len(metrics) == len(doc["matrix"])
        # Every exported trace is a well-formed Chrome trace document.
        for trace in traces:
            events = json.loads(trace.read_text())["traceEvents"]
            assert any(e["ph"] == "X" for e in events)

    def test_default_output_name_carries_the_date(self, payload):
        doc, _ = payload
        assert doc["date"] and len(doc["date"]) == 10  # YYYY-MM-DD

    def test_service_cell_reports_warm_speedup(self, payload):
        doc, _ = payload
        cell = doc["service"]
        assert cell is not None
        assert cell["jobs"] >= 2
        # Every warm job must have been served from the result cache...
        assert cell["result_cache_hits"] == cell["jobs"] * cell["repeats"]
        # ...and the acceptance bar is 2x; warm hits skip partitioning
        # and execution entirely, so in practice this is orders higher.
        assert cell["speedup"] >= 2.0
        assert cell["warm_jobs_per_s"] > cell["cold_jobs_per_s"]


    def test_aggregation_cell_reports_message_reduction(self, payload):
        doc, _ = payload
        cell = doc["aggregation"]
        assert cell is not None
        assert cell["app"] == "bc"
        # Two-field sweep: the acceptance bar is a 2x message cut.
        assert cell["two_field_reduction"] >= 2.0
        assert (
            cell["messages_aggregated"] < cell["messages_per_field"]
        )
        assert (
            cell["sim_comm_s_aggregated"] < cell["sim_comm_s_per_field"]
        )

    def test_incremental_cell_sweeps_affected_fractions(self, payload):
        doc, _ = payload
        cells = doc["incremental"]["cells"]
        assert cells, "smoke run must include the streaming cell"
        for cell in cells:
            assert cell["app"] in {"bfs", "sssp", "cc"}
            assert cell["partition_cache_reuses"] >= 0
            fractions = [r["mutated_fraction"] for r in cell["steps"]]
            assert fractions == sorted(fractions)  # a sweep, not a pile
            for row in cell["steps"]:
                # Every row is checked bitwise against a cold recompute.
                assert row["bitwise_identical"] is True
                assert row["streamed_messages"] <= row["cold_messages"]
                assert row["hosts_reused"] + row["hosts_rebuilt"] == (
                    cell["hosts"]
                )
                assert row["strategy"] in {"min-plus", "component", "replay"}
            # The ~1% bar row is present and recorded, even in smoke.
            assert cell["message_cut_at_1pct"] is not None

    def test_dataflow_cell_pairs_bare_with_optimized(self, payload):
        doc, _ = payload
        assert "compiler" not in doc  # nothing left to pair
        cell = doc["dataflow"]
        assert cell is not None
        assert cell["syncs_eliminated_total"] > 0
        assert cell["cells"], "smoke run must include optimized pairs"
        for app in cell["cells"]:
            for row in app["policies"]:
                assert row["bitwise_identical"] is True
                assert row["messages_optimized"] <= row["messages"]


class TestNoService:
    def test_flag_skips_the_service_cell(self, tmp_path):
        output = tmp_path / "BENCH_test.json"
        code = run_bench.main(
            [
                "--smoke",
                "--no-service",
                "--no-aggregation-cell",
                "--no-incremental-cell",
                "--no-dataflow-cell",
                "--output", str(output),
                "--export-dir", str(tmp_path / "exports"),
            ]
        )
        assert code == 0
        doc = json.loads(output.read_text())
        assert doc["service"] is None
        assert doc["aggregation"] is None
        assert doc["incremental"] is None
        assert doc["dataflow"] is None


class TestSmokeOutputPath:
    def test_smoke_without_output_stays_out_of_the_repo(
        self, tmp_path, capsys
    ):
        """Only a full run may write the tracked BENCH_<date>.json."""
        root = Path(run_bench.__file__).resolve().parent.parent
        tracked = {p: p.stat().st_mtime_ns for p in root.glob("BENCH_*.json")}
        code = run_bench.main(
            [
                "--smoke",
                "--policies", "oec",
                "--hosts", "2",
                "--no-service",
                "--no-aggregation-cell",
                "--no-parallel-cell",
                "--no-features-cell",
                "--no-incremental-cell",
                "--no-dataflow-cell",
                "--export-dir", str(tmp_path / "exports"),
            ]
        )
        assert code == 0
        written = Path(
            capsys.readouterr().out.rsplit("wrote ", 1)[1].rsplit(" (", 1)[0]
        )
        assert json.loads(written.read_text())["smoke"] is True
        assert root not in written.parents
        assert {
            p: p.stat().st_mtime_ns for p in root.glob("BENCH_*.json")
        } == tracked
