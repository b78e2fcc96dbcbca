"""Tiny-scale smoke tests for the remaining experiment harnesses.

The benchmark suite runs these at full scale; here they run at minimal
scale so a refactor that breaks a harness's plumbing fails in seconds.
"""

from benchmarks.test_extension_compression import compression_rows
from benchmarks.test_extension_dataflow import dataflow_rows
from benchmarks.test_extension_incremental import incremental_rows
from repro.analysis import experiments
from repro.analysis.tables import format_table


def test_table2_smoke():
    rows = experiments.table2_rows(
        scale_delta=-3, hosts=(2,), inputs=("rmat24s",)
    )
    assert len(rows) == 3
    assert {row["system"] for row in rows} == {"d-ligra", "d-galois", "gemini"}
    format_table(rows)


def test_table2_single_host_smoke():
    rows = experiments.table2_single_host_rows(
        scale_delta=-3, inputs=("rmat22s",)
    )
    assert len(rows) == 3
    assert all(row["construction_s"] > 0 for row in rows)


def test_table4_smoke():
    rows = experiments.table4_rows(
        scale_delta=-3, inputs=("rmat24s",), apps=("bfs",)
    )
    assert len(rows) == 1
    for system in ("ligra", "d-ligra", "galois", "d-galois", "gemini"):
        assert rows[0][system] > 0


def test_table5_smoke():
    rows = experiments.table5_rows(
        scale_delta=-3, inputs=("rmat22s",), apps=("bfs",)
    )
    assert len(rows) == 1
    assert "gunrock" in rows[0]
    assert "d-irgl(cvc)" in rows[0]


def test_fig8_smoke():
    rows = experiments.fig8_series(
        scale_delta=-3,
        hosts=(2, 4),
        inputs=("rmat24s",),
        apps=("bfs",),
        systems=("d-galois",),
    )
    assert len(rows) == 2
    assert rows[0]["hosts"] == 2 and rows[1]["hosts"] == 4


def test_fig9_smoke():
    rows = experiments.fig9_series(
        scale_delta=-3, gpus=(4,), inputs=("rmat24s",), apps=("bfs",)
    )
    assert len(rows) == 1
    assert rows[0]["gpus"] == 4


def test_table3_smoke():
    rows = experiments.table3_rows(
        scale_delta=-3,
        cpu_hosts=(2,),
        gpu_hosts=(2,),
        inputs=("rmat24s",),
        apps=("bfs",),
    )
    assert len(rows) == 1
    assert "ms" in rows[0]["d-galois"]


def test_load_imbalance_smoke():
    rows = experiments.load_imbalance_rows(
        scale_delta=-3, num_hosts=2, inputs=("clueweb12s",), apps=("bfs",)
    )
    assert all(row["max/mean"] >= 1.0 for row in rows)


def test_headline_summary_smoke():
    rows = experiments.headline_summary(scale_delta=-3)
    assert len(rows) == 4
    assert all("measured" in row for row in rows)


# The four exact-count cells under benchmarks/ keep their rows function
# callable small; their acceptance bars only hold at full scale and live
# in the benchmark tests.


def test_aggregation_rows_smoke():
    aggregated, per_field = experiments.aggregation_rows(scale_delta=-5, hosts=4)
    format_table([aggregated, per_field])
    assert aggregated["mode"] == "aggregated"
    assert aggregated["messages"] < per_field["messages"]
    assert aggregated["sim_comm_us"] < per_field["sim_comm_us"]


def test_compression_rows_smoke():
    rows = compression_rows(scale_delta=-5, hosts=4)
    format_table(rows)
    assert [(row["d"], row["compression"]) for row in rows] == [
        (d, mode) for d in (8, 32, 128) for mode in ("rows-only", "delta", "fp16")
    ]
    for row in rows:
        assert row["bitwise_identical"] is True
        assert row["total_bytes"] > 0
        assert row["cut_vs_rows"] >= 1.0


def test_incremental_rows_smoke():
    hosts = 4
    rows = incremental_rows(scale_delta=-5, hosts=hosts)
    format_table(rows)
    assert {row["app"] for row in rows} == {"bfs", "sssp", "cc"}
    for row in rows:
        # Every row is checked bitwise against a cold recompute.
        assert row["bitwise_identical"] is True
        assert row["streamed_messages"] <= row["cold_messages"]
        assert row["hosts_reused"] + row["hosts_rebuilt"] == hosts
        assert row["strategy"] == "certified"
    for app in ("bfs", "cc"):  # a sweep, not a pile
        fractions = [
            row["mutated_fraction"] for row in rows if row["app"] == app
        ]
        assert fractions == sorted(fractions)


def test_dataflow_rows_smoke():
    rows = dataflow_rows(scale_delta=-5, hosts=2)
    format_table(rows)
    assert any(row["dead_phases"] != "-" for row in rows)
    for row in rows:
        assert row["bitwise_identical"] is True
        assert row["messages_optimized"] <= row["messages"]
