"""Ablation: per-peer cross-field message aggregation (the comm plane).

bc's forward sweep synchronizes two fields (``dist`` MIN, ``sigma_acc``
ADD) per phase, so staging both on one per-peer channel must halve that
sweep's message count; the single-field backward sweep keeps message
parity.  Only the wire shape and the simulated communication time move —
the answers are bitwise identical either way
(``tests/integration/test_aggregation.py``).
"""

from benchmarks.conftest import emit, once
from repro.analysis.tables import format_table
from repro.systems import run_app
from repro.workloads import load_workload


def aggregation_rows(scale_delta=0, hosts=4):
    edges = load_workload("rmat22s", scale_delta)
    runs = {
        mode: run_app(
            "d-galois", "bc", edges, num_hosts=hosts, policy="cvc",
            aggregate_comm=aggregate,
        )
        for mode, aggregate in (("aggregated", True), ("per-field", False))
    }
    # The two-field (forward) rounds are exactly those where the
    # ablation sent more messages.
    two_field = [
        index
        for index, (agg, per_field) in enumerate(
            zip(runs["aggregated"].rounds, runs["per-field"].rounds)
        )
        if agg.comm_messages != per_field.comm_messages
    ]
    return [
        {
            "mode": mode,
            "messages": result.communication_messages,
            "two_field_messages": sum(
                result.rounds[index].comm_messages for index in two_field
            ),
            "sim_comm_us": round(
                sum(r.comm_time for r in result.rounds) * 1e6, 2
            ),
            "total_bytes": result.communication_volume,
        }
        for mode, result in runs.items()
    ]


def test_aggregation_halves_the_two_field_sweep(benchmark):
    aggregated, per_field = once(benchmark, aggregation_rows)
    emit(
        "ablation_aggregation",
        format_table(
            [aggregated, per_field],
            "Message aggregation: bc, cvc, 4 hosts (rmat22s)",
        ),
    )
    # The acceptance bar: one two-slot frame replaces two per-field
    # messages on every peer pair of the forward sweep.
    assert (
        per_field["two_field_messages"]
        >= 2 * aggregated["two_field_messages"] > 0
    )
    assert aggregated["messages"] < per_field["messages"]
    assert aggregated["sim_comm_us"] < per_field["sim_comm_us"]
