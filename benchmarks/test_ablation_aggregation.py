"""Ablation: per-peer cross-field message aggregation (the comm plane).

bc's forward sweep synchronizes two fields (``dist`` MIN, ``sigma_acc``
ADD) per phase, so staging both on one per-peer channel must halve that
sweep's message count; the single-field backward sweep keeps message
parity.  Both rows come from one traced aggregated run: the per-field
wire is derived from its staged sub-messages
(:func:`repro.analysis.experiments.aggregation_rows`, pinned against
real per-field runs by ``tests/integration/test_per_field_ablation.py``).
"""

from benchmarks.conftest import emit, once
from repro.analysis.experiments import aggregation_rows
from repro.analysis.tables import format_table


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
