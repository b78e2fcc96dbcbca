"""Extension: dead sync phases proved by the dataflow analyzer (GL301).

Under an edge cut one direction of every wire is structurally idle:
under iec a mirror has no in-edges, so a destination-written wire's
reduce is dead; under oec a mirror has no out-edges, so a source-read
wire's broadcast is dead.  For every spec the analyzer's proof is
recorded next to a run of ``<app>`` against ``<app>@optimized``, at the
OTI level — where temporal elision still ships empty-payload messages,
so a dropped phase is visible as a message-count cut.  The eliminations
must be free (bitwise-equal answers) *and* real (fewer messages).
"""

import numpy as np

from benchmarks.conftest import emit, once
from repro.analysis.dataflow import dead_sync_table, graph_from_spec
from repro.analysis.tables import format_table
from repro.apps.specs import PROGRAM_SPECS
from repro.core.optimization import OptimizationLevel
from repro.systems import run_app
from repro.verify import output_key
from repro.workloads import load_workload


def dataflow_rows(scale_delta=0, hosts=4):
    edges = load_workload("rmat22s", scale_delta)
    rows = []
    for app in sorted(PROGRAM_SPECS):
        dead = dead_sync_table(graph_from_spec(PROGRAM_SPECS[app]))
        key = output_key(app)
        for policy in ("iec", "oec"):
            plain, optimized = [
                run_app(
                    "d-galois", name, edges, num_hosts=hosts, policy=policy,
                    level=OptimizationLevel.OTI,
                )
                for name in (app, f"{app}@optimized")
            ]
            expected = plain.executor.gather_result(key)
            got = optimized.executor.gather_result(key)
            assert got.dtype == expected.dtype and np.array_equal(
                got, expected
            ), f"{app}/{policy}: optimized build diverged from the plain one"
            rows.append(
                {
                    "app": app,
                    "policy": policy,
                    "dead_phases": ", ".join(
                        f"{wire}:{phase}"
                        for wire, phases in dead.get(policy, {}).items()
                        for phase in phases
                    )
                    or "-",
                    "rounds": optimized.num_rounds,
                    "messages": plain.communication_messages,
                    "messages_optimized": optimized.communication_messages,
                    "bytes": plain.communication_volume,
                    "bytes_optimized": optimized.communication_volume,
                    "bitwise_identical": True,
                }
            )
    return rows


def test_dead_phases_are_free_and_real(benchmark):
    rows = once(benchmark, dataflow_rows)
    emit(
        "extension_dataflow",
        format_table(
            rows, "Dead-sync elimination: 4 hosts, OTI (rmat22s)"
        ),
    )
    for row in rows:
        assert row["messages_optimized"] <= row["messages"], row
        # A proof is worth a phase: where one exists the cut is real,
        # where none does (bfs/oec: the pull phase reads dist at the
        # destination, so the broadcast survives) nothing moves.
        if row["dead_phases"] == "-":
            assert row["messages_optimized"] == row["messages"], row
        else:
            assert row["messages_optimized"] < row["messages"], row
    assert any(row["dead_phases"] != "-" for row in rows), "GL301 regressed"
