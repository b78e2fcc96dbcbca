"""The per-field (no-aggregation) ablation, derived from one traced run.

A per-field wire sends every staged sub-message as its own transport
message, so each round's message count, byte volume and simulated
communication time are a pure function of an aggregated run's staged
sub-messages (:func:`repro.analysis.experiments.per_field_rounds`).
``tests/golden/per_field_wire.json`` holds, per cell and per round, what
the per-field wire itself sent — ``[messages, bytes, comm_time as
float.hex]`` — recorded from real per-field runs at the commit it
names, the last one to have that wire.  The derivation must reproduce
every round with ``==``: counts, bytes and the float time.  The
wide-field cells under ``delta`` were re-derived when the lossless wire
began to ship each message as rows or as a delta, whichever is fewer
bytes: only their bytes and times moved, every one of them down, and
the derivation was exact against the recorded wire for both forms.

Cells: every app on ``test_aggregation.py``'s graph × {oec, cvc} ×
{UNOPT, OSTI}; sssp over five policies × all four levels; bc on every
distributed system (GPU engines price host<->device copies per byte);
every wide-field app × both wire compressions × {oec, cvc, hvc} (a
codec sizes each field's sub-message on its own); and the benchmark
cell, bc on rmat22s.  A scalar cell runs the default ``delta``.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import per_field_rounds
from repro.core.optimization import OptimizationLevel
from repro.graph.generators import rmat
from repro.observability import Observability
from repro.observability.metrics import NULL_METRICS
from repro.systems import run_app
from repro.workloads import load_workload
from tests.conftest import DISTRIBUTED_SYSTEMS

RECORDED = Path(__file__).resolve().parents[1] / "golden" / "per_field_wire.json"

GRAPH = {"scale": 8, "edge_factor": 6, "seed": 13}
APPS = ("bc", "bfs", "cc", "kcore", "pr", "pr-push", "sssp")
LEVELS = tuple(level.value for level in OptimizationLevel)
WIDE_APPS = ("featprop", "featprop-mean", "labelprop", "sage")


def cells():
    """Every ``graph/system/app/policy/level/compression`` cell name."""
    for app in APPS:
        for policy in ("oec", "cvc"):
            for level in ("unopt", "osti"):
                yield f"rmat8/d-galois/{app}/{policy}/{level}/delta"
    for policy in ("oec", "iec", "cvc", "hvc", "jagged"):
        for level in LEVELS:
            if policy not in ("oec", "cvc") or level not in ("unopt", "osti"):
                yield f"rmat8/d-galois/sssp/{policy}/{level}/delta"
    for system in DISTRIBUTED_SYSTEMS[1:]:
        yield f"rmat8/{system}/bc/cvc/osti/delta"
    for app in WIDE_APPS:
        for compression in ("delta", "fp16"):
            for policy in ("oec", "cvc", "hvc"):
                yield f"rmat8/d-galois/{app}/{policy}/osti/{compression}"
    yield "rmat22s/d-galois/bc/cvc/default/delta"


def run_cell(name, **options):
    """Run cell ``name`` on 4 hosts (``options`` go to ``run_app``)."""
    graph, system, app, policy, level, compression = name.split("/")
    edges = rmat(**GRAPH) if graph == "rmat8" else load_workload(graph)
    if level != "default":
        options["level"] = OptimizationLevel.from_name(level)
    return run_app(
        system, app, edges, num_hosts=4, policy=policy, compression=compression, **options
    )


def derived(name):
    """Cell ``name``'s per-field rounds, derived from a traced aggregated run."""
    result = run_cell(name, observability=Observability(metrics=NULL_METRICS))
    return [
        [traffic.num_messages, traffic.total_bytes, comm_time.hex()]
        for traffic, comm_time in per_field_rounds(result)
    ]


CELLS = json.loads(RECORDED.read_text())["cells"]


def test_file_covers_every_cell():
    assert sorted(CELLS) == sorted(cells())


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_derivation_reproduces_the_per_field_wire(cell):
    assert derived(cell) == CELLS[cell], cell


def test_derivation_needs_one_traced_run():
    cell = "rmat8/d-galois/bfs/cvc/osti/delta"
    with pytest.raises(ValueError, match="traced, fault-free run"):
        per_field_rounds(run_cell(cell))
    shared = Observability(metrics=NULL_METRICS)
    run_cell(cell, observability=shared)
    with pytest.raises(ValueError, match="more than one run"):
        per_field_rounds(run_cell(cell, observability=shared))
