"""The shared round body (``repro.runtime.round``): one collective for
both runtimes, recovery, and tracing."""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.round as round_module
from repro.apps import make_app
from repro.core.optimization import OptimizationLevel
from repro.core.substrate import setup_substrates
from repro.core.sync_structures import MIN, FieldSpec
from repro.engines import make_engine
from repro.graph.generators import rmat
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from repro.resilience import FaultPlan, ResilienceConfig
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app
from tests.conftest import sync_one_field

EDGES = rmat(scale=8, edge_factor=6, seed=13)

#: A multi-field app and a wide-field app: answer key and run options.
APPS = {
    "bc": ("delta", {}),
    "featprop": ("feat", {"feature_dim": 16, "compression": "delta"}),
}


@pytest.mark.skipif(
    not Path("/dev/shm").is_dir(),
    reason="the process runtime needs a POSIX /dev/shm",
)
@pytest.mark.parametrize("app", sorted(APPS))
def test_one_collective_across_runtimes(app):
    key, options = APPS[app]
    simulated, process = [
        run_app(
            "d-galois", app, EDGES, num_hosts=4, policy="cvc",
            **options, **runtime,
        )
        for runtime in ({}, {"runtime": "process", "workers": 2})
    ]
    assert simulated.communication_volume == process.communication_volume
    assert simulated.communication_messages == process.communication_messages
    assert [r.comm_bytes for r in simulated.rounds] == [
        r.comm_bytes for r in process.rounds
    ]
    assert np.array_equal(
        simulated.executor.gather_result(key), process.executor.gather_result(key)
    )


def test_confined_recovery_heals_through_the_shared_collective(monkeypatch):
    calls = []
    shared = round_module.synchronize

    def counting(*args, **kwargs):
        calls.append(args)
        return shared(*args, **kwargs)

    monkeypatch.setattr(round_module, "synchronize", counting)
    plan = FaultPlan.parse("crash:1@3,drop:0.05,dup:0.05", seed=5)
    recovered = run_app(
        "d-galois", "bfs", EDGES, num_hosts=4, policy="cvc",
        resilience=ResilienceConfig(
            plan=plan, checkpoint_every=2, recovery="confined"
        ),
    )
    assert [e["mode"] for e in recovered.recovery_events] == ["confined"]
    # Every round plus the one healing round went through synchronize.
    assert len(calls) == recovered.num_rounds + 1
    clean = run_app("d-galois", "bfs", EDGES, num_hosts=4, policy="cvc")
    assert np.array_equal(
        recovered.executor.gather_result("dist"),
        clean.executor.gather_result("dist"),
    )


@pytest.mark.parametrize("phases", [{"reduce"}, {"reduce", "broadcast"}])
@pytest.mark.parametrize("policy", ["oec", "cvc"])
def test_a_frontier_not_seeded_with_the_step_gets_the_dirty_masters(
    monkeypatch, policy, phases
):
    """A caller's own frontier (recovery's, a test's empty set) receives
    every master the apply marks dirty — changed or written — whether or
    not the apply's set has a reader; forcing every phase live (the
    set always built) gives the same sets."""
    partitioned = make_partitioner(policy).partition(EDGES, 4)
    masks = {}
    for forced in (False, True):
        subs = setup_substrates(partitioned, InProcessTransport(4), OptimizationLevel.OSTI)
        fields = [
            FieldSpec(
                "v", np.arange(p.num_nodes, dtype=np.uint32)[::-1].copy(), MIN,
                sync_phases=phases,
            )
            for p in partitioned.partitions
        ]
        dirty = [
            np.random.default_rng(3).random(p.num_nodes) < 0.3
            for p in partitioned.partitions
        ]
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr("repro.core.patterns.SyncPlan.live", lambda *_: True)
            masks[forced] = sync_one_field(partitioned, subs, fields, dirty)
        for part, touched, written in zip(partitioned.partitions, masks[forced], dirty):
            m = part.num_masters
            assert (touched[:m] >= written[:m]).all()
    for obeyed, driven in zip(masks[False], masks[True]):
        assert np.array_equal(obeyed, driven)


def test_untraced_collective_never_reads_the_clock(monkeypatch):
    partitioned = make_partitioner("cvc").partition(EDGES, 4)
    transport = InProcessTransport(4)
    subs = setup_substrates(partitioned, transport, OptimizationLevel.OSTI)
    fields = [
        FieldSpec("v", np.full(p.num_nodes, 7, dtype=np.uint32), MIN)
        for p in partitioned.partitions
    ]
    dirty = [np.ones(p.num_nodes, dtype=bool) for p in partitioned.partitions]

    def no_clock():
        raise AssertionError("perf_counter read with no record sink")

    with monkeypatch.context() as patch:
        patch.setattr(time, "perf_counter", no_clock)
        sync_one_field(partitioned, subs, fields, dirty)
    # The sink is what turns the clock (and the records) on.
    record = []
    sync_one_field(partitioned, subs, fields, dirty, record=record)
    assert [label for label, *_ in record] == [
        "reduce:v", "framing:reduce", "broadcast:v", "framing:broadcast",
    ]


def test_hook_returning_none_broadcasts_the_changed_masters():
    """``on_master_after_reduce`` may return ``None`` ("broadcast the
    changed ones"): the run is the hook-less run, bit for bit."""
    bfs = make_app("bfs")

    class NoneHook(type(bfs)):
        def make_fields(self, part, state):
            return [
                dataclasses.replace(
                    field, on_master_after_reduce=lambda changed: None
                )
                for field in super().make_fields(part, state)
            ]

    prep = prepare_input("bfs", EDGES)
    partitioned = make_partitioner("cvc").partition(prep.edges, 2)
    runs = []
    for app in (bfs, NoneHook()):
        executor = DistributedExecutor(
            partitioned, make_engine("galois"), app, prep.ctx
        )
        runs.append((executor.run(), executor.gather_result("dist")))
    (plain, plain_dist), (hooked, hooked_dist) = runs
    assert plain_dist.dtype == hooked_dist.dtype
    assert plain_dist.tobytes() == hooked_dist.tobytes()
    assert [r.comm_bytes for r in hooked.rounds] == [
        r.comm_bytes for r in plain.rounds
    ]
    assert hooked.communication_messages == plain.communication_messages
