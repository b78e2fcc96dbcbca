"""The process runtime end to end: bitwise identity with the simulated
runtime across applications, policies, engines, worker counts, and comm
modes — plus the guard rails and the measured wall-clock columns."""

from __future__ import annotations

import contextlib
import gc
import mmap
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.apps import make_app
from repro.engines import make_engine
from repro.errors import ExecutionError
from repro.observability import Observability
from repro.partition import make_partitioner
from repro.resilience import FaultPlan, ResilienceConfig
from repro.resilience.faults import CrashFault
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="the process runtime needs a POSIX /dev/shm"
)

#: Every application and the state field its answer lives in.
APPS = [
    ("bfs", "dist"),
    ("sssp", "dist"),
    ("cc", "label"),
    ("pr", "rank"),
    ("pr-push", "rank"),
    ("kcore", "alive"),
    ("bc", "delta"),
]


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test here must leave /dev/shm exactly as it found it."""
    before = set(os.listdir(SHM_DIR))
    yield
    gc.collect()
    leaked = set(os.listdir(SHM_DIR)) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def build_executor(edges, app_name="bfs", policy="cvc", num_hosts=4, **kw):
    prep = prepare_input(app_name, edges)
    partitioned = make_partitioner(policy).partition(prep.edges, num_hosts)
    return DistributedExecutor(
        partitioned,
        make_engine("galois"),
        make_app(app_name),
        prep.ctx,
        **kw,
    )


def assert_identical(sim, proc, key):
    """The process run must be bitwise the simulated run, wall aside."""
    assert proc.num_rounds == sim.num_rounds
    assert proc.converged == sim.converged
    assert proc.total_time == sim.total_time  # exact float equality
    assert proc.communication_volume == sim.communication_volume
    assert proc.communication_messages == sim.communication_messages
    assert proc.construction_bytes == sim.construction_bytes
    assert proc.translations == sim.translations
    assert proc.replication_factor == sim.replication_factor
    np.testing.assert_array_equal(
        proc.executor.gather_result(key), sim.executor.gather_result(key)
    )


class TestBitwiseIdentity:
    @pytest.mark.parametrize("app_name,key", APPS)
    @pytest.mark.parametrize("policy", ["oec", "cvc"])
    def test_every_app_and_policy(self, tiny_edges, app_name, key, policy):
        sim = run_app(
            "d-galois", app_name, tiny_edges, num_hosts=4, policy=policy
        )
        proc = run_app(
            "d-galois",
            app_name,
            tiny_edges,
            num_hosts=4,
            policy=policy,
            runtime="process",
            workers=2,
        )
        assert_identical(sim, proc, key)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_never_changes_the_answer(self, small_rmat, workers):
        sim = run_app("d-galois", "pr", small_rmat, num_hosts=4, policy="oec")
        proc = run_app(
            "d-galois",
            "pr",
            small_rmat,
            num_hosts=4,
            policy="oec",
            runtime="process",
            workers=workers,
        )
        assert_identical(sim, proc, "rank")

    def test_single_host_degenerate_cluster(self, tiny_edges):
        sim = run_app("d-galois", "bfs", tiny_edges, num_hosts=1)
        proc = run_app(
            "d-galois", "bfs", tiny_edges, num_hosts=1, runtime="process"
        )
        assert_identical(sim, proc, "dist")

    def test_other_engines(self, tiny_edges):
        for system in ("d-ligra", "d-hybrid"):
            sim = run_app(system, "bfs", tiny_edges, num_hosts=4)
            proc = run_app(
                system,
                "bfs",
                tiny_edges,
                num_hosts=4,
                runtime="process",
                workers=2,
            )
            assert_identical(sim, proc, "dist")

    def test_transient_faults_still_converge_to_the_truth(self, tiny_edges):
        """Drop/corrupt/dup plans run under the process runtime; the
        reliability layer recovers, so the answer matches the clean run.
        (Recovery *accounting* is runtime-specific by design: worker
        fleets draw fault fates in per-worker order.)"""
        clean = run_app("d-galois", "bfs", tiny_edges, num_hosts=4)
        faulty = run_app(
            "d-galois",
            "bfs",
            tiny_edges,
            num_hosts=4,
            runtime="process",
            workers=2,
            resilience=ResilienceConfig(
                plan=FaultPlan(
                    drop_rate=0.05,
                    corrupt_rate=0.05,
                    duplicate_rate=0.05,
                    seed=11,
                )
            ),
        )
        assert faulty.converged
        assert faulty.recovery_bytes > 0  # the plan actually fired
        np.testing.assert_array_equal(
            faulty.executor.gather_result("dist"),
            clean.executor.gather_result("dist"),
        )


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail (and let the runner abort its fleet) instead of hanging."""

    def expired(signum, frame):
        raise TimeoutError(f"the run did not finish within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestDeadPhases:
    """A phase the sync plan calls dead is skipped by every worker or by
    none — the verdict is cluster-wide, never read off a worker's own
    hosts.  On a directed path over two hosts the only sender of the one
    live phase is host 0: judged from its own routes, host 1's worker
    would skip that phase and never emit the end-of-phase markers host
    0's worker waits for."""

    @pytest.mark.parametrize(
        "app_name, policy, key, live, params",
        [
            ("bfs", "oec", "dist", "reduce", {}),
            ("featprop", "iec", "feat", "broadcast",
             {"feature_dim": 4, "feature_rounds": 3, "compression": "delta"}),
        ],
        ids=["bfs-oec", "featprop-iec"],
    )
    def test_two_workers_agree_on_what_is_dead(
        self, small_path, app_name, policy, key, live, params
    ):
        job = dict(num_hosts=2, policy=policy, **params)
        sim = run_app("d-galois", app_name, small_path, **job)
        sends = [sub.plan.fields[0].sends[live] for sub in sim.executor.substrates]
        dead = "broadcast" if live == "reduce" else "reduce"
        for sub in sim.executor.substrates:
            assert sub.plan.live(live) and not sub.plan.live(dead)
        # Worker-local evidence disagrees: only one host sends at all.
        assert [bool(pairs) for pairs in sends] == [True, False]
        with deadline(60):
            proc = run_app(
                "d-galois", app_name, small_path, runtime="process", workers=2, **job
            )
        assert_identical(sim, proc, key)
        assert proc.mode_counts == sim.mode_counts


class TestLifecycle:
    def test_resume_after_max_rounds(self, tiny_edges):
        sim = run_app("d-galois", "bfs", tiny_edges, num_hosts=4)
        ex = build_executor(tiny_edges, runtime="process", workers=2)
        partial = ex.run(max_rounds=2)
        assert not partial.converged
        resumed = ex.run(resume=partial)
        assert resumed.converged
        assert resumed.num_rounds == sim.num_rounds
        assert resumed.total_time == sim.total_time
        np.testing.assert_array_equal(
            ex.gather_result("dist"), sim.executor.gather_result("dist")
        )

    def test_converged_executor_is_single_use(self, tiny_edges):
        ex = build_executor(tiny_edges, runtime="process", workers=2)
        ex.run()
        with pytest.raises(ExecutionError, match="already converged"):
            ex.run()

    def test_wall_clock_and_runtime_are_reported(self, tiny_edges):
        result = run_app(
            "d-galois",
            "bfs",
            tiny_edges,
            num_hosts=4,
            runtime="process",
            workers=2,
        )
        assert result.runtime == "process"
        assert result.wall_rounds_s > 0.0
        import json

        payload = json.loads(result.to_json())
        assert payload["measured"]["runtime"] == "process"
        assert payload["measured"]["wall_rounds_s"] == result.wall_rounds_s

    def test_simulated_runs_report_their_runtime_too(self, tiny_edges):
        result = run_app("d-galois", "bfs", tiny_edges, num_hosts=4)
        assert result.runtime == "simulated"

    def test_metrics_reconcile_across_runtimes(self, tiny_edges):
        sim_obs, proc_obs = Observability(), Observability()
        sim = run_app(
            "d-galois",
            "bfs",
            tiny_edges,
            num_hosts=4,
            observability=sim_obs,
        )
        proc = run_app(
            "d-galois",
            "bfs",
            tiny_edges,
            num_hosts=4,
            observability=proc_obs,
            runtime="process",
            workers=2,
        )
        for name in ("bytes_sent_total", "bytes_recv_total", "messages_total"):
            assert proc_obs.metrics.counter_total(
                name
            ) == sim_obs.metrics.counter_total(name)
        assert proc_obs.metrics.counter_total("bytes_sent_total") == (
            proc.communication_volume + proc.construction_bytes
        )
        assert proc.mode_counts == sim.mode_counts


class StepCountingBfs(type(make_app("bfs"))):
    """bfs, except that each host counts its kernel calls in a state
    entry of its own — a scalar no arena slot holds."""

    def step(self, part, state, frontier, direction="push"):
        state["steps"] = state.get("steps", 0) + 1
        return super().step(part, state, frontier, direction)


class TestFinalState:
    def test_finish_hands_the_arena_to_the_executor(self, tiny_edges):
        """After the run, each host's ndarray state *is* its arena view:
        backed by the shared mapping, writable, equal to the simulated
        run's state."""
        sim = build_executor(tiny_edges)
        sim.run()
        ex = build_executor(tiny_edges, runtime="process", workers=2)
        ex.run()
        assert len(ex.states) == len(sim.states) == 4
        for h, state in enumerate(ex.states):
            arrays = {
                key: value for key, value in state.items()
                if isinstance(value, np.ndarray)
            }
            assert arrays.keys() == {
                key for key, value in sim.states[h].items()
                if isinstance(value, np.ndarray)
            }
            assert arrays, h
            for key, view in arrays.items():
                base = view
                while isinstance(base, np.ndarray):
                    base = base.base
                assert isinstance(base, mmap.mmap), (h, key)
                assert view.flags.writeable
                np.testing.assert_array_equal(view, sim.states[h][key])
                assert view.dtype == sim.states[h][key].dtype

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("app_name", ["pr", "featprop"])
    def test_the_arena_holds_node_state_only(
        self, small_rmat, monkeypatch, app_name, workers
    ):
        """No arena entry is edge-sized: every host's edge arrays are
        built on its graph in the coordinator before the fork, and the
        workers inherit them."""
        import repro.parallel.coordinator as coordinator

        laid_out, built = {}, []

        def spy(layout):
            laid_out.update(layout)
            # What exists when the arena is laid out, just before the fork.
            built.extend(part.graph._edge_arrays is not None for part in parts)
            return shared_arrays(layout)

        shared_arrays = coordinator.shared_arrays
        monkeypatch.setattr(coordinator, "shared_arrays", spy)
        ex = build_executor(
            small_rmat, app_name, runtime="process", workers=workers
        )
        parts = ex.partitioned.partitions
        ex.run(max_rounds=3)
        assert built == [True] * len(parts)
        assert laid_out
        for (h, key), (shape, _) in laid_out.items():
            assert parts[h].num_nodes != parts[h].graph.num_edges
            assert shape[0] == parts[h].num_nodes, (h, key)

    def test_a_workers_new_state_entries_come_back(self, tiny_edges):
        """An entry a worker added to a host's state is reported as
        divergent and lands in the executor's state dict."""
        prep = prepare_input("bfs", tiny_edges)
        partitioned = make_partitioner("cvc").partition(prep.edges, 4)
        runs = [
            DistributedExecutor(
                partitioned, make_engine("galois"), StepCountingBfs(),
                prep.ctx, **kw,
            )
            for kw in ({}, {"runtime": "process", "workers": 2})
        ]
        for ex in runs:
            ex.run()
        sim, proc = runs
        counts = [state.get("steps") for state in proc.states]
        assert counts == [state.get("steps") for state in sim.states]
        assert any(counts), counts


class TestGuards:
    def test_unknown_runtime(self, tiny_edges):
        with pytest.raises(ExecutionError, match="unknown runtime"):
            build_executor(tiny_edges, runtime="quantum")

    def test_workers_require_the_process_runtime(self, tiny_edges):
        with pytest.raises(ExecutionError, match="workers only applies"):
            build_executor(tiny_edges, workers=2)

    def test_sanitizer_is_simulated_only(self, tiny_edges):
        with pytest.raises(ExecutionError, match="sanitizer requires"):
            build_executor(tiny_edges, runtime="process", sanitize=True)

    def test_crash_plans_are_simulated_only(self, tiny_edges):
        config = ResilienceConfig(
            plan=FaultPlan(crashes=(CrashFault(2, 1),), seed=1)
        )
        with pytest.raises(ExecutionError, match="crash-fault plans require"):
            build_executor(tiny_edges, runtime="process", resilience=config)

    def test_checkpoints_are_simulated_only(self, tiny_edges):
        config = ResilienceConfig(checkpoint_every=2)
        with pytest.raises(
            ExecutionError, match="periodic checkpoints require"
        ):
            build_executor(tiny_edges, runtime="process", resilience=config)

    def test_repartition_is_simulated_only(self, tiny_edges):
        ex = build_executor(tiny_edges, runtime="process", workers=2)
        partial = ex.run(max_rounds=1)
        prep = prepare_input("bfs", tiny_edges)
        other = make_partitioner("oec").partition(prep.edges, 4)
        with pytest.raises(
            ExecutionError, match="repartitioning requires"
        ):
            ex.repartition(other, partial)
