"""End-to-end recovery tests: crashed runs must finish bitwise identical."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExecutionError, FaultPlanError
from repro.resilience import (
    CrashFault,
    FaultPlan,
    ResilienceConfig,
    confined_applicable,
)
from repro.systems import run_app
from repro.verify import verify_run
from repro.workloads import load_workload
from tests.conftest import DISTRIBUTED_SYSTEMS, random_edges, sweep_settings


@pytest.fixture(scope="module")
def edges():
    return load_workload("rmat22s", -3)


@pytest.fixture(scope="module")
def baseline(edges):
    return run_app("d-galois", "bfs", edges, num_hosts=4)


def crash_config(round_index=2, mode="restart", every=1, **kwargs):
    return ResilienceConfig(
        plan=FaultPlan(crashes=(CrashFault(1, round_index),), seed=7),
        checkpoint_every=every,
        recovery=mode,
        **kwargs,
    )


class TestConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ExecutionError, match="recovery mode"):
            ResilienceConfig(recovery="pray")

    def test_negative_cadence_rejected(self):
        with pytest.raises(ExecutionError):
            ResilienceConfig(checkpoint_every=-1)

    def test_crash_beyond_cluster_rejected(self, edges):
        config = ResilienceConfig(
            plan=FaultPlan(crashes=(CrashFault(9, 2),))
        )
        with pytest.raises(FaultPlanError, match="cluster has 2"):
            run_app("d-galois", "bfs", edges, num_hosts=2, resilience=config)



class TestCheckpointRestart:
    @pytest.mark.parametrize("every", [1, 0], ids=["cadence-1", "no-cadence"])
    def test_bitwise_identical_after_crash(self, edges, baseline, every):
        """With no cadence nothing is stored: the restart rebuilds round 0
        from the input."""
        result = run_app(
            "d-galois", "bfs", edges, num_hosts=4,
            resilience=crash_config(mode="restart", every=every),
        )
        assert result.num_recoveries == 1
        assert result.recovery_events[0]["mode"] == "restart"
        assert result.recovery_events[0]["restored_round"] == every
        if every == 0:
            assert result.num_checkpoints == 0
        np.testing.assert_array_equal(
            result.executor.gather_result("dist"),
            baseline.executor.gather_result("dist"),
        )
        verify_run(result, edges)

    def test_trace_describes_logical_execution(self, edges, baseline):
        result = run_app(
            "d-galois", "bfs", edges, num_hosts=4,
            resilience=crash_config(mode="restart"),
        )
        # Replayed rounds are re-recorded, not duplicated.
        assert result.num_rounds == baseline.num_rounds
        assert [r.round_index for r in result.rounds] == list(
            range(1, result.num_rounds + 1)
        )

    def test_recovery_accounted(self, edges, baseline):
        result = run_app(
            "d-galois", "bfs", edges, num_hosts=4,
            resilience=crash_config(mode="restart"),
        )
        assert result.recovery_bytes > 0
        assert result.recovery_time > 0
        # One snapshot after every round but the converging one: round 1,
        # then (the crash at round 2 rolls back to it) rounds 2..R-1 of
        # the replay.  None at round 0, which the input rebuilds.
        assert result.num_checkpoints == baseline.num_rounds - 1
        assert result.checkpoint_bytes > 0
        assert result.total_time_resilient > result.total_time
        summary = result.summary()
        assert summary["recoveries"] == 1
        assert summary["checkpoints"] == result.num_checkpoints
        # The recovery round carries the cost in the per-round trace.
        assert any(r.recovery_bytes > 0 for r in result.rounds)

    def test_disk_checkpoints(self, edges, baseline, tmp_path):
        result = run_app(
            "d-galois", "bfs", edges, num_hosts=4,
            resilience=crash_config(
                mode="restart", checkpoint_dir=str(tmp_path)
            ),
        )
        assert list(tmp_path.glob("*.ckpt"))
        np.testing.assert_array_equal(
            result.executor.gather_result("dist"),
            baseline.executor.gather_result("dist"),
        )

    def test_fault_free_summary_keeps_paper_shape(self, baseline):
        assert "recoveries" not in baseline.summary()

    def test_snapshot_holds_only_what_recovery_reads(self, edges):
        """No fault-RNG state (it is never rewound) and no global node
        count (nothing reads it)."""
        result = run_app(
            "d-galois", "bfs", edges, num_hosts=4,
            resilience=crash_config(mode="restart"),
        )
        snapshot = result.executor.checkpoints.restore()
        assert set(snapshot) == {
            "round", "app", "policy", "num_hosts", "states", "frontiers",
        }


class TestStagedProgramRecovery:
    """bc runs its forward stage (rounds 1-4 here; round 4 drains it and
    switches) and its backward stage (rounds 5-8) in one executor.  A
    restart rolls back to whichever stage the checkpoint holds and
    replays across the switch."""

    @pytest.fixture(scope="class")
    def clean(self, edges):
        return run_app("d-galois", "bc", edges, num_hosts=2)

    @pytest.mark.parametrize(
        "every, crash_round, restored",
        [(1, 7, 6), (2, 5, 4), (3, 6, 3), (0, 6, 0)],
        ids=[
            "backward-checkpoint", "switch-round-checkpoint", "forward-checkpoint",
            "no-checkpoint",
        ],
    )
    def test_crash_restarts_bitwise_equal(self, edges, clean, every, crash_round, restored):
        assert [r.active_nodes for r in clean.rounds][3] == 0  # the switch
        config = ResilienceConfig(
            plan=FaultPlan(crashes=(CrashFault(1, crash_round),), seed=7),
            checkpoint_every=every,
            recovery="confined",  # bc folds accumulators: escalates
        )
        result = run_app("d-galois", "bc", edges, num_hosts=2, resilience=config)
        (event,) = result.recovery_events
        assert event["mode"] == "confined->restart"
        assert event["restored_round"] == restored
        assert result.num_rounds == clean.num_rounds
        np.testing.assert_array_equal(
            result.executor.gather_result("delta"),
            clean.executor.gather_result("delta"),
        )


class TestConfinedRecovery:
    def test_applicable_to_min_reduction_with_frontier(self, edges):
        result = run_app("d-galois", "bfs", edges, num_hosts=2)
        assert confined_applicable(result.executor)

    def test_not_applicable_to_pagerank(self, edges):
        result = run_app("d-galois", "pr", edges, num_hosts=2)
        assert not confined_applicable(result.executor)

    @pytest.mark.parametrize("every", [1, 0], ids=["cadence-1", "no-cadence"])
    @pytest.mark.parametrize("system", DISTRIBUTED_SYSTEMS)
    def test_bfs_confined_bitwise_identical(self, edges, baseline, system, every):
        """With no cadence the reborn host starts from fresh
        ``make_state``: round 0 is rebuilt, not stored."""
        result = run_app(
            system, "bfs", edges, num_hosts=4,
            resilience=crash_config(mode="confined", every=every),
        )
        assert result.recovery_events[0]["mode"] == "confined"
        assert result.recovery_events[0]["restored_round"] == every
        if every == 0:
            assert result.num_checkpoints == 0
        np.testing.assert_array_equal(
            result.executor.gather_result("dist"),
            baseline.executor.gather_result("dist"),
        )
        verify_run(result, edges)

    def test_pagerank_escalates_to_restart(self, edges):
        canonical = run_app("d-galois", "pr", edges, num_hosts=4)
        result = run_app(
            "d-galois", "pr", edges, num_hosts=4,
            resilience=crash_config(round_index=3, mode="confined"),
        )
        assert result.recovery_events[0]["mode"] == "confined->restart"
        np.testing.assert_array_equal(
            result.executor.gather_result("rank"),
            canonical.executor.gather_result("rank"),
        )

    @pytest.mark.parametrize("system", DISTRIBUTED_SYSTEMS)
    def test_cc_confined_survives_late_crash(self, edges, system):
        canonical = run_app(system, "cc", edges, num_hosts=4)
        crash_round = max(2, canonical.num_rounds)
        result = run_app(
            system, "cc", edges, num_hosts=4,
            resilience=crash_config(round_index=crash_round, mode="confined"),
        )
        np.testing.assert_array_equal(
            result.executor.gather_result("label"),
            canonical.executor.gather_result("label"),
        )
        verify_run(result, edges)


@sweep_settings(100)
@given(
    system=st.sampled_from(DISTRIBUTED_SYSTEMS),
    app=st.sampled_from(
        ["bfs", "sssp", "cc", "bfs@optimized", "sssp@optimized", "cc@optimized"]
    ),
    hosts=st.sampled_from([2, 4, 8]),
    policy=st.sampled_from(["oec", "iec", "cvc", "hvc", "jagged", "random"]),
    last_host=st.booleans(),
    when=st.sampled_from(["first", "middle", "last"]),
    checkpoint_every=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**16),
    n=st.integers(8, 60),
    density=st.integers(1, 5),
)
def test_confined_recovery_sweep(
    system, app, hosts, policy, last_host, when, checkpoint_every, seed, n, density
):
    """A certified program crashed on any distributed engine — first or
    last host, at round 1, R/2 or R, with or without periodic
    checkpoints — recovers confined to its clean answer, bit for bit."""
    graph = random_edges(seed, n, n * density, weighted=app.startswith("sssp"))
    clean = run_app(system, app, graph, hosts, policy=policy)
    rounds = clean.num_rounds
    crash_round = {"first": 1, "middle": max(1, rounds // 2), "last": rounds}[when]
    crash = CrashFault(hosts - 1 if last_host else 0, crash_round)
    config = ResilienceConfig(
        plan=FaultPlan(crashes=(crash,), seed=7),
        checkpoint_every=checkpoint_every,
        recovery="confined",
    )
    result = run_app(system, app, graph, hosts, policy=policy, resilience=config)
    assert [event["mode"] for event in result.recovery_events] == ["confined"]
    key = "label" if app.startswith("cc") else "dist"
    assert (
        result.executor.gather_result(key).tobytes()
        == clean.executor.gather_result(key).tobytes()
    )


class TestTransientFaults:
    @pytest.mark.parametrize("app,key", [("bfs", "dist"), ("pr", "rank")])
    def test_lossy_fabric_never_changes_results(self, edges, app, key):
        canonical = run_app("d-galois", app, edges, num_hosts=4)
        config = ResilienceConfig(
            plan=FaultPlan(
                drop_rate=0.05, corrupt_rate=0.02, duplicate_rate=0.03,
                seed=23,
            )
        )
        result = run_app(
            "d-galois", app, edges, num_hosts=4, resilience=config
        )
        np.testing.assert_array_equal(
            result.executor.gather_result(key),
            canonical.executor.gather_result(key),
        )
        # The faults cost bytes even though they changed nothing.
        assert result.recovery_bytes > 0
        faults = result.executor.transport.faults
        assert faults.total_injected > 0

    @pytest.mark.parametrize("system", DISTRIBUTED_SYSTEMS)
    def test_transient_faults_with_crash(self, edges, baseline, system):
        config = ResilienceConfig(
            plan=FaultPlan(
                crashes=(CrashFault(1, 2),),
                drop_rate=0.05, duplicate_rate=0.05, seed=31,
            ),
            checkpoint_every=1,
            recovery="confined",
        )
        result = run_app(
            system, "bfs", edges, num_hosts=4, resilience=config
        )
        assert result.num_recoveries == 1
        np.testing.assert_array_equal(
            result.executor.gather_result("dist"),
            baseline.executor.gather_result("dist"),
        )


class TestStabilizationCertificate:
    """Confined recovery is gated by the stabilization certificate, not
    the old reduce-op-only heuristic."""

    def _stub(self, app):
        from types import SimpleNamespace

        field = SimpleNamespace(
            reduce_op=SimpleNamespace(idempotent=True)
        )
        return SimpleNamespace(
            enable_sync=True,
            substrates=[object()],
            app=app,
            fields=[[field]],
        )

    def test_certificate_overrules_field_heuristic(self):
        """The regression this PR fixes: an idempotent frontier program
        whose sync hook folds master-side state passed the old field
        heuristic but is NOT safe to restart from stale checkpoints."""
        from repro.compiler import compile_program
        from tests.analysis.test_dataflow import mismatch_spec

        app = compile_program(mismatch_spec())
        executor = self._stub(app)
        # The old heuristic's inputs all say yes...
        assert app.uses_frontier
        assert all(
            f.reduce_op.idempotent for f in executor.fields[0]
        )
        # ...and the certificate still refuses.
        assert not confined_applicable(executor)

    def test_no_certificate_is_not_applicable(self):
        """A handwritten program has no spec, hence no certificate, and
        is never certified — even when every field-level input of the
        old heuristic (data-driven frontier, idempotent reductions)
        says yes."""
        from repro.analysis.dataflow import certificate_for

        cls = type(
            "SyntheticProgram", (), {"uses_frontier": True, "name": "syn"}
        )
        assert certificate_for(cls()) is None
        assert not confined_applicable(self._stub(cls()))

    def test_not_applicable_to_handwritten_bfs(self, edges):
        """A real executor over a handwritten idempotent frontier
        program gets no confined recovery.  (The fixture is a MIN bfs
        whose only defect is its declared write endpoints, which the
        certificate never reads.)"""
        from repro.engines import make_engine
        from repro.partition import make_partitioner
        from repro.runtime.executor import DistributedExecutor
        from repro.systems import prepare_input
        from tests.analysis.broken_programs import WrongWriteEndpoint

        prep = prepare_input("bfs", edges)
        executor = DistributedExecutor(
            make_partitioner("oec").partition(prep.edges, 2),
            make_engine("galois"),
            WrongWriteEndpoint(),
            prep.ctx,
        )
        executor.run(max_rounds=1)
        assert all(
            f.reduce_op.idempotent for f in executor.fields[0]
        )
        assert not confined_applicable(executor)

    def test_applicable_to_optimized_bfs(self, edges):
        """Spec-path certificate: the optimized build is eligible too."""
        result = run_app("d-galois", "bfs@optimized", edges, num_hosts=2)
        assert confined_applicable(result.executor)

    def test_not_applicable_to_kcore(self, edges):
        """kcore's apply hook mutates master state outside the reduction
        lattice — certificate denied (no-master-hooks)."""
        result = run_app("d-galois", "kcore", edges, num_hosts=2)
        assert not confined_applicable(result.executor)


class TestRecoveryAfterRepartition:
    """A crash on the *second* layout: recovery rebinds what repartition bound.

    Two rounds under ``oec``, a mid-run repartition to ``cvc`` (which must
    re-take the checkpoint baseline on the new layout), then host 1
    crashes.  The answer must equal the same repartitioned run without
    the crash, bit for bit.
    """

    APPS = {"bfs": "dist", "sssp": "dist", "cc": "label", "pr": "rank"}

    @staticmethod
    def _run(edges, app_name, resilience=None):
        from repro.apps import make_app
        from repro.engines import make_engine
        from repro.partition import make_partitioner
        from repro.runtime.executor import DistributedExecutor
        from repro.systems import prepare_input

        prep = prepare_input(app_name, edges)
        executor = DistributedExecutor(
            make_partitioner("oec").partition(prep.edges, 4),
            make_engine("galois"),
            make_app(app_name),
            prep.ctx,
            resilience=resilience,
        )
        partial = executor.run(max_rounds=2)
        executor.repartition(make_partitioner("cvc").partition(prep.edges, 4), partial)
        if executor.checkpoints is not None:
            # The baseline was re-taken on the new layout, at round 2.
            record = executor.checkpoints.latest()
            assert len(executor.checkpoints.backend) == 1
            assert record.round_index == 2
            snapshot = executor.checkpoints.restore()
            assert snapshot["policy"] == "cvc"
        return executor, executor.run(resume=partial)

    #: Crash rounds after the repartition that each app still reaches on
    #: rmat9 (cc converges in 3 rounds, bfs in 4).
    CRASHES = [
        ("bfs", 3), ("bfs", 4), ("cc", 3),
        ("sssp", 3), ("sssp", 4), ("sssp", 5),
        ("pr", 3), ("pr", 4), ("pr", 5),
    ]

    @pytest.mark.parametrize("mode", ["restart", "confined"])
    @pytest.mark.parametrize("app_name,crash_round", CRASHES)
    def test_bitwise_equal_to_the_uncrashed_repartitioned_run(
        self, small_rmat, app_name, crash_round, mode
    ):
        key = self.APPS[app_name]
        clean_executor, clean = self._run(small_rmat, app_name)
        assert clean.num_rounds >= crash_round
        config = ResilienceConfig(
            plan=FaultPlan(crashes=(CrashFault(1, crash_round),), seed=7),
            checkpoint_every=2,
            recovery=mode,
        )
        executor, result = self._run(small_rmat, app_name, config)
        assert result.converged
        assert result.policy == "cvc"
        expected_mode = mode
        if mode == "confined" and app_name == "pr":
            expected_mode = "confined->restart"
        assert [e["mode"] for e in result.recovery_events] == [expected_mode]
        assert result.recovery_events[0]["restored_round"] >= 2
        assert result.recovery_bytes > 0
        np.testing.assert_array_equal(
            executor.gather_result(key), clean_executor.gather_result(key)
        )
        if expected_mode != "confined":
            # Restart replays deterministically; healing may add rounds.
            assert result.num_rounds == clean.num_rounds

    @pytest.mark.parametrize("mode", ["restart", "confined"])
    def test_no_cadence_rolls_back_to_the_rebaseline(self, small_rmat, mode):
        """Round 2 of the new layout cannot be rebuilt from the input, so
        the repartition snapshots it even with no cadence, and the crash
        restores it rather than round 0."""
        clean_executor, clean = self._run(small_rmat, "sssp")
        config = ResilienceConfig(
            plan=FaultPlan(crashes=(CrashFault(1, 4),), seed=7),
            checkpoint_every=0,
            recovery=mode,
        )
        executor, result = self._run(small_rmat, "sssp", config)
        assert result.num_checkpoints == 1
        assert [e["restored_round"] for e in result.recovery_events] == [2]
        np.testing.assert_array_equal(
            executor.gather_result("dist"), clean_executor.gather_result("dist")
        )
