"""Unit tests for the distributed executor."""

import gc
import multiprocessing
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps import make_app
from repro.core.optimization import OptimizationLevel
from repro.engines import make_engine
from repro.errors import ExecutionError, StrategyError
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app


def build_executor(edges, app_name="bfs", policy="cvc", num_hosts=4, **kwargs):
    prep = prepare_input(app_name, edges)
    partitioned = make_partitioner(policy).partition(prep.edges, num_hosts)
    return DistributedExecutor(
        partitioned,
        make_engine("galois"),
        make_app(app_name),
        prep.ctx,
        **kwargs,
    )


class TestLifecycle:
    def test_run_produces_rounds(self, small_rmat):
        result = build_executor(small_rmat).run()
        assert result.num_rounds >= 1
        assert result.converged
        assert len(result.rounds[0].comp_time_per_host) == 4

    def test_construction_traffic_separated(self, small_rmat):
        result = build_executor(small_rmat).run()
        assert result.construction_bytes > 0
        # Memoization bytes do not count toward execution volume.
        assert result.communication_volume < result.construction_bytes + sum(
            r.comm_bytes for r in result.rounds
        ) + 1

    def test_max_rounds_caps_execution(self, small_rmat):
        result = build_executor(small_rmat).run(max_rounds=1)
        assert result.num_rounds == 1
        assert not result.converged

    def test_replication_factor_recorded(self, small_rmat):
        result = build_executor(small_rmat).run()
        assert result.replication_factor > 1.0

    def test_sync_disabled_requires_single_host(self, small_rmat):
        with pytest.raises(ExecutionError):
            build_executor(small_rmat, num_hosts=2, enable_sync=False)

    def test_local_iteration_over_non_idempotent_reduction_refused(
        self, small_rmat
    ):
        from tests.analysis.broken_programs import UnsafeLocalIteration

        prep = prepare_input("bfs", small_rmat)
        partitioned = make_partitioner("cvc").partition(prep.edges, 2)
        executor = DistributedExecutor(
            partitioned, make_engine("galois"), UnsafeLocalIteration(), prep.ctx
        )
        with pytest.raises(ExecutionError, match="'dist'.*'add'"):
            executor.run()

    def test_compiled_add_program_iterates_once_and_binds(self, small_rmat):
        """A compiled ADD push derives ``iterate_locally = False``, so
        the bind-time refusal never reaches it."""
        executor = build_executor(small_rmat, app_name="pr-push", num_hosts=2)
        assert not executor.app.iterate_locally
        assert executor.run(max_rounds=2).num_rounds == 2

    def test_sync_disabled_single_host_works(self, small_rmat):
        from tests.conftest import reference_bfs

        prep = prepare_input("bfs", small_rmat)
        partitioned = make_partitioner("oec").partition(prep.edges, 1)
        executor = DistributedExecutor(
            partitioned,
            make_engine("galois"),
            make_app("bfs"),
            prep.ctx,
            enable_sync=False,
        )
        result = executor.run()
        assert result.communication_volume == 0
        got = executor.gather_result("dist").astype(np.uint64)
        assert np.array_equal(got, reference_bfs(prep.edges, prep.ctx.source))

    def test_sync_disabled_runs_hooks(self, small_rmat):
        """Pagerank's master-side apply must run even without sync."""
        from tests.conftest import reference_pagerank

        prep = prepare_input("pr", small_rmat)
        partitioned = make_partitioner("oec").partition(prep.edges, 1)
        executor = DistributedExecutor(
            partitioned,
            make_engine("ligra"),
            make_app("pr"),
            prep.ctx,
            enable_sync=False,
        )
        result = executor.run()
        assert result.converged
        np.testing.assert_allclose(
            executor.gather_result("rank"),
            reference_pagerank(small_rmat),
            rtol=1e-9,
        )

    def test_illegal_strategy_rejected(self, small_rmat):
        """A non-reduction pull operator cannot use OEC (§3.1)."""
        prep = prepare_input("pr", small_rmat)
        partitioned = make_partitioner("oec").partition(prep.edges, 2)
        app = make_app("pr")
        app_backup = app.is_reduction
        try:
            app.is_reduction = False
            with pytest.raises(StrategyError):
                DistributedExecutor(
                    partitioned, make_engine("galois"), app, prep.ctx
                )
        finally:
            app.is_reduction = app_backup


@contextmanager
def without_cyclic_gc():
    """Only reference counting frees objects inside the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestAFinishedRunIsFreedByRefcounting:
    """``result.executor`` keeps a run's executor alive for inspection;
    nothing links back to it (the executor holds no result, a runner no
    executor), so dropping the result frees the whole run — converged or
    open — without the cyclic GC, and a dropped open process run stops
    its workers."""

    @pytest.mark.parametrize("max_rounds", [100_000, 1])
    @pytest.mark.parametrize("runtime", ["simulated", "process"])
    def test_dropping_the_result_frees_the_executor(self, small_rmat, runtime, max_rounds):
        job = dict(runtime=runtime, workers=2) if runtime == "process" else {}
        with without_cyclic_gc():
            result = run_app("d-galois", "pr", small_rmat, 4, max_rounds=max_rounds, **job)
            assert result.converged == (max_rounds > 1)
            executor = weakref.ref(result.executor)
            del result
            assert executor() is None

    def test_a_dropped_open_process_run_stops_its_workers(self, small_rmat):
        before = set(multiprocessing.active_children())
        with without_cyclic_gc():
            result = run_app(
                "d-galois", "pr", small_rmat, 4, runtime="process", workers=2, max_rounds=1
            )
            assert not result.converged
            assert len(set(multiprocessing.active_children()) - before) == 2
            del result
            assert set(multiprocessing.active_children()) <= before

    def test_resuming_a_foreign_or_converged_result_is_refused_by_name(self, small_rmat):
        executor, other = build_executor(small_rmat), build_executor(small_rmat)
        foreign = other.run(max_rounds=1)
        with pytest.raises(ExecutionError, match="not started by this executor"):
            executor.run(resume=foreign)
        done = executor.run()
        with pytest.raises(ExecutionError, match="cannot resume a converged run.*single-use"):
            executor.run(resume=done)
        with pytest.raises(ExecutionError, match="cannot repartition a converged run"):
            executor.repartition(executor.partitioned, done)

    def test_a_converged_run_stays_finished_once_its_result_is_gone(self, small_rmat):
        executor = build_executor(small_rmat)
        with without_cyclic_gc():
            finished = weakref.ref(executor.run())  # the result is dropped at once
            assert finished() is None
        with pytest.raises(ExecutionError, match="already converged"):
            executor.run()

    def test_an_open_run_resumes_only_through_its_result(self, small_rmat):
        executor = build_executor(small_rmat)
        partial = executor.run(max_rounds=1)
        assert not partial.converged
        with pytest.raises(ExecutionError, match=r"still open.*run\(resume=result\)"):
            executor.run()
        assert executor.run(resume=partial) is partial and partial.converged


class TestDeterminism:
    def test_repeat_runs_identical(self, small_rmat):
        a = build_executor(small_rmat).run()
        b = build_executor(small_rmat).run()
        assert a.num_rounds == b.num_rounds
        assert a.communication_volume == b.communication_volume
        assert a.communication_messages == b.communication_messages
        # Simulated times are deterministic too (wall-clock is only in
        # construction_time).
        assert a.total_time == pytest.approx(b.total_time)

    def test_per_round_traffic_deterministic(self, small_rmat):
        a = build_executor(small_rmat).run()
        b = build_executor(small_rmat).run()
        assert [r.comm_bytes for r in a.rounds] == [
            r.comm_bytes for r in b.rounds
        ]


class TestOptimizationLevels:
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_all_levels_converge_identically(self, small_rmat, level):
        from tests.conftest import reference_bfs

        prep = prepare_input("bfs", small_rmat)
        executor = build_executor(small_rmat, level=level)
        executor.run()
        got = executor.gather_result("dist").astype(np.uint64)
        assert np.array_equal(
            got, reference_bfs(prep.edges, prep.ctx.source)
        )

    def test_temporal_levels_have_zero_translations(self, small_rmat):
        result = build_executor(
            small_rmat, level=OptimizationLevel.OSTI
        ).run()
        assert result.translations == 0

    def test_unopt_translates(self, small_rmat):
        result = build_executor(
            small_rmat, level=OptimizationLevel.UNOPT
        ).run()
        assert result.translations > 0


class TestGpuAccounting:
    def test_gpu_device_transfer_adds_comm_time(self, small_rmat):
        prep = prepare_input("bfs", small_rmat)
        partitioned = make_partitioner("cvc").partition(prep.edges, 4)

        def run_with(engine_name):
            executor = DistributedExecutor(
                partitioned,
                make_engine(engine_name),
                make_app("bfs"),
                prep.ctx,
            )
            return executor.run()

        gpu = run_with("irgl")
        assert gpu.converged
        # Same traffic, nonzero device transfer folded into comm time.
        assert gpu.communication_time > 0
