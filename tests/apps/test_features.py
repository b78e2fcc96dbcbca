"""Feature workloads: partition invariance, compression, and oracles.

The three SpMM-style apps are built on exact (dyadic / integer-valued)
arithmetic, so their results must be *bitwise* identical across host
counts, partition policies and runtimes on the lossless wire (whose
messages ship as rows or as deltas, whichever is fewer bytes).  fp16 is
the one lossy mode; its error must stay within the documented
:func:`repro.features.fp16_tolerance` bound.
"""

import numpy as np
import pytest

from benchmarks.test_extension_compression import run_pricing_rows
from repro.apps import make_app
from repro.engines import make_engine
from repro.errors import SyncError
from repro.features import fp16_tolerance
from repro.features.oracles import (
    featprop_features,
    labelprop_labels,
    sage_hidden,
)
from repro.graph.generators import rmat
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app
from repro.verify import verify_run

POLICIES = ["oec", "iec", "cvc", "hvc", "jagged", "random"]
DIM, ROUNDS = 8, 3

#: Row widths of the exactness cases.  At 8 a row's delta mask is one
#: whole byte; at 13 it is two bytes with three padding bits, and the
#: mask's share of a delta message (the rows-or-delta trade-off) differs.
DIMS = [DIM, 13]

EDGES = rmat(scale=6, edge_factor=4, seed=3)


def run(app, *, hosts=4, policy="cvc", dim=DIM, rounds=ROUNDS, **kwargs):
    return run_app(
        "d-galois", app, EDGES, num_hosts=hosts, policy=policy,
        feature_dim=dim, feature_rounds=rounds, **kwargs,
    )


def gather(result, key):
    return result.executor.gather_result(key)


class TestOracleAgreement:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_featprop(self, policy, dim):
        expected = featprop_features(EDGES, dim, ROUNDS)
        result = run("featprop", policy=policy, dim=dim)
        assert np.array_equal(gather(result, "feat"), expected)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("policy", ["cvc", "jagged"])
    def test_featprop_mean(self, policy, dim):
        expected = featprop_features(EDGES, dim, ROUNDS, mean=True)
        result = run("featprop-mean", policy=policy, dim=dim)
        # pow2 normalization divides by powers of two: dyadic-exact, so
        # the mean variant is held to bitwise equality too.
        assert np.array_equal(gather(result, "feat"), expected)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_labelprop(self, policy, dim):
        expected = labelprop_labels(EDGES, dim, ROUNDS)
        result = run("labelprop", policy=policy, dim=dim)
        assert np.array_equal(gather(result, "label"), expected)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("policy", ["oec", "hvc"])
    def test_sage(self, policy, dim):
        expected = sage_hidden(EDGES, dim)
        result = run("sage", policy=policy, dim=dim)
        assert np.array_equal(gather(result, "hidden"), expected)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("hosts", [1, 2, 8])
    def test_host_count_invariance(self, hosts, dim):
        feat = featprop_features(EDGES, dim, ROUNDS)
        labels = labelprop_labels(EDGES, dim, ROUNDS)
        fp = run("featprop", hosts=hosts, dim=dim)
        lp = run("labelprop", hosts=hosts, dim=dim)
        assert np.array_equal(gather(fp, "feat"), feat)
        assert np.array_equal(gather(lp, "label"), labels)


class TestFp16:
    @pytest.mark.parametrize(
        "app", ["featprop", "featprop-mean", "labelprop", "sage"]
    )
    def test_verifies_within_tolerance(self, app):
        result = run(app, compression="fp16")
        assert verify_run(result, EDGES).matched

    def test_featprop_error_bounded(self):
        expected = featprop_features(EDGES, DIM, ROUNDS)
        result = run("featprop", compression="fp16")
        err = np.abs(gather(result, "feat") - expected).max()
        assert err <= fp16_tolerance(expected, ROUNDS)

    def test_labelprop_bitwise_exact(self):
        """One-hot votes and small integer counts are fp16-representable,
        so even the lossy mode must reproduce the labels exactly."""
        expected = labelprop_labels(EDGES, DIM, ROUNDS)
        result = run("labelprop", compression="fp16")
        assert np.array_equal(gather(result, "label"), expected)

    def test_large_magnitudes_are_a_named_error(self):
        """fp16 is for small magnitudes only: at the perf suite's
        featprop_wide size (rmat 14, d = 32, 6 rounds, iec x 8, seed 3)
        the sums leave the float16 range and the run stops by name."""
        with pytest.raises(
            SyncError,
            match="fp16 compression overflows — magnitude 786656 exceeds "
            "the float16 range",
        ):
            run_app(
                "d-galois", "featprop", rmat(14, 16, 3), 8, policy="iec",
                feature_dim=32, feature_rounds=6, compression="fp16",
            )


class TestDeltaBytes:
    def test_delta_ships_fewer_bytes(self):
        """At d=32 the lossless wire must beat the same run's frames with
        every wide message as plain rows — the property the bench cell
        quantifies at full scale."""
        result, rows_only = run_pricing_rows(lambda: run("labelprop", dim=32, rounds=4))
        assert np.array_equal(
            gather(result, "label"), labelprop_labels(EDGES, 32, 4)
        )
        assert result.executor.transport.stats.total_bytes < rows_only


class TestRuntimesAndRepartition:
    @pytest.mark.parametrize("dim", DIMS)
    def test_process_runtime_identical(self, dim):
        simulated = run("labelprop", dim=dim)
        process = run("labelprop", dim=dim, runtime="process", workers=2)
        assert np.array_equal(
            gather(simulated, "label"), gather(process, "label")
        )

    @pytest.mark.parametrize("dim", DIMS)
    def test_repartition_midrun_still_correct(self, dim):
        """Repartitioning rebuilds the FieldSpecs, which resets the
        sender-side delta caches — the run must stay exact even though
        the first post-switch broadcast has no committed baseline."""
        prep = prepare_input(
            "labelprop", EDGES, feature_dim=dim, feature_rounds=ROUNDS
        )
        partitioned = make_partitioner("oec").partition(prep.edges, 4)
        executor = DistributedExecutor(
            partitioned, make_engine("galois"), make_app("labelprop"),
            prep.ctx,
        )
        partial = executor.run(max_rounds=1)
        executor.repartition(
            make_partitioner("cvc").partition(prep.edges, 4), partial
        )
        result = executor.run(resume=partial)
        assert result.converged
        expected = labelprop_labels(EDGES, dim, ROUNDS)
        assert np.array_equal(executor.gather_result("label"), expected)
