"""Single-host execution with the sync layer disabled entirely.

The shared-memory baselines (Table 4's Ligra/Galois/IrGL rows) run this
way; every application must still be correct because the master-side
apply hooks are the only sync-phase work that carries algorithmic
meaning on one host.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.engines import make_engine
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input
from tests.conftest import (
    gather_rank,
    reference_bfs,
    reference_cc,
    reference_kcore,
    reference_pagerank,
    reference_sssp,
)

ORACLES = {
    "bfs": ("dist", lambda prep: reference_bfs(prep.edges, prep.ctx.source)),
    "sssp": ("dist", lambda prep: reference_sssp(prep.edges, prep.ctx.source)),
    "cc": ("label", lambda prep: reference_cc(prep.edges)),
    "kcore": ("alive", lambda prep: reference_kcore(prep.edges, prep.ctx.k)),
}


@pytest.mark.parametrize("app_name", sorted(ORACLES))
@pytest.mark.parametrize("engine_name", ["galois", "ligra", "irgl"])
def test_sync_disabled_matches_oracle(small_rmat, app_name, engine_name):
    key, oracle = ORACLES[app_name]
    prep = prepare_input(app_name, small_rmat)
    partitioned = make_partitioner("oec").partition(prep.edges, 1)
    executor = DistributedExecutor(
        partitioned,
        make_engine(engine_name),
        make_app(app_name),
        prep.ctx,
        enable_sync=False,
    )
    result = executor.run()
    assert result.converged
    assert result.communication_volume == 0
    got = executor.gather_result(key).astype(np.uint64)
    assert np.array_equal(got, oracle(prep))


def test_push_pagerank_sync_disabled(small_rmat):
    prep = prepare_input("pr-push", small_rmat, tolerance=1e-10)
    partitioned = make_partitioner("oec").partition(prep.edges, 1)
    executor = DistributedExecutor(
        partitioned, make_engine("galois"), make_app("pr-push"), prep.ctx,
        enable_sync=False,
    )
    executor.run()
    np.testing.assert_allclose(
        gather_rank(executor), reference_pagerank(small_rmat, tolerance=1e-12), atol=1e-6
    )


def test_bc_sync_disabled(small_rmat):
    from repro.oracles import bc_dependencies

    prep = prepare_input("bc", small_rmat)
    partitioned = make_partitioner("oec").partition(prep.edges, 1)
    executor = DistributedExecutor(
        partitioned, make_engine("ligra"), make_app("bc"), prep.ctx,
        enable_sync=False,
    )
    assert executor.run().converged
    got = executor.gather_result("delta")
    expected = bc_dependencies(prep.edges, prep.ctx.source)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)
