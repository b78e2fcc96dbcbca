"""A run's state holds node state only.

What the partition determines (a host's edge arrays, its transpose, its
degree arrays) is built once on the partition's graph and read from
there: never copied into a run's state, so never into a snapshot, a
migration or the process runtime's arena, and never into a pickle of
the partition.
"""

import pickle

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.specs import PROGRAM_SPECS, optimized_app_names
from repro.partition import make_partitioner
from repro.resilience.recovery import ResilienceConfig
from repro.systems import plan_run, prepare_input, run_app

ALL_APPS = sorted(PROGRAM_SPECS) + optimized_app_names()


@pytest.mark.parametrize("name", ALL_APPS)
def test_make_state_holds_node_arrays_and_scalars(small_rmat, name):
    app = make_app(name)
    prep = prepare_input(name, small_rmat, feature_dim=3)
    for part in make_partitioner("oec").partition(prep.edges, 2).partitions:
        assert part.num_nodes != part.graph.num_edges
        for key, value in app.make_state(part, prep.ctx).items():
            if not isinstance(value, np.ndarray):
                assert np.isscalar(value) or value is None, key
            elif name.startswith("sage") and key in ("w_self", "w_neigh"):
                assert value.shape == (3, 3)
            else:
                assert len(value) == part.num_nodes, key


def test_dense_pull_state_builds_the_graphs_edge_arrays(small_rmat):
    """``make_state`` builds them (in the coordinator, before any fork);
    every later call hands out the same two arrays."""
    prep = prepare_input("pr", small_rmat)
    part = make_partitioner("cvc").partition(prep.edges, 2).partitions[0]
    assert part.graph._edge_arrays is None
    make_app("pr").make_state(part, prep.ctx)
    built = part.graph._edge_arrays
    assert built is not None
    src, dst = part.graph.edge_arrays()
    assert src is built[0] and dst is built[1]


def test_a_pr_snapshot_holds_no_edge_sized_array(small_rmat):
    result = run_app(
        "d-galois", "pr", small_rmat, 4, policy="cvc", max_iterations=4,
        resilience=ResilienceConfig(checkpoint_every=1),
    )
    executor = result.executor
    snapshot = executor.checkpoints.restore()
    for part, state in zip(executor.partitioned.partitions, snapshot["states"]):
        assert part.num_nodes != part.graph.num_edges
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                assert len(value) == part.num_nodes, key


@pytest.mark.parametrize(
    "system,app", [("d-ligra", "bfs"), ("d-galois", "pr")]
)
def test_a_partition_pickles_to_the_same_size_after_a_run(
    small_rmat, system, app
):
    plan = plan_run(system, app, small_rmat, 4, policy="oec")
    partitioned = plan.build().partitioned
    before = pickle.dumps(partitioned)
    plan.executor(partitioned).run()
    graphs = [part.graph for part in partitioned.partitions]
    if app == "bfs":  # d-ligra pulls: the run built transposes
        assert any(g._in_csr is not None for g in graphs)
    else:
        assert all(g._edge_arrays is not None for g in graphs)
    assert len(pickle.dumps(partitioned)) == len(before)
    back = pickle.loads(before)
    for got, want in zip(back.partitions, partitioned.partitions):
        assert got.graph == want.graph
        np.testing.assert_array_equal(got.local_to_global, want.local_to_global)
