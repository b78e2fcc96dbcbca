"""Unit tests for migration: key selection and the state carry-over."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import VertexProgram
from repro.engines import make_engine
from repro.errors import ExecutionError
from repro.graph.edgelist import EdgeList
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.runtime.migration import (
    gather_global,
    migratable_keys,
    migrate_states,
)
from repro.systems import prepare_input


class TestMigratableKeys:
    def test_default_selects_node_sized_arrays(self):
        app = VertexProgram()  # handwritten: declares no node arrays
        state = {
            "dist": np.zeros(10, dtype=np.uint32),
            "edge_cache": np.zeros(37, dtype=np.int64),  # edge-sized
            "scalar": 3.0,
            "feat": np.zeros((10, 2)),  # wide node rows migrate too
            "stack": np.zeros((10, 2, 2)),  # >2-D is rebuilt, not moved
        }
        assert migratable_keys(app, state, num_nodes=10) == ["dist", "feat"]

    def test_declared_attribute_wins(self):
        app = make_app("bfs")
        app_declared = type(app)()
        app_declared.migratable_node_arrays = ("dist",)
        state = {
            "dist": np.zeros(10, dtype=np.uint32),
            "other": np.zeros(10, dtype=np.uint32),
        }
        assert migratable_keys(app_declared, state, 10) == ["dist"]

    def test_pagerank_keys_exclude_edge_caches(self, small_rmat):
        prep = prepare_input("pr", small_rmat)
        part = make_partitioner("cvc").partition(prep.edges, 3).partitions[0]
        app = make_app("pr")
        state = app.make_state(part, prep.ctx)
        keys = set(migratable_keys(app, state, part.num_nodes))
        assert {"rank", "contrib", "acc", "out_degree"} <= keys
        assert "edge_src" not in keys
        assert "edge_dst" not in keys


class TestMigrateStatesValidation:
    def test_node_count_mismatch_rejected(self, small_rmat, small_grid):
        prep_a = prepare_input("bfs", small_rmat)
        prep_b = prepare_input("bfs", small_grid)
        old = make_partitioner("oec").partition(prep_a.edges, 2)
        new = make_partitioner("oec").partition(prep_b.edges, 2)
        app = make_app("bfs")
        states = [app.make_state(p, prep_a.ctx) for p in old.partitions]
        with pytest.raises(ExecutionError, match="same global node set"):
            migrate_states(old, states, new, app, prep_a.ctx)


# -- the single state carry-over: keep masks, grown node sets, accumulators ----

#: 1-D idempotent label, 1-D ADD accumulator, wide (n, d) ADD accumulator.
CARRY_APPS = ["bfs", "pr", "featprop"]


def _advanced_states(edges, app_name, policy="oec", hosts=3):
    """Old layout + states a couple of rounds into a run."""
    prep = prepare_input(app_name, edges)
    old = make_partitioner(policy).partition(prep.edges, hosts)
    app = make_app(app_name)
    executor = DistributedExecutor(old, make_engine("galois"), app, prep.ctx)
    executor.run(max_rounds=2)
    return prep, app, old, executor.states


def _reference_migrate(old, old_states, new, app, ctx):
    """The pre-``keep`` algorithm: scatter every canonical value."""
    keys = migratable_keys(app, old_states[0], old.partitions[0].num_nodes)
    canonical = {key: gather_global(old, old_states, key) for key in keys}
    new_states = [app.make_state(part, ctx) for part in new.partitions]
    for part, state in zip(new.partitions, new_states):
        for key in keys:
            state[key][...] = canonical[key][part.local_to_global]
        for field in app.make_fields(part, state):
            if not field.reduce_op.idempotent:
                field.values[part.mirror_locals()] = field.reduce_op.identity(
                    field.dtype
                )
    return new_states


def _assert_states_equal(got, expected):
    assert len(got) == len(expected)
    for got_state, expected_state in zip(got, expected):
        assert got_state.keys() == expected_state.keys()
        for key, value in expected_state.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got_state[key], value, err_msg=key)
            else:
                assert got_state[key] == value, key


def _assert_accumulators_canonical(app, new, new_states):
    """ADD mirrors sit at the identity (masters alone hold the total; the
    callers compare those through ``gather_global``)."""
    for part, state in zip(new.partitions, new_states):
        for field in app.make_fields(part, state):
            if field.reduce_op.idempotent:
                continue
            mirrors = part.mirror_locals()
            assert np.all(
                field.values[mirrors] == field.reduce_op.identity(field.dtype)
            )


@pytest.mark.parametrize("app_name", CARRY_APPS)
class TestMigrateStatesKeep:
    def test_keep_none_is_the_historical_result(self, small_rmat, app_name):
        prep, app, old, states = _advanced_states(small_rmat, app_name)
        new = make_partitioner("cvc").partition(prep.edges, 3)
        got = migrate_states(old, states, new, app, prep.ctx)
        _assert_states_equal(
            got, _reference_migrate(old, states, new, app, prep.ctx)
        )
        explicit = migrate_states(
            old, states, new, app, prep.ctx,
            keep=np.ones(new.num_global_nodes, dtype=bool),
        )
        _assert_states_equal(explicit, got)
        _assert_accumulators_canonical(app, new, got)
        for key in migratable_keys(app, states[0], old.partitions[0].num_nodes):
            np.testing.assert_array_equal(
                gather_global(new, got, key), gather_global(old, states, key)
            )

    def test_keep_nothing_is_a_fresh_init(self, small_rmat, app_name):
        prep, app, old, states = _advanced_states(small_rmat, app_name)
        new = make_partitioner("cvc").partition(prep.edges, 3)
        got = migrate_states(
            old, states, new, app, prep.ctx,
            keep=np.zeros(new.num_global_nodes, dtype=bool),
        )
        fresh = [app.make_state(part, prep.ctx) for part in new.partitions]
        _assert_states_equal(got, fresh)
        _assert_accumulators_canonical(app, new, got)

    def test_grown_node_set_keeps_old_values_only_where_allowed(
        self, small_rmat, app_name
    ):
        prep, app, old, states = _advanced_states(small_rmat, app_name)
        n_old = prep.edges.num_nodes
        n_new = n_old + 5
        # Five appended nodes, each wired to an old node (both directions).
        extra_src = np.arange(n_old, n_new, dtype=np.uint32)
        extra_dst = np.arange(5, dtype=np.uint32)
        weight = prep.edges.weight
        grown = EdgeList(
            n_new,
            np.concatenate([prep.edges.src, extra_src, extra_dst]),
            np.concatenate([prep.edges.dst, extra_dst, extra_src]),
            None if weight is None else np.concatenate(
                [weight, np.ones(10, dtype=weight.dtype)]
            ),
        )
        grown_prep = prepare_input(app_name, grown, source=prep.ctx.source)
        ctx = grown_prep.ctx
        new = make_partitioner("cvc").partition(grown_prep.edges, 3)
        keep = np.random.default_rng(5).random(n_new) < 0.5
        got = migrate_states(old, states, new, app, ctx, keep=keep)
        fresh = [app.make_state(part, ctx) for part in new.partitions]
        _assert_accumulators_canonical(app, new, got)
        kept = keep[:n_old]
        for key in migratable_keys(app, states[0], old.partitions[0].num_nodes):
            new_global = gather_global(new, got, key)
            old_global = gather_global(old, states, key)
            init_global = gather_global(new, fresh, key)
            np.testing.assert_array_equal(new_global[:n_old][kept], old_global[kept])
            np.testing.assert_array_equal(
                new_global[:n_old][~kept], init_global[:n_old][~kept]
            )
            np.testing.assert_array_equal(new_global[n_old:], init_global[n_old:])
            # Every idempotent proxy holds its node's canonical value.
            for part, state, fields in zip(
                new.partitions, got,
                [app.make_fields(p, s) for p, s in zip(new.partitions, got)],
            ):
                accumulators = {
                    id(f.values) for f in fields if not f.reduce_op.idempotent
                }
                if id(state[key]) in accumulators:
                    continue
                np.testing.assert_array_equal(
                    state[key], new_global[part.local_to_global]
                )
