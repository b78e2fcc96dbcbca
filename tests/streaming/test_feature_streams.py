"""Streaming the feature apps: every version carries the session's own
parameters and derived context forward (regression: a stale per-version
context build dropped ``global_in_degree`` — ``featprop-mean`` crashed on
its first batch — and reset the feature parameters to their defaults)."""

import numpy as np
import pytest

from repro.graph.generators import rmat
from repro.streaming import StreamingSession, random_mutation_batch

WIDE = {"feature_dim": 12, "compression": "delta"}


def stream(app, num_batches=2, **params):
    """Run ``app`` over seeded random batches; after each batch compare
    the streamed version against its cold recompute.  Returns the
    per-step communication volumes."""
    session = StreamingSession(
        "d-galois", app, rmat(8, 8, 3), 4, policy="iec", **params
    )
    session.run()
    rng = np.random.default_rng(11)
    volumes = []
    for _ in range(num_batches):
        step = session.apply_batch(
            random_mutation_batch(
                session.version.edges, rng,
                delete_fraction=0.01, insert_fraction=0.01, add_nodes=1,
            )
        )
        cold = session.cold_run()
        warm_values, cold_values = session.values(), session.cold_values(cold)
        assert set(warm_values) == set(cold_values)
        for key in cold_values:
            assert np.array_equal(warm_values[key], cold_values[key]), key
        # Replay-strategy apps restart every version: same work as cold.
        assert step.strategy == "replay"
        assert step.result.communication_volume == cold.communication_volume
        volumes.append(step.result.communication_volume)
    return volumes


@pytest.mark.parametrize("app", ["featprop-mean", "featprop"])
def test_feature_apps_stream_bitwise_with_their_own_parameters(app):
    wide = stream(app, **WIDE)
    default = stream(app)
    # d=12/delta rows are not the d=8/uncompressed rows: the parameters
    # reached every version, not only version 0.
    assert all(w != d for w, d in zip(wide, default))


def test_context_is_rederived_per_version():
    session = StreamingSession(
        "d-galois", "featprop-mean", rmat(8, 8, 3), 2, **WIDE
    )
    session.run()
    base_ctx = session.plan.prepared.ctx
    edges = session.version.edges
    session.apply_batch(
        random_mutation_batch(
            edges, np.random.default_rng(5),
            delete_fraction=0.0, insert_fraction=0.02, add_nodes=3,
        )
    )
    ctx = session.plan.prepared.ctx
    new_edges = session.version.edges
    assert ctx is session.executor.ctx
    assert ctx.num_global_nodes == new_edges.num_nodes == edges.num_nodes + 3
    assert np.array_equal(
        ctx.global_in_degree,
        np.bincount(new_edges.dst, minlength=new_edges.num_nodes),
    )
    assert (ctx.source, ctx.feature_dim, ctx.compression) == (
        base_ctx.source, 12, "delta"
    )
