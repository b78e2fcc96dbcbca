"""A sync receive builds a change set only when something reads it.

A change set has a reader in two places: the program's frontier
(``uses_frontier``) and the plain apply rule of a field synced without
a hook (``broadcast_dirty`` reads the reduce's changes).  Without one,
``FieldSpec.reduce``/``set`` run with ``changes=False`` (no compare, no
set), a hook gets ``None``, the round merges no frontier and every
proxy counts as active.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import make_app, runnable_app_names
from repro.apps.base import VertexProgram
from repro.apps.specs import PAGERANK_SPEC, _pr_apply
from repro.compiler import compile_program
from repro.core.substrate import bind_sync_plans, setup_substrates
from repro.core.sync_structures import MIN, FieldSpec
from repro.engines import make_engine
from repro.errors import SyncError
from repro.graph.generators import rmat
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.runtime.round import broadcast_dirty, synchronize
from repro.systems import prepare_input, run_app

GRAPH = rmat(scale=7, edge_factor=8, seed=1)
TOPOLOGY_DRIVEN = {"pr", "featprop", "featprop-mean", "labelprop", "sage"}
WIDE = {"feature_dim": 4, "feature_rounds": 3}


def test_topology_driven_programs_hook_every_synced_field():
    """So none of their rounds builds a change mask."""
    for name in runnable_app_names():
        app = make_app(name)
        program = app.name.split("@")[0]
        assert app.uses_frontier == (program not in TOPOLOGY_DRIVEN), name
        if not app.uses_frontier:
            decls = [d for s in type(app).spec.stage_list for d in s.sync]
            assert decls and all(d.hook is not None for d in decls), name
    assert VertexProgram.uses_frontier


def spy_on_masks(monkeypatch):
    """Counts of ``reduce``/``set`` calls by ``changes``, indexed
    ``2 * is_set + changes``, in a shared array a forked worker's calls
    land in too."""
    counts = multiprocessing.Array("i", 4)
    for offset, name in enumerate(("reduce", "set")):
        real = getattr(FieldSpec, name)

        def spy(self, lids, values, changes=True, real=real, offset=offset):
            with counts.get_lock():
                counts[2 * offset + int(bool(changes))] += 1
            return real(self, lids, values, changes)

        monkeypatch.setattr(FieldSpec, name, spy)
    return counts


@pytest.fixture
def mask_calls(monkeypatch):
    return spy_on_masks(monkeypatch)


@pytest.mark.parametrize("runtime", ["simulated", "process"])
@pytest.mark.parametrize("app", ["pr", "featprop"])
def test_a_topology_driven_run_builds_no_change_mask(mask_calls, app, runtime):
    options = {"runtime": "process", "workers": 2} if runtime == "process" else {}
    params = WIDE if app == "featprop" else {"max_iterations": 4}
    run_app("d-galois", app, GRAPH, 4, policy="cvc", **params, **options)
    assert mask_calls[1] + mask_calls[3] == 0
    assert mask_calls[0] + mask_calls[2] > 0


@pytest.mark.parametrize("app", ["bfs", "cc", "sssp", "kcore", "bc", "pr-push"])
def test_a_frontier_run_still_builds_change_masks(mask_calls, app):
    run_app("d-galois", app, GRAPH, 4, policy="cvc")
    assert mask_calls[1] + mask_calls[3] > 0
    assert mask_calls[0] + mask_calls[2] == 0


def test_the_plain_apply_of_a_hookless_field_still_reads_its_reduce():
    """Without a frontier, a field synced without a hook still compares
    its reduce (the plain apply broadcasts the changed masters), but not
    its broadcast, and nothing is merged into the next frontiers."""
    partitioned = make_partitioner("cvc").partition(GRAPH, 4)
    results = []
    for uses_frontier in (True, False):
        rng = np.random.default_rng(0)
        subs = setup_substrates(partitioned, InProcessTransport(4))
        fields, dirty, touched = [], [], []
        for p in partitioned.partitions:
            values = rng.integers(0, 100, size=p.num_nodes).astype(np.uint32)
            fields.append([FieldSpec("v", values, MIN)])
            dirty.append(np.arange(p.num_nodes))
            touched.append(np.empty(0, dtype=np.intp))
        bind_sync_plans(
            range(4), subs, fields, [s.book for s in subs], uses_frontier
        )
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_on_masks(patch)
            synchronize(
                range(4), subs, fields, partitioned.partitions,
                [SimpleNamespace(updated=d) for d in dirty], touched,
            )
        results.append([f[0].values.copy() for f in fields])
        if uses_frontier:
            assert any(len(t) for t in touched)
        else:
            assert calls[1] > 0 and calls[0] == 0  # reduce: compared
            assert calls[2] > 0 and calls[3] == 0  # broadcast: not
            assert not any(len(t) for t in touched)
    for with_frontier, without in zip(*results):
        assert np.array_equal(with_frontier, without)


def run_with_hook_spy(app, seen, **ctx):
    """``app`` with every hook's ``changed`` argument recorded."""
    base = type(make_app(app))

    class Spied(base):
        def make_fields(self, part, state):
            fields = super().make_fields(part, state)
            for field in fields:
                hook = field.on_master_after_reduce
                if hook is None:
                    continue

                def recorded(changed, hook=hook):
                    seen.append(changed)
                    return hook(changed)

                field.on_master_after_reduce = recorded
            return fields

    prep = prepare_input(app, GRAPH)
    for key, value in ctx.items():
        setattr(prep.ctx, key, value)
    executor = DistributedExecutor(
        make_partitioner("cvc").partition(prep.edges, 4),
        make_engine("galois"), Spied(), prep.ctx,
    )
    executor.run()


def test_only_a_frontier_programs_hook_gets_a_change_mask():
    seen = []
    run_with_hook_spy("pr-push", seen)
    assert seen and all(
        isinstance(ids, np.ndarray) and ids.dtype == np.intp for ids in seen
    )
    assert any(len(ids) for ids in seen)  # the reduce changed masters
    seen = []
    run_with_hook_spy("pr", seen, max_iterations=4)
    assert seen and all(mask is None for mask in seen)


def returns_no_mask(part, state):
    _pr_apply(part, state)
    return None


@pytest.mark.parametrize("hosts", [4, 1])
def test_a_hook_without_a_frontier_must_return_its_mask(hosts):
    """A compiled spec hook returning ``None`` under a program without a
    frontier is refused by name at the first broadcast: no reduce change
    mask was built for the plain rule to fall back on.  At one host
    nothing broadcasts, so nothing needs the mask."""
    (decl,) = PAGERANK_SPEC.sync
    spec = dataclasses.replace(
        PAGERANK_SPEC, name="pr-no-mask",
        sync=(dataclasses.replace(decl, hook=returns_no_mask),),
    )
    app = compile_program(spec)
    assert not app.uses_frontier
    prep = prepare_input("pr", GRAPH)
    prep.ctx.max_iterations = 2
    partitioned = make_partitioner("cvc").partition(prep.edges, hosts)
    executor = DistributedExecutor(
        partitioned, make_engine("galois"), app, prep.ctx, enable_sync=hosts > 1
    )
    if hosts == 1:
        executor.run()
        return
    with pytest.raises(SyncError, match="returned no dirty set"):
        executor.run()
    # The unit rule: with a frontier, the plain rule is the fallback.
    field = FieldSpec("v", np.zeros(4), MIN, on_master_after_reduce=lambda c: None)
    part = SimpleNamespace(num_masters=2)
    step = SimpleNamespace(updated=np.arange(4))
    assert broadcast_dirty(part, field, None, step).tolist() == [0, 1]


@pytest.mark.parametrize(
    "system, hosts, options",
    [
        ("d-galois", 4, {}),
        ("d-galois", 4, {"runtime": "process", "workers": 2}),
        ("galois", 1, {}),  # sync disabled: apply_hooks_locally
    ],
    ids=["simulated", "process", "one-host"],
)
@pytest.mark.parametrize("app", ["pr", "featprop"])
def test_a_topology_driven_round_counts_every_proxy_active(app, system, hosts, options):
    params = WIDE if app == "featprop" else {"max_iterations": 4}
    result = run_app(system, app, GRAPH, hosts, **params, **options)
    every_proxy = sum(p.num_nodes for p in result.executor.partitioned.partitions)
    assert result.rounds
    assert [r.active_nodes for r in result.rounds] == [every_proxy] * len(result.rounds)
