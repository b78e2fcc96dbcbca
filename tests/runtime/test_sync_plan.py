"""The round loop obeys the sync plan, and obeying it changes nothing.

Three guards around ``SyncPlan`` / ``runtime.round.synchronize``:

* a phase the plan calls dead carries no message when it *is* driven
  (the historical semantics, restored here by forcing every verdict to
  "live"), so skipping it is invisible — over policies x levels x hosts
  x apps, and every worker reaches the coordinator's verdict;
* exact call counts on two latency-shaped jobs: dead phases are never
  driven, a host-phase is one encode pass, quiet peers are never
  parsed, routes are resolved per field and not per round — with the
  pre-change literals of every simulated quantity written in;
* the master-side hook still runs every round when its reduce is dead.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.comm.codec as codec_module
import repro.core.patterns as patterns_module
import repro.core.substrate as substrate_module
import repro.runtime.round as round_module
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.patterns import SyncPlan, phase_liveness
from repro.core.substrate import GluonSubstrate, bind_sync_plans
from repro.graph.generators import grid_graph, rmat
from repro.network.transport import InProcessTransport
from repro.partition import PARTITIONER_BY_NAME
from repro.service.spec import values_digest
from repro.systems import run_app

GRAPH = rmat(scale=7, edge_factor=8, seed=1)
ANSWER = {"bfs": "dist", "pr": "rank", "bc": "delta"}


def spy_on_synchronize(monkeypatch):
    """Collect ``(plan, phase records)`` of every collective that runs."""
    seen = []
    real = round_module.synchronize

    def spy(hosts, substrates, fields, parts, outcomes, frontiers,
            end_phase=None, record=None):
        sink = []
        real(hosts, substrates, fields, parts, outcomes, frontiers, end_phase, sink)
        seen.append((substrates[hosts[0]].plan, sink))
        if record is not None:
            record.extend(sink)

    monkeypatch.setattr(round_module, "synchronize", spy)
    return seen


def fingerprint(result, key):
    return (
        result.num_rounds,
        result.communication_volume,
        result.communication_messages,
        result.total_time,
        result.translations,
        dict(result.mode_counts),
        values_digest(result.executor.gather_result(key)),
    )


def labels_and_messages(seen):
    """Per collective, the ``(label, message count)`` of each phase record."""
    return [[(label, len(msgs)) for label, msgs, *_ in sink] for _, sink in seen]


@pytest.mark.parametrize("hosts", [1, 2, 4, 8])
@pytest.mark.parametrize("level", list(OptimizationLevel), ids=lambda l: l.name)
@pytest.mark.parametrize("policy", sorted(PARTITIONER_BY_NAME))
def test_dead_phases_carry_nothing_and_skipping_them_is_invisible(
    policy, level, hosts
):
    for app in ("bfs", "pr", "bc"):  # bc: fields written and read at both ends
        options = dict(policy=policy, level=level, max_iterations=6)
        with pytest.MonkeyPatch.context() as patch:
            # The historical semantics: every phase is driven, dead or not.
            patch.setattr(SyncPlan, "live", lambda self, phase, members=None: True)
            driven = spy_on_synchronize(patch)
            forced = run_app("d-galois", app, GRAPH, hosts, **options)
        totals = Counter()
        verdicts = {}
        for plan, sink in driven:
            for label, msgs, *_ in sink:
                kind, _, name = label.partition(":")
                if kind == "framing":
                    continue
                (entry,) = [e for e in plan.fields if e.field.name == name]
                totals[label] += len(msgs)
                verdicts[label] = entry.live[kind]
        for label, live in verdicts.items():
            if not live:
                assert totals[label] == 0, (app, label)
            elif level.temporal:
                # Memoized peers always hear from each other, if only EMPTY.
                assert totals[label] > 0, (app, label)
        with pytest.MonkeyPatch.context() as patch:
            obeyed = spy_on_synchronize(patch)
            result = run_app("d-galois", app, GRAPH, hosts, **options)
        assert fingerprint(result, ANSWER[app]) == fingerprint(forced, ANSWER[app])
        # The dead phases' zero-byte records are still in the sink.
        assert labels_and_messages(obeyed) == labels_and_messages(driven)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("policy", ["oec", "iec", "cvc"])
def test_every_worker_reaches_the_coordinators_verdict(policy, workers):
    """A worker binds only its own hosts, but judges liveness over all
    of the executor's books — the verdict must not depend on which hosts it
    owns, or one worker would wait on markers another never sends."""
    result = run_app("d-galois", "bfs", GRAPH, 4, policy=policy)
    ex = result.executor
    books = [sub.book for sub in ex.substrates]  # what a forked worker reads
    coordinator = [
        [(e.live["reduce"], e.live["broadcast"]) for e in sub.plan.fields]
        for sub in ex.substrates
    ]
    assert len({tuple(v) for v in coordinator}) == 1
    for w in range(workers):
        owned = [h for h in range(4) if h % workers == w]
        substrates = {
            h: GluonSubstrate(
                ex.partitioned.partitions[h], InProcessTransport(4), ex.level, books[h]
            )
            for h in owned
        }
        fields = {h: ex.fields[h] for h in owned}
        bind_sync_plans(owned, substrates, fields, books)
        for h in owned:
            assert [
                (e.live["reduce"], e.live["broadcast"]) for e in substrates[h].plan.fields
            ] == coordinator[h]
        liveness = phase_liveness(books, ex.level.structural, fields[owned[0]])
        assert [(v["reduce"], v["broadcast"]) for v in liveness] == coordinator[0]


def count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def counted_run(monkeypatch, *args, **kwargs):
    calls = Counter()
    for method in (
        "stage_reduce", "stage_broadcast", "flush_phase",
        "receive_reduce_all", "receive_broadcast_all",
    ):
        count_calls(monkeypatch, GluonSubstrate, method, calls)
    # The substrate's own bindings of the per-phase codec entry points.
    count_calls(monkeypatch, substrate_module, "encode_sends", calls)
    count_calls(monkeypatch, substrate_module, "decode_update", calls)
    count_calls(monkeypatch, codec_module, "read_message", calls)
    real_encode = substrate_module.encode_sends

    def spoken(*args, **kwargs):
        modes, payloads = real_encode(*args, **kwargs)
        calls["encoded"] += sum(mode != MetadataMode.EMPTY for mode in modes)
        return modes, payloads

    monkeypatch.setattr(substrate_module, "encode_sends", spoken)
    count_calls(monkeypatch, patterns_module, "proxy_arrays", calls)
    count_calls(monkeypatch, round_module, "broadcast_dirty", calls)
    return run_app(*args, **kwargs), calls


def test_exact_counts_bfs_oec_never_drives_the_broadcast(monkeypatch):
    hosts = 4
    result, calls = counted_run(
        monkeypatch, "d-ligra", "bfs", grid_graph(64, 64), hosts, policy="oec"
    )
    rounds = result.num_rounds
    # Every simulated quantity is where it was before the plan was obeyed.
    assert rounds == 125
    assert result.communication_volume == 10560
    assert result.communication_messages == 750
    assert result.construction_bytes == 1656
    assert result.mode_counts == {
        MetadataMode.EMPTY: 378, MetadataMode.BITVEC: 12, MetadataMode.INDICES: 360,
    }
    assert values_digest(result.executor.gather_result("dist")) == (
        "9beb9dc7234f6b149dcbc2ec8d46ab7e19794399a33b6097f451cb3ace0f5728"
    )
    # OEC under OSTI is reduce-only: the broadcast phase is never driven.
    assert calls["stage_broadcast"] == calls["receive_broadcast_all"] == 0
    assert calls["stage_reduce"] == calls["receive_reduce_all"] == hosts * rounds
    assert calls["flush_phase"] == hosts * rounds  # the reduce flush only
    # A quiet host never reaches the codec, and a quiet peer is never
    # parsed: one encode pass per host-phase with something to say, one
    # decode per spoken sub-message.
    spoken = sum(result.mode_counts.values()) - result.mode_counts[MetadataMode.EMPTY]
    assert calls["encoded"] == calls["decode_update"] == spoken
    assert calls["read_message"] == spoken
    assert 0 < calls["encode_sends"] <= spoken
    # Routes are resolved per field at bind, not per round.
    assert 0 < calls["proxy_arrays"] <= 6 * hosts
    # bfs has no hook and its broadcast is dead: the apply's mask has no
    # reader, so it is never built.
    assert calls["broadcast_dirty"] == 0


def test_exact_counts_featprop_iec_never_drives_the_reduce(monkeypatch):
    hosts = 4
    result, calls = counted_run(
        monkeypatch, "d-galois", "featprop", rmat(9, 8, 3), hosts, policy="iec",
        feature_dim=8, feature_rounds=4,
    )
    rounds = result.num_rounds
    assert rounds == 4
    assert result.communication_volume == 178818
    assert result.communication_messages == 48
    assert result.construction_bytes == 3202
    assert result.mode_counts == {MetadataMode.FULL: 18, MetadataMode.BITVEC: 30}
    assert values_digest(result.executor.gather_result("feat")) == (
        "3d84a98fe0837097255f377fc9c926e1367226ab32580f7b595018de0ff36223"
    )
    # IEC under OSTI is broadcast-only: the reduce phase is never driven...
    assert calls["stage_reduce"] == calls["receive_reduce_all"] == 0
    assert calls["stage_broadcast"] == calls["receive_broadcast_all"] == hosts * rounds
    assert calls["flush_phase"] == hosts * rounds
    # ...but the master-side hook (the whole of featprop's apply) still
    # runs on every host every round — the digest above depends on it.
    assert calls["broadcast_dirty"] == hosts * rounds
    assert calls["encoded"] == calls["decode_update"] == calls["read_message"] == 48
    assert calls["encode_sends"] == hosts * rounds  # one pass per host-phase
    assert 0 < calls["proxy_arrays"] <= 6 * hosts


def test_hook_of_a_dead_reduce_sees_an_empty_set():
    """``broadcast_dirty`` with no reduce hands the hook the empty set."""
    from types import SimpleNamespace

    from repro.core.sync_structures import ADD, FieldSpec

    seen = []
    field = FieldSpec(
        "acc", np.zeros(5), ADD,
        on_master_after_reduce=lambda changed: seen.append(changed) or changed,
    )
    outcome = SimpleNamespace(updated=np.arange(5))
    part = SimpleNamespace(num_masters=3)
    dirty = round_module.broadcast_dirty(part, field, None, outcome)
    assert dirty is seen[0] and dirty.dtype == np.intp and len(dirty) == 0
    # Without a hook, the updated masters broadcast.
    plain = FieldSpec("v", np.zeros(5), ADD)
    assert round_module.broadcast_dirty(part, plain, None, outcome).tolist() == [0, 1, 2]


def test_warm_books_that_predate_peer_order_still_get_a_plan():
    """Address books unpickled from an old disk cache lack ``peer_order``;
    the plan rebuilds it, and the warm run is the cold run."""
    from repro.systems import plan_run

    plan = plan_run("d-galois", "bfs", GRAPH, 4, policy="cvc")
    partitioned = plan.build().partitioned
    cold = plan.executor(partitioned)
    cold_result = cold.run()
    prepared = cold.harvest_prepared_sync()
    for book in prepared.books:
        del book.__dict__["peer_order"]
    warm = plan.executor(partitioned, prepared_sync=prepared)
    warm_result = warm.run()
    assert [sub.plan.peer_order for sub in warm.substrates] == [
        (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2),
    ]
    for result, executor in ((cold_result, cold), (warm_result, warm)):
        result.executor = executor
    assert fingerprint(warm_result, "dist") == fingerprint(cold_result, "dist")
