"""The one-pass encode and the one-parse-per-frame decode against the old
per-message path (``old_sync.py``, kept verbatim), over random layouts.

For every peer of every host, the frame (or raw payload) the substrate
hands the transport must be byte-identical to the old path's; the mode
counts and translation counts must match; and decoding and applying the
traffic must leave identical field arrays and changed masks.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimization import OptimizationLevel
from repro.core.substrate import bind_sync_plans, setup_substrates
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.graph.generators import rmat
from repro.network.transport import InProcessTransport
from repro.partition import PARTITIONER_BY_NAME, make_partitioner
from tests.comm.old_sync import old_encode_frame, old_receive, old_stage

GRAPH = rmat(scale=9, edge_factor=4, seed=5)
KINDS = ("scalar", "wide", "delta", "fp16")


class Inbox:
    """A transport stub that delivers one host's captured mail."""

    def __init__(self, mail):
        self.mail = mail

    def receive_all(self, host):
        mail, self.mail = self.mail, []
        return mail


def make_field(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "scalar":
        return FieldSpec("v", rng.integers(0, 60, n).astype(np.uint32), MIN)
    rows = rng.integers(0, 4, (n, 3)).astype(np.float32)
    compression = {"wide": "none"}.get(kind, kind)
    return FieldSpec("rows", rows, ADD, compression=compression)


def build(partitioned, level, aggregate, kind, seed):
    transport = InProcessTransport(partitioned.num_hosts)
    subs = setup_substrates(partitioned, transport, level, aggregate=aggregate)
    transport.end_round()
    fields = [
        [make_field(kind, part.num_nodes, seed + part.host)]
        for part in partitioned.partitions
    ]
    bind_sync_plans(range(len(subs)), subs, fields, [s.book for s in subs])
    return transport, subs, fields


@given(
    policy=st.sampled_from(sorted(PARTITIONER_BY_NAME)),
    hosts=st.integers(2, 6),
    level=st.sampled_from(list(OptimizationLevel)),
    aggregate=st.booleans(),
    kind=st.sampled_from(KINDS),
    phase=st.sampled_from(["reduce", "broadcast"]),
    share=st.sampled_from([0.0, 0.002, 0.02, 0.2, 0.6, 0.97, 0.99, 1.0]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=150, deadline=None)
def test_one_pass_matches_the_per_message_path(
    policy, hosts, level, aggregate, kind, phase, share, seed
):
    partitioned = make_partitioner(policy).partition(GRAPH, hosts)
    transport, subs, fields = build(partitioned, level, aggregate, kind, seed)
    _, old_subs, old_fields = build(partitioned, level, aggregate, kind, seed)
    rng = np.random.default_rng(seed)
    broadcast = phase == "broadcast"
    old_mail = {h: [] for h in range(hosts)}
    for h, sub in enumerate(subs):
        dirty = rng.random(sub.num_local_nodes) < share
        stage = sub.stage_broadcast if broadcast else sub.stage_reduce
        stage(0, fields[h][0], dirty)
        sub.flush_phase(1)
        staged, modes, translations = old_stage(
            old_subs[h], 0, old_fields[h][0], dirty, phase
        )
        if broadcast and kind == "delta":
            old_fields[h][0].commit_broadcast(np.flatnonzero(dirty))
        for peer, payload in staged:
            wire = old_encode_frame([payload]) if aggregate else payload
            old_mail[peer].append((h, wire))
        assert sub.stats.mode_counts == dict(modes)
        assert sub.stats.translations == translations
    for h, sub in enumerate(subs):
        mail = transport.receive_all(h)
        assert [(s, bytes(b)) for s, b in mail] == old_mail[h]
        sub.plane.transport = Inbox(mail)
        before = sub.stats.translations
        receive = sub.receive_broadcast_all if broadcast else sub.receive_reduce_all
        changed = receive(fields[h])
        old_changed, old_translations = old_receive(
            old_subs[h], old_fields[h], phase, old_mail[h], aggregate
        )
        assert sub.stats.translations - before == old_translations
        for got, want in zip(changed, old_changed):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)
        new, old = fields[h][0], old_fields[h][0]
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.broadcast_values, old.broadcast_values)


def test_every_mode_is_drawn():
    """The strategy above reaches every metadata mode on both paths."""
    partitioned = make_partitioner("cvc").partition(GRAPH, 4)
    seen = Counter()
    for level in (OptimizationLevel.OSTI, OptimizationLevel.UNOPT):
        for share in (0.0, 0.02, 0.2, 1.0):
            _, subs, fields = build(partitioned, level, True, "scalar", 1)
            for h, sub in enumerate(subs):
                rng = np.random.default_rng(h)
                sub.stage_reduce(0, fields[h][0], rng.random(sub.num_local_nodes) < share)
                sub.flush_phase(1)
                seen.update(sub.stats.mode_counts)
    assert {mode.name for mode in seen} == {
        "EMPTY", "FULL", "BITVEC", "INDICES", "GLOBAL_IDS",
    }
