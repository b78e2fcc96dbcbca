"""The one-pass encode and the one-parse-per-frame decode against the old
per-message path (``old_sync.py``, kept verbatim), over random layouts.

For every peer of every host, the frame the substrate hands the
transport must be byte-identical to the old path's; the mode
counts and translation counts must match; and decoding and applying the
traffic must leave identical field arrays and changed masks.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.comm.codec as codec
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.substrate import bind_sync_plans, setup_substrates
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.graph.generators import rmat
from repro.network.transport import InProcessTransport
from repro.partition import PARTITIONER_BY_NAME, make_partitioner
from tests.comm.old_sync import old_encode_frame, old_receive, old_stage

GRAPH = rmat(scale=9, edge_factor=4, seed=5)
KINDS = ("scalar", "wide", "fp16")


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
    compression = "fp16" if kind == "fp16" else "delta"
    return FieldSpec("rows", rows, ADD, compression=compression)


def build(partitioned, level, kind, seed):
    transport = InProcessTransport(partitioned.num_hosts)
    subs = setup_substrates(partitioned, transport, level)
    transport.end_round()
    fields = [
        [make_field(kind, part.num_nodes, seed + part.host)]
        for part in partitioned.partitions
    ]
    bind_sync_plans(range(len(subs)), subs, fields, [s.book for s in subs])
    return transport, subs, fields


def exchange(transport, subs, fields, old_subs, old_fields, phase, dirties):
    """One phase on both paths: every host stages its ``dirties[h]``,
    then every host receives.  Asserts byte-identical wire traffic, equal
    accounting and identical applied fields and changed sets (the old
    path's masks, as sorted IDs)."""
    broadcast = phase == "broadcast"
    hosts = len(subs)
    old_mail = {h: [] for h in range(hosts)}
    for h, sub in enumerate(subs):
        dirty = dirties[h]
        modes_before = Counter(sub.stats.mode_counts)
        translations_before = sub.stats.translations
        stage = sub.stage_broadcast if broadcast else sub.stage_reduce
        stage(0, fields[h][0], np.flatnonzero(dirty))
        sub.flush_phase(1)
        staged, modes, translations = old_stage(
            old_subs[h], 0, old_fields[h][0], dirty, phase
        )
        if broadcast:  # a no-op but for a lossless wide field
            old_fields[h][0].commit_broadcast(np.flatnonzero(dirty))
        for peer, payload in staged:
            old_mail[peer].append((h, old_encode_frame([payload])))
        assert Counter(sub.stats.mode_counts) - modes_before == modes
        assert sub.stats.translations - translations_before == translations
    for h, sub in enumerate(subs):
        mail = transport.receive_all(h)
        assert [(s, bytes(b)) for s, b in mail] == old_mail[h]
        sub.plane.transport = Inbox(mail)
        before = sub.stats.translations
        receive = sub.receive_broadcast_all if broadcast else sub.receive_reduce_all
        changed = receive(fields[h])
        old_changed, old_translations = old_receive(
            old_subs[h], old_fields[h], phase, old_mail[h], True
        )
        assert sub.stats.translations - before == old_translations
        for got, want in zip(changed, old_changed):
            assert (got is None) == (want is None)
            if got is not None:  # the old path's masks, as index sets
                assert np.array_equal(got, np.flatnonzero(want))
        new, old = fields[h][0], old_fields[h][0]
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.broadcast_values, old.broadcast_values)
        sub.plane.transport = transport


@given(
    policy=st.sampled_from(sorted(PARTITIONER_BY_NAME)),
    hosts=st.integers(2, 6),
    level=st.sampled_from(list(OptimizationLevel)),
    kind=st.sampled_from(KINDS),
    phase=st.sampled_from(["reduce", "broadcast"]),
    share=st.sampled_from([0.0, 0.002, 0.02, 0.2, 0.6, 0.97, 0.99, 1.0]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=150, deadline=None)
def test_one_pass_matches_the_per_message_path(
    policy, hosts, level, kind, phase, share, seed
):
    partitioned = make_partitioner(policy).partition(GRAPH, hosts)
    transport, subs, fields = build(partitioned, level, kind, seed)
    _, old_subs, old_fields = build(partitioned, level, kind, seed)
    rng = np.random.default_rng(seed)
    dirties = [rng.random(sub.num_local_nodes) < share for sub in subs]
    exchange(transport, subs, fields, old_subs, old_fields, phase, dirties)


def second_broadcast(rng, sub, field, old_field, rotation):
    """Dirty masters for a second delta broadcast and change them on both
    paths.  Peers take turns (from ``rotation``) at three roles: every
    agreed row dirty and changed in every column (a FULL message that
    ships its rows whole), a third of the rows (BITVEC) and one row
    (INDICES).  Every other dirty master changes in every column, some
    columns or none, so the masks hold all-True, partial and — where the
    first broadcast committed the row — all-False rows.  Returns the
    dirty mask."""
    dirty = np.zeros(sub.num_local_nodes, dtype=bool)
    whole = np.zeros(sub.num_local_nodes, dtype=bool)
    for i, (_, agreed) in enumerate(sub.plan.of(field).sends["broadcast"]):
        role = (i + rotation) % 3
        if role == 0:
            dirty[agreed] = whole[agreed] = True
        elif role == 1:
            dirty[agreed[rng.random(len(agreed)) < 0.3]] = True
        else:
            dirty[agreed[rng.integers(len(agreed))]] = True
    rows = np.flatnonzero(dirty)
    change = rng.integers(0, 3, len(rows))  # every column, some, none
    change[whole[rows]] = 0
    columns = np.zeros((len(rows), field.width), dtype=bool)
    columns[change == 0] = True
    some = change == 1
    columns[some] = rng.random((int(some.sum()), field.width)) < 0.5
    columns[some, rng.integers(0, field.width, int(some.sum()))] = False
    for target in (field, old_field):
        target.broadcast_values[rows] += columns
    return dirty


@pytest.fixture
def drawn(monkeypatch):
    """Spy on the one-pass encoder: per delta pass, the row kinds, the
    message kinds, the modes its messages were drawn with and the form
    (rows or delta) each one shipped as."""
    passes = []
    plain = codec.encode_messages

    def encode_messages(modes, values, rows, **kwargs):
        messages = plain(modes, values, rows, **kwargs)
        mask = kwargs.get("delta_mask")
        if mask is not None:
            seen = set()
            for i, mode in enumerate(modes):
                if mode == int(MetadataMode.EMPTY):
                    continue
                shipped = mask[rows[i] : rows[i + 1]]
                per_row = shipped.sum(axis=1)
                seen.add(MetadataMode(mode).name)
                seen.add("all-shipped message" if shipped.all() else "partial message")
                seen.add("delta form" if messages[i][0] & 0x40 else "rows form")
                if (per_row == mask.shape[1]).any():
                    seen.add("all-True row")
                if ((per_row > 0) & (per_row < mask.shape[1])).any():
                    seen.add("partial row")
                if (per_row == 0).any():
                    seen.add("all-False row")
            passes.append(seen)
        return messages

    monkeypatch.setattr(codec, "encode_messages", encode_messages)
    return passes


EVERY_CASE = {
    "all-True row", "partial row", "all-False row",
    "all-shipped message", "partial message", "FULL", "BITVEC", "INDICES",
    "rows form", "delta form",
}


def two_broadcasts(policy, hosts, level, seed, rotation, drawn=None):
    """A first delta broadcast commits random rows; the second ships
    partial masks against those commits.  Both match ``old_sync``.
    ``drawn`` (the spy's record) is emptied between the two."""
    partitioned = make_partitioner(policy).partition(GRAPH, hosts)
    transport, subs, fields = build(partitioned, level, "wide", seed)
    _, old_subs, old_fields = build(partitioned, level, "wide", seed)
    rng = np.random.default_rng(seed)
    first = [rng.random(sub.num_local_nodes) < 0.5 for sub in subs]
    exchange(transport, subs, fields, old_subs, old_fields, "broadcast", first)
    if drawn is not None:
        drawn.clear()
    second = [
        second_broadcast(rng, sub, fields[h][0], old_fields[h][0], rotation + h)
        for h, sub in enumerate(subs)
    ]
    exchange(transport, subs, fields, old_subs, old_fields, "broadcast", second)


@given(
    policy=st.sampled_from(sorted(PARTITIONER_BY_NAME)),
    hosts=st.integers(2, 6),
    level=st.sampled_from([OptimizationLevel.OTI, OptimizationLevel.OSTI]),
    seed=st.integers(0, 1000),
    rotation=st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_partial_delta_masks_match_the_per_message_path(
    policy, hosts, level, seed, rotation
):
    two_broadcasts(policy, hosts, level, seed, rotation)


@pytest.mark.parametrize("rotation", [0, 1, 2])
@pytest.mark.parametrize("policy", ["cvc", "jagged"])
def test_the_second_broadcast_draws_every_case(drawn, policy, rotation):
    """Where each host broadcasts to one peer, the roles rotate over the
    hosts: one run's second broadcast draws every row kind, an
    all-shipped and a partial message, all three memoized modes and
    messages shipped in both forms."""
    two_broadcasts(policy, 4, OptimizationLevel.OSTI, 3, rotation, drawn)
    assert len(drawn) == 4  # one encode pass per host
    assert set().union(*drawn) == EVERY_CASE


def test_every_mode_is_drawn():
    """The strategy above reaches every metadata mode on both paths."""
    partitioned = make_partitioner("cvc").partition(GRAPH, 4)
    seen = Counter()
    for level in (OptimizationLevel.OSTI, OptimizationLevel.UNOPT):
        for share in (0.0, 0.02, 0.2, 1.0):
            _, subs, fields = build(partitioned, level, "scalar", 1)
            for h, sub in enumerate(subs):
                rng = np.random.default_rng(h)
                sub.stage_reduce(
                    0, fields[h][0], np.flatnonzero(rng.random(sub.num_local_nodes) < share)
                )
                sub.flush_phase(1)
                seen.update(sub.stats.mode_counts)
    assert {mode.name for mode in seen} == {
        "EMPTY", "FULL", "BITVEC", "INDICES", "GLOBAL_IDS",
    }
