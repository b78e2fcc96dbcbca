"""Unit tests for the Gluon substrate's synchronization collective.

These drive the shared collective (``repro.runtime.round.synchronize``)
directly, without the executor, against hand-checkable partitions, for
every optimization level.
"""

import numpy as np
import pytest

from repro.core.optimization import OptimizationLevel
from repro.core.metadata import MetadataMode
from repro.core.substrate import setup_substrates
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.errors import SyncError
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from tests.conftest import bind_one_field, sync_one_field

LEVELS = list(OptimizationLevel)


def make_setup(edges, policy, num_hosts, level):
    partitioned = make_partitioner(policy).partition(edges, num_hosts)
    transport = InProcessTransport(num_hosts)
    subs = setup_substrates(partitioned, transport, level)
    transport.end_round()
    return partitioned, transport, subs


def min_fields_with_global_values(partitioned, base_value=1000):
    """Per-host MIN field initialized to base + global id (all distinct)."""
    fields = []
    for part in partitioned.partitions:
        values = (base_value + part.local_to_global).astype(np.uint32)
        fields.append(FieldSpec(name="v", values=values, reduce_op=MIN))
    return fields


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("policy", ["oec", "iec", "cvc", "hvc"])
def test_min_sync_reaches_master(small_rmat, level, policy, request):
    """A mirror's improved value must land on the master under every
    level and policy combination."""
    partitioned, transport, subs = make_setup(small_rmat, policy, 4, level)
    fields = min_fields_with_global_values(partitioned)
    # Pick a mirror that participates in reduce under this plan.
    chosen = None
    for sub, plan in zip(subs, bind_one_field(subs, fields)):
        for peer, arr in plan.sends["reduce"]:
            chosen = (sub, peer, int(arr[0]))
            break
        if chosen:
            break
    if chosen is None:
        pytest.skip(f"{policy}: no reduce traffic (broadcast-only strategy)")
    sub, peer, mirror_lid = chosen
    gid = sub.partition.to_global(mirror_lid)
    fields[sub.host].values[mirror_lid] = 1  # improvement at the mirror
    dirty = [
        np.zeros(s.partition.num_nodes, dtype=bool) for s in subs
    ]
    dirty[sub.host][mirror_lid] = True
    sync_one_field(partitioned, subs, fields, dirty)
    owner = int(partitioned.master_host[gid])
    master_lid = partitioned.partitions[owner].to_local(gid)
    assert fields[owner].values[master_lid] == 1


@pytest.mark.parametrize("level", LEVELS)
def test_broadcast_reaches_reading_mirrors(small_rmat, level):
    """Under IEC (broadcast-only), a master update must reach all mirrors."""
    partitioned, transport, subs = make_setup(small_rmat, "iec", 4, level)
    fields = min_fields_with_global_values(partitioned)
    # Find a master with at least one mirror.
    chosen = None
    for sub, plan in zip(subs, bind_one_field(subs, fields)):
        for peer, arr in plan.sends["broadcast"]:
            chosen = (sub, int(arr[0]))
            break
        if chosen:
            break
    assert chosen is not None
    sub, master_lid = chosen
    gid = sub.partition.to_global(master_lid)
    fields[sub.host].values[master_lid] = 2
    dirty = [np.zeros(s.partition.num_nodes, dtype=bool) for s in subs]
    dirty[sub.host][master_lid] = True
    sync_one_field(partitioned, subs, fields, dirty)
    for part, field in zip(partitioned.partitions, fields):
        if part.host != sub.host and part.has_proxy(gid):
            lid = part.to_local(gid)
            if part.graph.out_degree(lid) > 0:  # reading mirrors
                assert field.values[lid] == 2


@pytest.mark.parametrize("level", LEVELS)
def test_add_reduce_sums_partials_and_resets_mirrors(small_rmat, level):
    """ADD contributions from several mirrors sum at the master, and the
    mirrors reset to the identity for the next round."""
    partitioned, transport, subs = make_setup(small_rmat, "hvc", 4, level)
    fields = []
    for part in partitioned.partitions:
        fields.append(
            FieldSpec(
                name="acc",
                values=np.zeros(part.num_nodes, dtype=np.uint32),
                reduce_op=ADD,
                # Reduce phase only: a UVC mirror may be both
                # reduce-sender and broadcast-receiver, so broadcasting
                # would overwrite the reset value.
                sync_phases={"reduce"},
            )
        )
    # Every reduce-participating mirror contributes exactly 1.
    contributions = np.zeros(partitioned.num_global_nodes, dtype=np.int64)
    dirty = []
    plans = bind_one_field(subs, fields)
    for sub, field in zip(subs, fields):
        mask = np.zeros(sub.partition.num_nodes, dtype=bool)
        for _, arr in plans[sub.host].sends["reduce"]:
            field.values[arr] = 1
            mask[arr] = True
            contributions[sub.partition.local_to_global[arr]] += 1
        dirty.append(mask)
    sync_one_field(partitioned, subs, fields, dirty)
    for part, field in zip(partitioned.partitions, fields):
        master_gids = part.local_to_global[: part.num_masters]
        expected = contributions[master_gids]
        assert np.array_equal(
            field.values[: part.num_masters].astype(np.int64), expected
        )
        # Mirrors that sent were reset to 0 (ADD identity).
        for sub in subs:
            if sub.host == part.host:
                for _, arr in plans[sub.host].sends["reduce"]:
                    assert np.all(field.values[arr] == 0)


def test_dirty_set_validation(small_rmat):
    _, _, subs = make_setup(
        small_rmat, "oec", 2, OptimizationLevel.OSTI
    )
    n = subs[0].partition.num_nodes
    field = FieldSpec(name="v", values=np.zeros(n, dtype=np.uint32), reduce_op=MIN)
    with pytest.raises(SyncError, match="not bound"):
        subs[0].stage_reduce(0, field, np.empty(0, dtype=np.intp))
    bind_one_field(subs, [field, field])
    for refused in (
        np.zeros(n, dtype=bool),  # a mask is not a set
        np.array([0, 1], dtype=np.uint32),
        np.array([-1, 0], dtype=np.intp),
        np.array([0, n], dtype=np.intp),
        np.array([[0]], dtype=np.intp),
    ):
        with pytest.raises(SyncError, match="dirty set must be sorted"):
            subs[0].stage_reduce(0, field, refused)
    subs[0].stage_reduce(0, field, np.array([0, n - 1], dtype=np.intp))


def test_temporal_levels_send_no_global_ids(small_rmat):
    for level in (OptimizationLevel.OTI, OptimizationLevel.OSTI):
        partitioned, transport, subs = make_setup(
            small_rmat, "cvc", 4, level
        )
        fields = min_fields_with_global_values(partitioned)
        dirty = [
            np.ones(s.partition.num_nodes, dtype=bool) for s in subs
        ]
        sync_one_field(partitioned, subs, fields, dirty)
        for sub in subs:
            assert sub.stats.translations == 0
            assert MetadataMode.GLOBAL_IDS not in sub.stats.mode_counts


def test_non_temporal_levels_translate(small_rmat):
    for level in (OptimizationLevel.UNOPT, OptimizationLevel.OSI):
        partitioned, transport, subs = make_setup(
            small_rmat, "cvc", 4, level
        )
        fields = min_fields_with_global_values(partitioned)
        # Improve every mirror so reduce traffic exists.
        dirty = []
        plans = bind_one_field(subs, fields)
        for sub, field in zip(subs, fields):
            mask = np.zeros(sub.partition.num_nodes, dtype=bool)
            for _, arr in plans[sub.host].sends["reduce"]:
                field.values[arr] = 0
                mask[arr] = True
            dirty.append(mask)
        sync_one_field(partitioned, subs, fields, dirty)
        total_translations = sum(s.stats.translations for s in subs)
        assert total_translations > 0
        modes = set()
        for sub in subs:
            modes.update(sub.stats.mode_counts)
        assert modes <= {MetadataMode.GLOBAL_IDS}


def test_memoized_empty_messages_flow(small_rmat):
    """With no updates, temporal levels still send (tiny) EMPTY messages."""
    partitioned, transport, subs = make_setup(
        small_rmat, "cvc", 4, OptimizationLevel.OSTI
    )
    fields = min_fields_with_global_values(partitioned)
    dirty = [np.zeros(s.partition.num_nodes, dtype=bool) for s in subs]
    sync_one_field(partitioned, subs, fields, dirty)
    total_empty = sum(
        s.stats.mode_counts.get(MetadataMode.EMPTY, 0) for s in subs
    )
    assert total_empty > 0
    # And values were not disturbed anywhere.
    for part, field in zip(partitioned.partitions, fields):
        assert np.array_equal(
            field.values, (1000 + part.local_to_global).astype(np.uint32)
        )


def test_unexpected_memoized_sender_rejected(small_rmat):
    partitioned, transport, subs = make_setup(
        small_rmat, "oec", 2, OptimizationLevel.OSTI
    )
    # Craft a FULL-mode message from a sender with an empty agreed array.
    from repro.comm.frame import encode_frame
    from repro.core.serialization import encode_message

    field = FieldSpec(
        name="v",
        values=np.zeros(subs[0].partition.num_nodes, dtype=np.uint32),
        reduce_op=MIN,
    )
    bogus = encode_message(
        MetadataMode.FULL, np.array([1, 2, 3], dtype=np.uint32)
    )
    transport.send(1, 0, encode_frame([bogus]))
    bind_one_field(subs, [field, field])
    with pytest.raises(SyncError):
        subs[0].receive_reduce_all([field])
