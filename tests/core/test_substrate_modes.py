"""Tests pinning which wire modes the substrate emits in which situations."""

import numpy as np

from repro.comm.frame import decode_frame
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.serialization import decode_message
from repro.core.substrate import setup_substrates
from repro.core.sync_structures import MIN, FieldSpec
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from tests.conftest import bind_one_field


def setup(edges, policy, num_hosts, level):
    partitioned = make_partitioner(policy).partition(edges, num_hosts)
    transport = InProcessTransport(num_hosts)
    subs = setup_substrates(partitioned, transport, level)
    transport.end_round()
    fields = [
        FieldSpec(
            name="v",
            values=np.full(p.num_nodes, 100, dtype=np.uint32),
            reduce_op=MIN,
        )
        for p in partitioned.partitions
    ]
    bind_one_field(subs, fields)
    return partitioned, transport, subs, fields


def peek_messages(sub, transport, host):
    """Flush ``sub``'s phase and decode the messages ``host`` received."""
    sub.flush_phase(1)
    return [
        decode_message(message)
        for _, frame in transport.receive_all(host)
        for message in decode_frame(frame)
        if message is not None
    ]


class TestMemoizedModes:
    def test_dense_updates_use_full(self, small_rmat):
        partitioned, transport, subs, fields = setup(
            small_rmat, "oec", 2, OptimizationLevel.OSTI
        )
        sub = subs[0]
        dirty = np.zeros(sub.num_local_nodes, dtype=bool)
        for arr in sub.book.mirrors_reduce.values():
            fields[0].values[arr] = 1
            dirty[arr] = True
        sub.stage_reduce(0, fields[0], np.flatnonzero(dirty))
        messages = peek_messages(sub, transport, 1)
        assert messages
        assert all(m.mode is MetadataMode.FULL for m in messages)

    def test_single_update_uses_indices(self, small_rmat):
        partitioned, transport, subs, fields = setup(
            small_rmat, "oec", 2, OptimizationLevel.OSTI
        )
        sub = subs[0]
        # One updated mirror out of (many) agreed: INDICES wins.
        arr = next(a for a in sub.book.mirrors_reduce.values() if len(a) > 40)
        dirty = np.zeros(sub.num_local_nodes, dtype=bool)
        fields[0].values[arr[0]] = 1
        dirty[arr[0]] = True
        sub.stage_reduce(0, fields[0], np.flatnonzero(dirty))
        messages = peek_messages(sub, transport, 1)
        assert any(m.mode is MetadataMode.INDICES for m in messages)

    def test_no_updates_send_empty(self, small_rmat):
        partitioned, transport, subs, fields = setup(
            small_rmat, "oec", 2, OptimizationLevel.OSTI
        )
        subs[0].stage_reduce(
            0, fields[0], np.empty(0, dtype=np.intp)
        )
        messages = peek_messages(subs[0], transport, 1)
        assert messages
        assert all(m.mode is MetadataMode.EMPTY for m in messages)

    def test_unopt_skips_messages_without_updates(self, small_rmat):
        partitioned, transport, subs, fields = setup(
            small_rmat, "oec", 2, OptimizationLevel.UNOPT
        )
        subs[0].stage_reduce(
            0, fields[0], np.empty(0, dtype=np.intp)
        )
        subs[0].flush_phase(1)
        assert transport.pending(1) == 0

    def test_unopt_messages_carry_global_ids(self, small_rmat):
        partitioned, transport, subs, fields = setup(
            small_rmat, "oec", 2, OptimizationLevel.UNOPT
        )
        sub = subs[0]
        mirrors = sub.partition.mirror_locals()
        fields[0].values[mirrors[0]] = 1
        dirty = np.zeros(sub.num_local_nodes, dtype=bool)
        dirty[mirrors[0]] = True
        sub.stage_reduce(0, fields[0], np.flatnonzero(dirty))
        messages = peek_messages(sub, transport, 1)
        assert len(messages) == 1
        assert messages[0].mode is MetadataMode.GLOBAL_IDS
        expected_gid = sub.partition.to_global(int(mirrors[0]))
        assert messages[0].selection.tolist() == [expected_gid]

    def test_mode_counts_recorded(self, small_rmat):
        partitioned, transport, subs, fields = setup(
            small_rmat, "oec", 2, OptimizationLevel.OSTI
        )
        subs[0].stage_reduce(
            0, fields[0], np.empty(0, dtype=np.intp)
        )
        transport.receive_all(1)
        assert subs[0].stats.mode_counts.get(MetadataMode.EMPTY, 0) >= 1
