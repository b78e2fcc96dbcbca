"""Tests for the sync<WriteLocation, ReadLocation> generality (Figure 4).

The default flow (write at destination, read at source) is covered by the
application suite; these tests exercise the other template instantiations:
write-at-source reductions (BC's backward pass) and read-at-destination
broadcasts.
"""

import numpy as np
import pytest

from repro.core.optimization import OptimizationLevel
from repro.core.patterns import build_sync_plan, phase_liveness
from repro.core.substrate import setup_substrates
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.errors import SyncError
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from tests.conftest import sync_one_field

BOTH = frozenset({"source", "destination"})


def make_setup(edges, policy, num_hosts, level=OptimizationLevel.OSTI):
    partitioned = make_partitioner(policy).partition(edges, num_hosts)
    transport = InProcessTransport(num_hosts)
    subs = setup_substrates(partitioned, transport, level)
    transport.end_round()
    return partitioned, transport, subs


class TestFieldLocationValidation:
    def test_defaults(self):
        field = FieldSpec(
            name="x", values=np.zeros(3, dtype=np.uint32), reduce_op=MIN
        )
        assert field.writes == frozenset({"destination"})
        assert field.reads == frozenset({"source"})

    def test_invalid_locations_rejected(self):
        with pytest.raises(SyncError):
            FieldSpec(
                name="x",
                values=np.zeros(3, dtype=np.uint32),
                reduce_op=MIN,
                writes=frozenset({"everywhere"}),
            )
        with pytest.raises(SyncError):
            FieldSpec(
                name="x",
                values=np.zeros(3, dtype=np.uint32),
                reduce_op=MIN,
                reads=frozenset(),
            )


def resolved(sub, field):
    """``field``'s entry in the plan ``sub`` would consult, bound alone."""
    liveness = phase_liveness([sub.book], sub.level.structural, [field])
    plan = build_sync_plan(sub.book, sub.level.structural, [field], liveness)
    return plan.of(field)


def assert_routes(entry, phase, send_arrays, recv_arrays):
    """In ``phase`` the field sends the non-empty ``send_arrays`` and
    receives into ``recv_arrays`` — the address book's own arrays."""
    sends = entry.sends[phase]
    assert [peer for peer, _ in sends] == [
        peer for peer in sorted(send_arrays) if len(send_arrays[peer])
    ]
    assert all(agreed is send_arrays[peer] for peer, agreed in sends)
    assert entry.recv[phase] is recv_arrays


class TestSetSelection:
    def test_write_at_source_selects_out_edge_mirrors(self, small_rmat):
        _, _, subs = make_setup(small_rmat, "cvc", 4)
        field = FieldSpec(
            name="delta",
            values=np.zeros(subs[0].num_local_nodes, dtype=np.float64),
            reduce_op=ADD,
            writes=frozenset({"source"}),
            reads=frozenset({"destination"}),
        )
        sub = subs[0]
        entry = resolved(sub, field)
        assert_routes(
            entry, "reduce", sub.book.mirrors_broadcast, sub.book.masters_broadcast
        )
        assert_routes(
            entry, "broadcast", sub.book.masters_reduce, sub.book.mirrors_reduce
        )

    def test_read_both_selects_any(self, small_rmat):
        _, _, subs = make_setup(small_rmat, "cvc", 4)
        field = FieldSpec(
            name="dist",
            values=np.zeros(subs[0].num_local_nodes, dtype=np.uint32),
            reduce_op=MIN,
            reads=BOTH,
        )
        sub = subs[0]
        assert_routes(
            resolved(sub, field),
            "broadcast",
            sub.book.masters_any,
            sub.book.mirrors_any,
        )

    def test_unopt_ignores_locations(self, small_rmat):
        _, _, subs = make_setup(
            small_rmat, "cvc", 4, OptimizationLevel.UNOPT
        )
        field = FieldSpec(
            name="delta",
            values=np.zeros(subs[0].num_local_nodes, dtype=np.float64),
            reduce_op=ADD,
            writes=frozenset({"source"}),
        )
        sub = subs[0]
        entry = resolved(sub, field)
        assert_routes(
            entry, "reduce", sub.book.mirrors_all, sub.book.masters_all
        )
        assert_routes(
            entry, "broadcast", sub.book.masters_all, sub.book.mirrors_all
        )


class TestWriteAtSourceCollective:
    @pytest.mark.parametrize("policy", ["oec", "iec", "cvc", "hvc"])
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_source_written_add_reduction_sums_once(
        self, small_rmat, policy, level
    ):
        """Every proxy with out-edges contributes 1; the master total must
        equal the node's number of out-edge-bearing proxies — under every
        policy and optimization level."""
        partitioned, transport, subs = make_setup(
            small_rmat, policy, 4, level
        )
        fields = []
        expected = np.zeros(partitioned.num_global_nodes, dtype=np.int64)
        dirty_masks = []
        for part, sub in zip(partitioned.partitions, subs):
            values = np.zeros(part.num_nodes, dtype=np.float64)
            out_deg = part.graph.out_degree()
            contributors = np.flatnonzero(out_deg > 0)
            mirrors = contributors[contributors >= part.num_masters]
            values[mirrors] = 1.0
            expected[part.local_to_global[mirrors]] += 1
            field = FieldSpec(
                name="count",
                values=values,
                reduce_op=ADD,
                writes=frozenset({"source"}),
                reads=frozenset({"destination"}),
                sync_phases={"reduce"},
            )
            fields.append(field)
            dirty = np.zeros(part.num_nodes, dtype=bool)
            dirty[mirrors] = True
            dirty_masks.append(dirty)
        sync_one_field(partitioned, subs, fields, dirty_masks)
        for part, field in zip(partitioned.partitions, fields):
            master_gids = part.local_to_global[: part.num_masters]
            got = field.values[: part.num_masters].astype(np.int64)
            assert np.array_equal(got, expected[master_gids]), (policy, level)
