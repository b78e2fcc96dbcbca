"""Verbatim walkthrough of the paper's running example (Figures 2, 6, 7).

Constructs the two-host OEC partition of §2.2 (host h1 owns {A,B,E,F,I},
host h2 owns {C,D,G,H,J}), checks the memoization exchange of Figure 6
(h1 tells h2 it mirrors {C,G,J}), runs the level-by-level BFS of §4.2 from
source A, and decodes the actual wire message h1 sends after the second
round — which must be exactly Figure 7's: bit-vector ``110`` selecting the
mirrors of C and G, carrying the updated labels ``[2, 2]``.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import AppContext
from repro.comm.frame import decode_frame
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.serialization import decode_message
from repro.core.substrate import setup_substrates
from repro.graph.edgelist import EdgeList
from repro.network.transport import InProcessTransport
from repro.partition.base import EdgeAssignment, build_partitioned_graph
from repro.partition.metrics import verify_partition
from repro.partition.strategy import PartitionStrategy
from tests.conftest import sync_one_field

# Global IDs: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8 J=9.
A, B, C, D, E, F, G, H, I, J = range(10)
NODE_NAMES = "ABCDEFGHIJ"

#: The narrative of §4.2: round 1 reaches B and F; round 2 reaches C, G,
#: and E; J is h1's third mirror but is not updated in round 2.
EDGES = [
    (A, B),
    (A, F),
    (B, C),
    (B, G),
    (F, E),
    (E, J),
    (C, D),
    (G, H),
]

#: h1 owns the left column of Figure 2(b); h2 the right.
H1_NODES = {A, B, E, F, I}


class WireTap(InProcessTransport):
    """A transport that keeps every ``(src, dst, payload)`` it carries."""

    def __init__(self, num_hosts):
        super().__init__(num_hosts)
        self.sent = []

    def send(self, src, dst, payload):
        self.sent.append((src, dst, bytes(payload)))
        super().send(src, dst, payload)


@pytest.fixture()
def figure2_partition():
    src = np.array([e[0] for e in EDGES], dtype=np.uint32)
    dst = np.array([e[1] for e in EDGES], dtype=np.uint32)
    edges = EdgeList(10, src, dst)
    master_host = np.array(
        [0 if node in H1_NODES else 1 for node in range(10)], dtype=np.int32
    )
    edge_host = master_host[src]  # OEC: edges live with their source
    assignment = EdgeAssignment(2, master_host, edge_host)
    partitioned = build_partitioned_graph(
        edges, assignment, PartitionStrategy.OEC, "oec"
    )
    return edges, partitioned


class TestFigure2:
    def test_partition_is_valid_oec(self, figure2_partition):
        _, partitioned = figure2_partition
        assert verify_partition(partitioned) == []

    def test_h1_proxies(self, figure2_partition):
        """h1 holds masters {A,B,E,F,I} and mirrors {C,G,J}."""
        _, partitioned = figure2_partition
        h1 = partitioned.partitions[0]
        masters = {int(g) for g in h1.local_to_global[: h1.num_masters]}
        mirrors = {int(g) for g in h1.local_to_global[h1.num_masters :]}
        assert masters == H1_NODES
        assert mirrors == {C, G, J}

    def test_all_edges_connect_local_proxies(self, figure2_partition):
        """Invariant (b) of §2.2 holds by construction."""
        _, partitioned = figure2_partition
        total = sum(p.graph.num_edges for p in partitioned.partitions)
        assert total == len(EDGES)


class TestFigure6:
    def test_memoization_exchange(self, figure2_partition):
        """h1's mirrors array and h2's masters array list {C,G,J}, aligned."""
        _, partitioned = figure2_partition
        transport = InProcessTransport(2)
        subs = setup_substrates(partitioned, transport, OptimizationLevel.OSTI)
        transport.end_round()
        h1, h2 = partitioned.partitions
        mirror_gids = h1.local_to_global[subs[0].book.mirrors_all[1]]
        assert mirror_gids.tolist() == [C, G, J]
        master_gids = h2.local_to_global[subs[1].book.masters_all[0]]
        assert master_gids.tolist() == [C, G, J]


class TestFigure7:
    def test_round_two_message_is_bitvec_110(self, figure2_partition):
        """The exact §4.2 scenario: after BFS round 2 with source A, h1
        ships a BITVEC message selecting mirrors 0 and 1 (C and G) with
        values [2, 2]."""
        edges, partitioned = figure2_partition
        transport = WireTap(2)
        subs = setup_substrates(partitioned, transport, OptimizationLevel.OSTI)
        transport.end_round()
        app = make_app("bfs")
        ctx = AppContext(num_global_nodes=10, source=A)
        states = [
            app.make_state(part, ctx) for part in partitioned.partitions
        ]
        fields = [
            app.make_fields(part, state)[0]
            for part, state in zip(partitioned.partitions, states)
        ]
        frontiers = [
            app.initial_frontier(part, state, ctx)
            for part, state in zip(partitioned.partitions, states)
        ]

        def run_round():
            """One BSP round; returns h1's reduce message to h2."""
            outcomes = [
                app.step(part, state, frontier)
                for part, state, frontier in zip(
                    partitioned.partitions, states, frontiers
                )
            ]
            transport.sent.clear()
            written = [np.zeros(p.num_nodes, dtype=bool) for p in partitioned.partitions]
            for mask, outcome in zip(written, outcomes):
                mask[outcome.updated] = True
            touched = sync_one_field(partitioned, subs, fields, written)
            for host in range(2):
                frontiers[host] = np.flatnonzero(written[host] | touched[host])
            transport.end_round()
            # OEC mirrors have no out-edges, so nothing is broadcast, and
            # h2 mirrors no node of h1: the round's only message is h1's
            # reduce message to h2.
            assert [(src, dst) for src, dst, _ in transport.sent] == [(0, 1)]
            (message,) = decode_frame(transport.sent[0][2])  # one field slot
            return message

        # Round 1: h1 reaches B and F — nothing shared with h2 updates,
        # so the reduce message to h2 is EMPTY.
        payload = run_round()
        message = decode_message(payload)
        assert message.mode is MetadataMode.EMPTY

        # Round 2: h1 reaches C, G (mirrors) and E (its own master).
        payload = run_round()
        message = decode_message(payload)
        assert message.mode is MetadataMode.BITVEC
        assert message.selection.tolist() == [0, 1]  # bit-vector "110"
        assert message.values.tolist() == [2, 2]

        # And h2's masters received the canonical labels.
        h2 = partitioned.partitions[1]
        dist_h2 = states[1]["dist"]
        assert dist_h2[h2.to_local(C)] == 2
        assert dist_h2[h2.to_local(G)] == 2
        assert dist_h2[h2.to_local(J)] == np.iinfo(np.uint32).max
