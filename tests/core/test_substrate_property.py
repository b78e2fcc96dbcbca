"""Property-based verification of the synchronization collective.

The oracle: after one reduce+broadcast collective over a MIN field where
arbitrary proxies were written arbitrary values, every master must hold
``min`` over all its proxies' written values (and its own), and every
reader mirror must hold the master value.  This must be true for random
graphs, every policy, and every optimization level — the substrate's
fundamental contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimization import OptimizationLevel
from repro.core.substrate import setup_substrates
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.graph.edgelist import EdgeList
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from tests.conftest import sync_one_field

BASE = 1000


@st.composite
def sync_scenarios(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=40))
    num_edges = draw(st.integers(min_value=1, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges, dtype=np.uint32)
    dst = rng.integers(0, num_nodes, size=num_edges, dtype=np.uint32)
    edges = EdgeList(num_nodes, src, dst).deduplicate()
    policy = draw(st.sampled_from(["oec", "iec", "cvc", "hvc"]))
    num_hosts = draw(st.integers(min_value=2, max_value=5))
    level = draw(st.sampled_from(list(OptimizationLevel)))
    write_seed = draw(st.integers(min_value=0, max_value=2**31))
    return edges, policy, num_hosts, level, write_seed


@given(scenario=sync_scenarios())
@settings(max_examples=60, deadline=None)
def test_min_collective_matches_oracle(scenario):
    edges, policy, num_hosts, level, write_seed = scenario
    partitioned = make_partitioner(policy).partition(edges, num_hosts)
    transport = InProcessTransport(num_hosts)
    subs = setup_substrates(partitioned, transport, level)
    transport.end_round()

    rng = np.random.default_rng(write_seed)
    fields = []
    dirty_masks = []
    # Oracle bookkeeping: the min over every written value per global node.
    oracle = np.full(edges.num_nodes, BASE, dtype=np.int64)
    for part, sub in zip(partitioned.partitions, subs):
        values = np.full(part.num_nodes, BASE, dtype=np.uint32)
        dirty = np.zeros(part.num_nodes, dtype=bool)
        # Random writes, but only to proxies the compute phase could
        # write: masters, plus mirrors with local in-edges.
        in_deg = part.graph.in_degree()
        writable = np.flatnonzero(
            (np.arange(part.num_nodes) < part.num_masters) | (in_deg > 0)
        )
        if len(writable):
            chosen = writable[rng.random(len(writable)) < 0.5]
            written = rng.integers(0, BASE, size=len(chosen))
            values[chosen] = written
            dirty[chosen] = True
            gids = part.local_to_global[chosen]
            np.minimum.at(oracle, gids, written)
        fields.append(FieldSpec(name="v", values=values, reduce_op=MIN))
        dirty_masks.append(dirty)

    sync_one_field(partitioned, subs, fields, dirty_masks)

    for part, field in zip(partitioned.partitions, fields):
        # 1. Masters hold the global minimum of written values.
        master_gids = part.local_to_global[: part.num_masters]
        got = field.values[: part.num_masters].astype(np.int64)
        assert np.array_equal(got, oracle[master_gids]), (policy, level)
        # 2. Reader mirrors (out-edges) hold the master value.
        out_deg = part.graph.out_degree()
        for lid in part.mirror_locals():
            if out_deg[lid] > 0:
                gid = part.to_global(int(lid))
                assert int(field.values[lid]) == int(oracle[gid]), (
                    policy,
                    level,
                )


@given(scenario=sync_scenarios())
@settings(max_examples=40, deadline=None)
def test_add_collective_matches_oracle(scenario):
    """For ADD fields, the master total equals the sum of all written
    contributions, under every policy and level."""
    edges, policy, num_hosts, level, write_seed = scenario
    partitioned = make_partitioner(policy).partition(edges, num_hosts)
    transport = InProcessTransport(num_hosts)
    subs = setup_substrates(partitioned, transport, level)
    transport.end_round()

    rng = np.random.default_rng(write_seed)
    fields = []
    dirty_masks = []
    oracle = np.zeros(edges.num_nodes, dtype=np.int64)
    for part, sub in zip(partitioned.partitions, subs):
        values = np.zeros(part.num_nodes, dtype=np.uint32)
        dirty = np.zeros(part.num_nodes, dtype=bool)
        in_deg = part.graph.in_degree()
        writable = np.flatnonzero(
            (np.arange(part.num_nodes) < part.num_masters) | (in_deg > 0)
        )
        if len(writable):
            chosen = writable[rng.random(len(writable)) < 0.5]
            written = rng.integers(1, 10, size=len(chosen))
            values[chosen] = written
            dirty[chosen] = True
            np.add.at(oracle, part.local_to_global[chosen], written)
        # Reduce only: ADD broadcast would overwrite accumulators at
        # mirrors that are both writers and readers (the executor's apps
        # use derived broadcast arrays for that; here we check the
        # reduction itself).
        fields.append(
            FieldSpec(
                name="acc", values=values, reduce_op=ADD,
                sync_phases={"reduce"},
            )
        )
        dirty_masks.append(dirty)

    sync_one_field(partitioned, subs, fields, dirty_masks)

    for part, field in zip(partitioned.partitions, fields):
        master_gids = part.local_to_global[: part.num_masters]
        got = field.values[: part.num_masters].astype(np.int64)
        assert np.array_equal(got, oracle[master_gids]), (policy, level)
        # Contributing mirrors were reset to the ADD identity.
        in_deg = part.graph.in_degree()
        mirrors = part.mirror_locals()
        senders = mirrors[in_deg[mirrors] > 0]
        assert np.all(field.values[senders] == 0), (policy, level)
