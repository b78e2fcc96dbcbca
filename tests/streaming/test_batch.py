"""Unit tests for MutationBatch: validation, hashing, application, JSON."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.edgelist import EdgeList
from repro.streaming import StreamingSession
from repro.streaming.batch import (
    GROWTH_FLOOR,
    MutationBatch,
    load_batches,
    random_mutation_batch,
    save_batches,
)


def chain_graph(n=6, weighted=False):
    src = np.arange(n - 1, dtype=np.uint32)
    dst = np.arange(1, n, dtype=np.uint32)
    weight = np.full(n - 1, 2, dtype=np.uint32) if weighted else None
    return EdgeList(n, src, dst, weight)


class TestValidation:
    def test_insert_out_of_range_rejected(self):
        batch = MutationBatch(insert_src=[99], insert_dst=[0])
        with pytest.raises(GraphError, match="outside"):
            batch.validate_against(chain_graph())

    def test_add_nodes_extends_insert_range(self):
        batch = MutationBatch(add_nodes=1, insert_src=[6], insert_dst=[0])
        new_edges, effect = batch.apply(chain_graph())
        assert new_edges.num_nodes == 7
        assert effect.new_num_nodes == 7

    def test_delete_missing_edge_rejected(self):
        batch = MutationBatch(delete_src=[0], delete_dst=[5])
        with pytest.raises(GraphError, match="not present"):
            batch.validate_against(chain_graph())

    def test_delete_node_out_of_range_rejected(self):
        batch = MutationBatch(delete_nodes=[6])
        with pytest.raises(GraphError, match="outside"):
            batch.validate_against(chain_graph())

    def test_weighted_base_requires_insert_weight(self):
        batch = MutationBatch(insert_src=[0], insert_dst=[3])
        with pytest.raises(GraphError, match="insert_weight is required"):
            batch.validate_against(chain_graph(weighted=True))

    def test_unweighted_base_rejects_insert_weight(self):
        batch = MutationBatch(
            insert_src=[0], insert_dst=[3], insert_weight=[1]
        )
        with pytest.raises(GraphError, match="must be omitted"):
            batch.validate_against(chain_graph())

    def test_zero_weight_insert_validates(self):
        batch = MutationBatch(
            insert_src=[0, 3], insert_dst=[3, 1], insert_weight=[0, 0]
        )
        new_edges, _ = batch.apply(chain_graph(weighted=True))
        assert new_edges.weight[-2:].tolist() == [0, 0]
        # A zero-weight sssp stream still equals a cold recompute.
        session = StreamingSession(
            "d-galois", "sssp", chain_graph(weighted=True), num_hosts=2,
            policy="oec", source=0,
        )
        session.run()
        session.apply_batch(batch)
        assert session.values()["dist"].tolist() == [0, 0, 2, 0, 2, 4]
        session.apply_batch(MutationBatch(delete_src=[0], delete_dst=[3]))
        warm = session.values()["dist"]
        assert warm.tolist() == [0, 2, 4, 6, 8, 10]
        cold = session.cold_values(session.cold_run())["dist"]
        assert warm.tobytes() == cold.tobytes()

    def test_insert_referencing_same_batch_deleted_node_rejected(self):
        batch = MutationBatch(
            insert_src=[2], insert_dst=[4], delete_nodes=[2]
        )
        with pytest.raises(GraphError, match="deleted in the same batch"):
            batch.validate_against(chain_graph())

    def test_duplicate_creating_insert_rejected(self):
        batch = MutationBatch(insert_src=[0], insert_dst=[1])
        with pytest.raises(GraphError, match="duplicate"):
            batch.validate_against(chain_graph())

    def test_non_canonical_base_rejected(self):
        dup = EdgeList(
            3,
            np.array([0, 0], dtype=np.uint32),
            np.array([1, 1], dtype=np.uint32),
        )
        batch = MutationBatch(insert_src=[1], insert_dst=[2])
        with pytest.raises(GraphError, match="deduplicate"):
            batch.validate_against(dup)

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphError, match="length mismatch"):
            MutationBatch(insert_src=[0, 1], insert_dst=[2])

    def test_negative_add_nodes_rejected(self):
        with pytest.raises(GraphError, match=">= 0"):
            MutationBatch(add_nodes=-1)

    def test_add_nodes_past_the_growth_bound_rejected(self):
        edges = chain_graph()
        MutationBatch(add_nodes=GROWTH_FLOOR).validate_against(edges)
        with pytest.raises(GraphError, match="growth bound"):
            MutationBatch(add_nodes=GROWTH_FLOOR + 1).validate_against(edges)

    def test_growth_bound_scales_with_the_graph(self):
        edges = EdgeList(3 * GROWTH_FLOOR, np.empty(0, np.uint32),
                         np.empty(0, np.uint32))
        MutationBatch(add_nodes=3 * GROWTH_FLOOR).validate_against(edges)
        with pytest.raises(GraphError, match="growth bound"):
            MutationBatch(add_nodes=3 * GROWTH_FLOOR + 1).validate_against(
                edges
            )

    def test_add_nodes_past_the_id_space_rejected(self):
        edges = EdgeList(2**31 + 1, np.empty(0, np.uint32),
                         np.empty(0, np.uint32))
        with pytest.raises(GraphError, match="uint32 ID space"):
            MutationBatch(add_nodes=2**31).validate_against(edges)


class TestApply:
    def test_edge_delete_keeps_order(self):
        edges = chain_graph()
        batch = MutationBatch(delete_src=[2], delete_dst=[3])
        new_edges, effect = batch.apply(edges)
        assert new_edges.num_edges == edges.num_edges - 1
        # Survivors keep their relative order.
        keep = ~((edges.src == 2) & (edges.dst == 3))
        assert np.array_equal(new_edges.src, edges.src[keep])
        assert np.array_equal(new_edges.dst, edges.dst[keep])
        assert effect.deleted_count == 1
        assert set(effect.touched_nodes.tolist()) == {2, 3}

    def test_node_delete_drops_incident_edges(self):
        batch = MutationBatch(delete_nodes=[2])
        new_edges, effect = batch.apply(chain_graph())
        # Edges (1,2) and (2,3) are gone; vertex 2 stays in the ID space.
        assert new_edges.num_nodes == 6
        assert 2 not in new_edges.src
        assert 2 not in new_edges.dst
        assert effect.deleted_count == 2

    def test_inserts_append_at_tail_in_batch_order(self):
        batch = MutationBatch(
            insert_src=[5, 3], insert_dst=[0, 5]
        )
        new_edges, effect = batch.apply(chain_graph())
        assert new_edges.src[-2:].tolist() == [5, 3]
        assert new_edges.dst[-2:].tolist() == [0, 5]
        assert effect.inserted_count == 2

    def test_empty_batch_is_identity(self):
        edges = chain_graph()
        batch = MutationBatch()
        assert batch.is_empty
        new_edges, effect = batch.apply(edges)
        assert np.array_equal(new_edges.src, edges.src)
        assert np.array_equal(new_edges.dst, edges.dst)
        assert effect.deleted_count == 0
        assert effect.inserted_count == 0

    def test_weighted_apply_carries_weights(self):
        batch = MutationBatch(
            insert_src=[0], insert_dst=[3], insert_weight=[7],
            delete_src=[0], delete_dst=[1],
        )
        new_edges, _ = batch.apply(chain_graph(weighted=True))
        assert new_edges.weight is not None
        assert int(new_edges.weight[-1]) == 7
        assert new_edges.num_edges == 5


class TestHash:
    def test_deterministic(self):
        a = MutationBatch(insert_src=[1], insert_dst=[2], delete_nodes=[0])
        b = MutationBatch(insert_src=[1], insert_dst=[2], delete_nodes=[0])
        assert a.batch_hash() == b.batch_hash()

    def test_sensitive_to_every_field(self):
        base = MutationBatch(insert_src=[1], insert_dst=[2])
        variants = [
            MutationBatch(insert_src=[1], insert_dst=[3]),
            MutationBatch(insert_src=[2], insert_dst=[2]),
            MutationBatch(add_nodes=1, insert_src=[1], insert_dst=[2]),
            MutationBatch(
                insert_src=[1], insert_dst=[2], delete_nodes=[0]
            ),
            MutationBatch(
                insert_src=[1], insert_dst=[2], insert_weight=[1]
            ),
        ]
        hashes = {base.batch_hash()} | {v.batch_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_field_boundary_not_ambiguous(self):
        # Same concatenated bytes, different field split.
        a = MutationBatch(insert_src=[1, 2], insert_dst=[3, 4])
        b = MutationBatch(insert_src=[1], insert_dst=[3])
        assert a.batch_hash() != b.batch_hash()


class TestJson:
    def test_round_trip(self, tmp_path):
        batches = [
            MutationBatch(
                add_nodes=2,
                insert_src=[0, 6],
                insert_dst=[3, 0],
                delete_src=[1],
                delete_dst=[2],
                delete_nodes=[4],
            ),
            MutationBatch(),
            MutationBatch(
                insert_src=[1], insert_dst=[5], insert_weight=[9]
            ),
        ]
        path = tmp_path / "stream.json"
        save_batches(batches, path)
        loaded = load_batches(path)
        assert len(loaded) == len(batches)
        for original, restored in zip(batches, loaded):
            assert original.batch_hash() == restored.batch_hash()

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "stream.json"
        path.write_text('[{"insert": [[0, 1]]}]')
        loaded = load_batches(path)
        assert len(loaded) == 1
        assert loaded[0].num_inserts == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphError, match="unknown batch keys"):
            MutationBatch.from_dict({"inserts": [[0, 1]]})

    def test_mixed_insert_widths_rejected(self):
        with pytest.raises(GraphError, match="mix weighted"):
            MutationBatch.from_dict({"insert": [[0, 1], [2, 3, 4]]})

    def test_malformed_stream_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"wrong": true}')
        with pytest.raises(GraphError, match="expected a list"):
            load_batches(path)


class TestRandomBatch:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_batch_is_valid(self, weighted):
        rng = np.random.default_rng(7)
        n = 64
        src = rng.integers(0, n, size=300, dtype=np.uint32)
        dst = rng.integers(0, n, size=300, dtype=np.uint32)
        weight = (
            rng.integers(1, 50, size=300, dtype=np.uint32)
            if weighted
            else None
        )
        edges = EdgeList(n, src, dst, weight).deduplicate()
        for _ in range(5):
            batch = random_mutation_batch(
                edges,
                rng,
                delete_fraction=0.05,
                insert_fraction=0.05,
                add_nodes=2,
                delete_node_count=1,
            )
            edges, _ = batch.apply(edges)  # apply() validates
        assert edges.num_nodes == n + 10


#: The hostile stream entries of ROADMAP 3(c), each with the part of the
#: message that names the key and the row.
HOSTILE = [
    ({"insert": [[1, -2]]}, r"insert\[0\]\[1\]: -2 is outside"),
    ({"insert": [[1, 2**40]]}, r"insert\[0\]\[1\]: 1099511627776 is outside"),
    ({"insert": [[1, "x"]]}, r"insert\[0\]\[1\]: expected an integer, got 'x'"),
    ({"add_nodes": "many"}, "add_nodes: expected an integer, got 'many'"),
    ({"insert": [5]}, r"insert rows must be .*insert\[0\] is 5"),
    ({"delete_edges": [[1]]}, r"delete_edges rows must be \[src, dst\]"),
    ({"insert": [[1.5, 2]]}, r"insert\[0\]\[0\]: expected an integer, got 1.5"),
    ({"insert": [[1, 2, True]]}, r"insert\[0\]\[2\]: expected an integer"),
    ({"delete_nodes": [0, None]}, r"delete_nodes\[1\]: expected an integer"),
    ({"delete_nodes": 3}, "delete_nodes must be a list"),
    ({"add_nodes": -1}, "add_nodes: -1 is outside"),
]


class TestHostileJson:
    @pytest.mark.parametrize("doc, message", HOSTILE)
    def test_malformed_entry_is_a_graph_error(self, doc, message):
        with pytest.raises(GraphError, match=message):
            MutationBatch.from_dict(doc)

    def test_truncated_file_is_a_graph_error(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"batches": [{"insert": [[0, 1]')
        with pytest.raises(GraphError, match="not valid JSON"):
            load_batches(path)

    def test_stream_file_error_names_the_batch(self, tmp_path):
        path = tmp_path / "stream.json"
        path.write_text('[{"insert": [[0, 1]]}, {"insert": [[1.5, 2]]}]')
        with pytest.raises(GraphError, match=r"batch #1: insert\[0\]\[0\]"):
            load_batches(path)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
#: Well-formed entries over (and just past) the ids of the 6-node chain:
#: these get through from_dict, so validate_against decides.
NODES = st.integers(0, 7)
PAIRS = st.lists(NODES, min_size=2, max_size=2)
CHAIN_EDGES = st.integers(0, 5).map(lambda node: [node, node + 1])
WELL_FORMED_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "add_nodes": st.integers(0, 2),
        "insert": st.lists(PAIRS, max_size=3),
        "delete_edges": st.lists(CHAIN_EDGES | PAIRS, max_size=2),
        "delete_nodes": st.lists(NODES, max_size=2),
    },
)
#: The same keys holding anything at all.
IDS = NODES | st.integers(-2, 2**33) | JSON_VALUES
ROWS = st.lists(st.lists(IDS, max_size=4) | JSON_VALUES, max_size=3)
HOSTILE_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "add_nodes": IDS,
        "insert": ROWS | JSON_VALUES,
        "delete_edges": ROWS | JSON_VALUES,
        "delete_nodes": st.lists(IDS, max_size=3) | JSON_VALUES,
        "inserts": JSON_VALUES,
    },
)
BATCH_DOCS = WELL_FORMED_DOCS | HOSTILE_DOCS


class TestJsonFuzz:
    @given(BATCH_DOCS | JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_from_dict_round_trips_or_names_the_fault(self, doc):
        try:
            batch = MutationBatch.from_dict(doc)
        except GraphError:
            return
        # Accepted means taken literally: nothing truncated or coerced.
        restored = batch.to_dict()
        assert restored.get("add_nodes", 0) == doc.get("add_nodes", 0)
        for key in ("insert", "delete_edges", "delete_nodes"):
            assert restored.get(key, []) == doc.get(key, [])
        again = MutationBatch.from_dict(restored)
        assert again.to_dict() == restored
        assert again.batch_hash() == batch.batch_hash()

    @given(BATCH_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_refused_batch_leaves_the_session_where_it_was(self, doc):
        session = StreamingSession("d-galois", "bfs", chain_graph(), 2)
        session.run()
        before, values = session.version, session.values()
        try:
            session.apply_batch(MutationBatch.from_dict(doc))
        except GraphError:
            assert session.version is before
            after = session.values()
            assert set(after) == set(values)
            for key, value in values.items():
                assert after[key].dtype == value.dtype
                assert np.array_equal(after[key], value)
        else:
            assert session.version.version == before.version + 1
