"""Unit tests for reduction operations and field specs (Figure 5's API)."""

import numpy as np
import pytest

from repro.core.sync_structures import (
    ADD,
    ASSIGN,
    BOR,
    MAX,
    MIN,
    REDUCTIONS,
    FieldSpec,
    ReductionOp,
)
from repro.errors import SyncError


class TestReductionOps:
    def test_min_identity(self):
        assert MIN.identity(np.uint32) == np.iinfo(np.uint32).max
        assert MIN.identity(np.float64) == np.inf

    def test_max_identity(self):
        assert MAX.identity(np.int32) == np.iinfo(np.int32).min
        assert MAX.identity(np.float32) == -np.inf

    def test_add_identity(self):
        assert ADD.identity(np.uint32) == 0
        assert ADD.identity(np.float64) == 0.0

    def test_combine_semantics(self):
        a = np.array([3, 8], dtype=np.uint32)
        b = np.array([5, 2], dtype=np.uint32)
        assert MIN.combine(a, b).tolist() == [3, 2]
        assert MAX.combine(a, b).tolist() == [5, 8]
        assert ADD.combine(a, b).tolist() == [8, 10]
        assert BOR.combine(a, b).tolist() == [7, 10]
        assert ASSIGN.combine(a, b).tolist() == [5, 2]

    def test_idempotence_flags(self):
        assert MIN.idempotent and MAX.idempotent and BOR.idempotent
        assert not ADD.idempotent

    def test_reset_keeps_values_for_idempotent(self):
        """§2.3: sssp mirrors keep their labels at reset."""
        values = np.array([1, 2, 3], dtype=np.uint32)
        MIN.reset_values(values, np.array([0, 2]))
        assert values.tolist() == [1, 2, 3]

    def test_reset_writes_identity_for_add(self):
        """§2.3: push-pagerank mirrors reset to 0."""
        values = np.array([1, 2, 3], dtype=np.uint32)
        ADD.reset_values(values, np.array([0, 2]))
        assert values.tolist() == [0, 2, 0]

    def test_registry(self):
        assert set(REDUCTIONS) == {"min", "max", "add", "bor", "assign"}
        assert all(isinstance(op, ReductionOp) for op in REDUCTIONS.values())


class TestFieldSpec:
    def make_field(self, values=None, **kwargs):
        if values is None:
            values = np.array([5, 9, 2, 7], dtype=np.uint32)
        return FieldSpec(name="dist", values=values, reduce_op=MIN, **kwargs)

    def test_extract(self):
        field = self.make_field()
        assert field.extract(np.array([0, 2])).tolist() == [5, 2]

    def test_reduce_applies_and_reports_changes(self):
        field = self.make_field()
        changed = field.reduce(
            np.array([0, 1]), np.array([7, 3], dtype=np.uint32)
        )
        assert changed.tolist() == [False, True]
        assert field.values.tolist() == [5, 3, 2, 7]

    def test_reduce_length_mismatch(self):
        field = self.make_field()
        with pytest.raises(SyncError):
            field.reduce(np.array([0]), np.array([1, 2], dtype=np.uint32))

    def test_set_overwrites_and_reports_changes(self):
        field = self.make_field()
        changed = field.set(
            np.array([0, 3]), np.array([5, 1], dtype=np.uint32)
        )
        assert changed.tolist() == [False, True]
        assert field.values.tolist() == [5, 9, 2, 1]

    def test_set_length_mismatch(self):
        field = self.make_field()
        with pytest.raises(SyncError):
            field.set(np.array([0, 1]), np.array([1], dtype=np.uint32))

    def test_reset_respects_reduction(self):
        field = self.make_field()
        field.reset(np.array([0, 1]))  # MIN: keep
        assert field.values.tolist() == [5, 9, 2, 7]
        acc = FieldSpec(
            name="acc",
            values=np.array([4, 5], dtype=np.uint32),
            reduce_op=ADD,
        )
        acc.reset(np.array([1]))
        assert acc.values.tolist() == [4, 0]

    def test_value_size_and_dtype(self):
        field = self.make_field()
        assert field.dtype == np.uint32
        assert field.value_size == 4

    def test_derived_broadcast_array(self):
        values = np.array([1.0, 2.0], dtype=np.float64)
        broadcast = np.array([0.5, 0.25], dtype=np.float64)
        field = FieldSpec(
            name="pr",
            values=values,
            reduce_op=ADD,
            broadcast_values=broadcast,
        )
        assert field.extract_broadcast(np.array([1])).tolist() == [0.25]
        changed = field.set(np.array([0]), np.array([0.75]))
        assert changed.tolist() == [True]
        assert broadcast[0] == 0.75
        assert values[0] == 1.0  # reduce array untouched by broadcast set

    def test_default_broadcast_is_values(self):
        field = self.make_field()
        assert field.broadcast_values is field.values

    def test_validation(self):
        with pytest.raises(SyncError):  # 3-D never allowed
            FieldSpec(name="x", values=np.zeros((2, 2, 2)), reduce_op=MIN)
        with pytest.raises(SyncError):  # degenerate (n, 1): declare it 1-D
            FieldSpec(name="x", values=np.zeros((3, 1)), reduce_op=MIN)
        with pytest.raises(SyncError):
            FieldSpec(
                name="x",
                values=np.zeros(3),
                reduce_op=MIN,
                broadcast_values=np.zeros(4),
            )

    def test_wide_field_allowed(self):
        field = FieldSpec(name="feat", values=np.zeros((3, 4)), reduce_op=ADD)
        assert field.width == 4
        assert field.value_size == 4 * 8  # four float64 columns per row

    def test_broadcast_dtype_mismatch_rejected(self):
        with pytest.raises(SyncError, match="dtype"):
            FieldSpec(
                name="x",
                values=np.zeros(3, dtype=np.float64),
                reduce_op=ADD,
                broadcast_values=np.zeros(3, dtype=np.float32),
            )

    def test_compression_validation(self):
        with pytest.raises(SyncError, match="compression"):
            FieldSpec(
                name="x", values=np.zeros(3), reduce_op=ADD, compression="zip"
            )
        with pytest.raises(SyncError, match="2-D"):
            FieldSpec(
                name="x", values=np.zeros(3), reduce_op=ADD, compression="fp16"
            )
        with pytest.raises(SyncError, match=r"'none' \(expected one of \('delta', 'fp16'\)\)"):
            FieldSpec(
                name="x", values=np.zeros((3, 2)), reduce_op=ADD, compression="none"
            )
        with pytest.raises(SyncError, match="float"):
            FieldSpec(
                name="x",
                values=np.zeros((3, 4), dtype=np.int32),
                reduce_op=ADD,
                compression="fp16",
            )
        fp16 = FieldSpec(
            name="x",
            values=np.zeros((3, 4), dtype=np.float32),
            reduce_op=ADD,
            compression="fp16",
        )
        assert fp16.wire_dtype == np.float16
        assert fp16.value_size == 4 * 2  # half precision on the wire
