"""The index-set helpers against a bool-mask reference, on both sides of
the :data:`~repro.core.index_sets.SPARSE_RATIO` switch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import index_sets
from repro.core.index_sets import EMPTY, SPARSE_RATIO, masters_of, union, unique_ids


def reference(pieces, n):
    mask = np.zeros(n, dtype=bool)
    for ids in pieces:
        mask[ids] = True
    return np.flatnonzero(mask)


def assert_is_set(ids, n):
    assert ids.dtype == np.intp and ids.ndim == 1
    assert (np.diff(ids) > 0).all()
    assert len(ids) == 0 or 0 <= ids[0] <= ids[-1] < n


@st.composite
def pieces(draw, sorted_sets=False):
    """``(n, pieces)``: empty, all-nodes, sparse and dense pieces, with
    repeats across and (unless ``sorted_sets``) within pieces."""
    n = draw(st.integers(1, 400))
    out = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["empty", "all", "few", "many"]))
        if kind == "empty":
            ids = np.empty(0, dtype=np.intp)
        elif kind == "all":
            ids = np.arange(n)
        else:
            size = draw(st.integers(1, 3) if kind == "few" else st.integers(n // 8, 2 * n))
            ids = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size,
                                         max_size=size)), dtype=np.intp)
        if sorted_sets:
            ids = reference([ids], n)
        elif len(ids) > 1:
            ids = np.random.default_rng(len(ids)).permutation(ids)
        out.append(ids)
    return n, out


@settings(max_examples=300, deadline=None)
@given(drawn=pieces())
def test_unique_ids_is_the_mask_reference(drawn):
    n, parts = drawn
    ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
    got = unique_ids(ids, n)
    assert_is_set(got, n)
    assert np.array_equal(got, reference(parts, n))


@settings(max_examples=300, deadline=None)
@given(drawn=pieces(sorted_sets=True))
def test_union_is_the_mask_reference(drawn):
    n, sets = drawn
    got = union(sets, n)
    assert_is_set(got, n)
    assert np.array_equal(got, reference(sets, n))
    nonempty = [ids for ids in sets if len(ids)]
    if len(nonempty) == 1:
        assert got is nonempty[0]  # no copy of a lone set
    if not nonempty:
        assert got is EMPTY


@pytest.mark.parametrize("n", [16, 17, 160, 1000])
def test_both_sides_of_the_switch_agree(monkeypatch, n):
    """The same input through the sort and through the scratch mask."""
    rng = np.random.default_rng(n)
    for size in (n // SPARSE_RATIO - 1, n // SPARSE_RATIO, n // SPARSE_RATIO + 1, 3 * n):
        ids = rng.integers(0, n, max(size, 0)).astype(np.intp)
        results = []
        for ratio in (0, 2**40):  # always sort, always mask
            monkeypatch.setattr(index_sets, "SPARSE_RATIO", ratio)
            results.append(unique_ids(ids, n))
        assert np.array_equal(*results)
        assert np.array_equal(results[0], reference([ids], n))


def test_other_integer_dtypes_come_back_as_intp():
    for dtype in (np.uint32, np.int32, np.int64):
        got = unique_ids(np.array([5, 1, 5], dtype=dtype), 1000)
        assert got.dtype == np.intp and got.tolist() == [1, 5]


def test_masters_of_is_the_prefix_below_num_masters():
    ids = np.array([0, 2, 3, 7, 9])
    assert masters_of(ids, 4).tolist() == [0, 2, 3]
    assert masters_of(ids, 0).tolist() == []
    assert masters_of(ids, 10).tolist() == ids.tolist()
    assert masters_of(EMPTY, 3).tolist() == []


def test_the_empty_set_is_read_only():
    assert EMPTY.dtype == np.intp and len(EMPTY) == 0
    assert not EMPTY.flags.writeable
