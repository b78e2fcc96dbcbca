"""Generated kernels vs the plain ``ufunc.at`` forms they replaced.

Each property drives one scatter idiom of
:mod:`repro.compiler.program_codegen` (or the shared wide kernel, whose
reference is its former column-wise ``np.add.at`` body) on a
Hypothesis-drawn single-host partition and compares it, bit for bit,
with a reference written the way the generator used to emit it: one
``np.<ufunc>.at`` over the gathered edges, ``updated`` re-scattered or
diffed over the whole array every round as a bool mask (a NaN that stays
NaN counts as unchanged), popcounts by ``mask.sum()``; the generated
step's index set must be exactly that mask's ``flatnonzero``.  Arrays are compared by
``tobytes`` so ``-0.0`` and ``inf`` count; only a NaN's payload bits are
exempt (which operand's payload an add of two NaNs keeps is the inner
loop's choice, and nothing reads it).
"""

import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import make_app
from repro.apps.base import AppContext, gather_frontier_edges
from repro.apps.specs import PROGRAM_SPECS, optimized_app_names
from repro.compiler import compile_program, program_codegen
from repro.compiler.spec import FieldDecl, PhaseSpec, ProgramSpec, SyncDecl
from repro.features.kernels import aggregate_neighbor_rows
from repro.graph.csr import CSRGraph
from repro.partition.base import LocalPartition
from repro.runtime.timing import WorkStats

UFUNC = {
    "min": np.minimum, "max": np.maximum, "add": np.add, "bor": np.bitwise_or,
}
IDEMPOTENT = {"min", "max", "bor"}
KINDS = ("frontier_push", "sparse_pull", "dense_pull")

_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, -2.5, 1e308])
_SEEDS = st.integers(0, 2**32 - 1)


def _floats(seed: int, shape) -> np.ndarray:
    """Seeded float64 cells: half special values, half non-integers."""
    rng = np.random.default_rng(seed)
    special = rng.choice(_SPECIALS, size=shape)
    return np.where(rng.random(shape) < 0.5, special, rng.normal(size=shape))


def _canonical(a: np.ndarray) -> bytes:
    if a.dtype.kind == "f":
        a = np.where(np.isnan(a), np.nan, a)
    return a.tobytes()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and (
        _canonical(a) == _canonical(b)
    )


def _changed(after: np.ndarray, before: np.ndarray) -> np.ndarray:
    """The written-and-changed mask; a NaN that stays NaN is unchanged."""
    changed = after != before
    if after.dtype.kind == "f":
        changed &= ~(np.isnan(after) & np.isnan(before))
    return changed


@st.composite
def _graphs(draw):
    """(n, src, dst): duplicate, unsorted, possibly empty edge lists.

    Small ``n`` keeps every idempotent scatter dense; ``n`` of a few
    hundred with at most 30 edges puts most of them under the sparse
    cut-off (``len(index) * program_codegen.SPARSE_SCATTER_RATIO < n``).
    """
    n = draw(st.integers(1, 9) | st.integers(100, 600))
    m = draw(st.integers(0, 30))
    node = st.integers(0, n - 1)
    src = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    return n, src, dst


def _values(draw, reduce: str, n: int) -> np.ndarray:
    if reduce == "bor":
        items = draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)
        )
        return np.array(items, dtype=np.uint32)
    return _floats(draw(_SEEDS), n)


def _frontier(draw, n: int) -> np.ndarray:
    choice = draw(st.sampled_from(["none", "all", "some"]))
    if choice == "some":
        rng = np.random.default_rng(draw(_SEEDS))
        return rng.random(n) < draw(st.floats(0.0, 1.0))
    return np.full(n, choice == "all", dtype=bool)


def _single_host(n, src, dst) -> LocalPartition:
    return LocalPartition(
        host=0,
        graph=CSRGraph.from_edges(n, src, dst),
        local_to_global=np.arange(n, dtype=np.uint32),
        num_masters=n,
        mirror_master_host=np.empty(0, dtype=np.int32),
    )


_PROGRAMS = {}


def _program(
    kind: str, reduce: str, ratio: int = program_codegen.SPARSE_SCATTER_RATIO
):
    """One-phase program: ``val[dst] <reduce>= val[src]`` (guarded),
    compiled with ``ratio`` as the sparse-scatter cut-off."""
    key = (kind, reduce, ratio)
    if key not in _PROGRAMS:
        dtype = "np.uint32" if reduce == "bor" else "np.float64"
        spec = ProgramSpec(
            name=f"eq-{kind}-{reduce}",
            fields=(
                FieldDecl(
                    name="val",
                    dtype=np.uint32 if reduce == "bor" else np.float64,
                    reduce=reduce,
                    init=f"np.zeros(n, dtype={dtype})",
                ),
            ),
            phases=(
                PhaseSpec(
                    name="combine",
                    kind=kind,
                    target="val",
                    kernel="{src.val}",
                    guard=None if kind == "dense_pull" else "{val} != 3",
                ),
            ),
            sync=(SyncDecl(field="val"),),
        )
        with mock.patch.object(
            program_codegen, "SPARSE_SCATTER_RATIO", ratio
        ):
            _PROGRAMS[key] = compile_program(spec)
    return _PROGRAMS[key]


def _reference(kind, reduce, part, val, frontier):
    """The pre-rewrite emission, verbatim in shape."""
    n = part.num_nodes
    scatter = UFUNC[reduce].at
    updated = np.zeros(n, dtype=bool)
    if kind == "dense_pull":
        src, dst = part.graph.edges()
        src, dst = src.astype(np.int64), dst.astype(np.int64)
        before = val.copy()
        scatter(val, dst, val[src])
        if reduce in IDEMPOTENT:
            updated = _changed(val, before)
        else:
            updated[dst] = True
        return updated, WorkStats(len(dst), n)
    if kind == "frontier_push":
        usable = frontier & (val != 3)
        src_rep, index, _ = gather_frontier_edges(part.graph, np.flatnonzero(usable))
        work = WorkStats(len(index), int(usable.sum()))
        candidate = val[src_rep] if len(index) else None
    else:
        targets = np.ones(n, dtype=bool)
        index, neighbor, _ = gather_frontier_edges(
            part.graph.transpose(), np.flatnonzero(targets)
        )
        work = WorkStats(len(neighbor), int(targets.sum()))
        candidate = None
        if len(neighbor):
            active = frontier[neighbor] & (val[neighbor] != 3)
            if np.any(active):
                index = index[active]
                candidate = val[neighbor[active]]
    if candidate is not None:
        before = val.copy()
        scatter(val, index, candidate)
        if reduce in IDEMPOTENT:
            updated = _changed(val, before)
        else:
            updated[index] = True
    return updated, work


@pytest.mark.parametrize("reduce", sorted(UFUNC))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_step_matches_reference(kind, reduce, data):
    n, src, dst = data.draw(_graphs())
    part = _single_host(n, src, dst)
    start = _values(data.draw, reduce, n)
    frontier = _frontier(data.draw, n)
    app = _program(kind, reduce)
    state = app.make_state(part, AppContext(num_global_nodes=n))
    state["val"][...] = start
    expected = start.copy()
    with np.errstate(all="ignore"):
        outcome = app.step(part, state, np.flatnonzero(frontier))
        ref_updated, ref_work = _reference(
            kind, reduce, part, expected, frontier
        )
    assert _same_bits(state["val"], expected)
    assert _same_bits(outcome.updated, np.flatnonzero(ref_updated))
    assert outcome.work == ref_work
    assert type(outcome.work.nodes_processed) is int


#: Cut-offs that force one changed-set branch for any non-empty scatter.
ALWAYS_SPARSE, ALWAYS_DENSE = 0, 2**40


@pytest.mark.parametrize("reduce", sorted(IDEMPOTENT))
@pytest.mark.parametrize("kind", ("frontier_push", "sparse_pull"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_changed_set_branches_agree(kind, reduce, data):
    """The sparse snapshot diff and the whole-array diff give the same
    values and the same ``updated`` bits on the same input."""
    n, src, dst = data.draw(_graphs())
    part = _single_host(n, src, dst)
    start = _values(data.draw, reduce, n)
    frontier = _frontier(data.draw, n)
    results = []
    for ratio in (ALWAYS_SPARSE, ALWAYS_DENSE):
        app = _program(kind, reduce, ratio)
        state = app.make_state(part, AppContext(num_global_nodes=n))
        state["val"][...] = start
        with np.errstate(all="ignore"):
            outcome = app.step(part, state, np.flatnonzero(frontier))
        results.append((state["val"], outcome.updated))
    (sparse_val, sparse_updated), (dense_val, dense_updated) = results
    assert _same_bits(sparse_val, dense_val)
    assert _same_bits(sparse_updated, dense_updated)


def _column_scatter(acc, features, edge_src, edge_dst) -> None:
    """The wide kernel as it was: one 1-D ``np.add.at`` per column."""
    for j in range(acc.shape[1]):
        np.add.at(acc[:, j], edge_dst, features[:, j][edge_src])


def _wide_acc(start: np.ndarray, layout: str):
    """``start`` as a C, F or strided ``acc``; a strided one's owner too."""
    n, dim = start.shape
    base = np.full((n, 2 * dim), 7.0)
    if layout == "strided":
        base[:, ::2] = start
        return base[:, ::2], base
    return np.array(start, order=layout), base


@pytest.mark.parametrize("dim", [1, 3, 32])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wide_kernel_matches_row_scatter(dim, data):
    """Unsorted and duplicate edges (possibly none), NaN / ±inf / -0.0 on
    both sides, int64 or uint32 endpoints, extra feature rows, and an
    ``acc`` that may not be C-contiguous but must be updated in place.

    The drawn (writeable) arrays are grouped on every call; the graph's
    frozen ``edge_arrays()`` pair is grouped once and then reused, so it
    is called three more times, each with its own ``acc`` layout and
    features, and every call must match the reference."""
    n, src, dst = data.draw(_graphs())
    index_dtype = data.draw(st.sampled_from([np.int64, np.uint32]))
    frozen = CSRGraph.from_edges(n, src, dst).edge_arrays()
    layouts = data.draw(st.permutations(["C", "F", "strided"]))
    calls = [(src.astype(index_dtype), dst.astype(index_dtype),
              data.draw(st.sampled_from(["C", "F", "strided"])))]
    calls += [(*frozen, layout) for layout in layouts]
    for call_src, call_dst, layout in calls:
        feat = _floats(
            data.draw(_SEEDS), (n + data.draw(st.integers(0, 3)), dim)
        )
        start = _floats(data.draw(_SEEDS), (n, dim))
        acc, base = _wide_acc(start, layout)
        expected = start.copy()
        with np.errstate(all="ignore"):
            aggregate_neighbor_rows(acc, feat, call_src, call_dst)
            _column_scatter(expected, feat, call_src, call_dst)
        assert _same_bits(np.ascontiguousarray(acc), expected), layout
        assert (base[:, 1::2] == 7.0).all()


def test_wide_kernel_past_the_radix_key():
    """More than 65,536 rows: the destination key no longer fits 16 bits."""
    rng = np.random.default_rng(5)
    n, m = 70_000, 5_000
    src = rng.integers(0, n, m)
    dst = np.concatenate([[n - 1, 0, n - 1], rng.integers(0, n, m - 3)])
    feat, acc = _floats(1, (n, 2)), _floats(2, (n, 2))
    expected = acc.copy()
    with np.errstate(all="ignore"):
        aggregate_neighbor_rows(acc, feat, src, dst)
        _column_scatter(expected, feat, src, dst)
    assert _same_bits(acc, expected)


@pytest.mark.parametrize("src, dst", [([0, 4], [1, 0]), ([0, 1], [1, 4]),
                                      ([-1, 0], [1, 0]), ([0, 1], [0, -1])])
def test_wide_kernel_rejects_out_of_range_endpoints(src, dst):
    acc = np.zeros((4, 2))
    with pytest.raises(IndexError):
        aggregate_neighbor_rows(
            acc, np.ones((4, 2)), np.array(src), np.array(dst)
        )
    assert not acc.any()


@pytest.mark.parametrize("acc_shape, feat_shape", [
    ((3, 4), (3,)),  # 1-D features: the loop read past them
    ((3, 2), (3, 3)),  # wider features: the loop returned wrong rows
    ((3,), (3,)),
])
def test_wide_kernel_rejects_mismatched_rows(acc_shape, feat_shape):
    acc = np.zeros(acc_shape)
    with pytest.raises(ValueError, match=r"shape \(3,"):
        aggregate_neighbor_rows(
            acc, np.ones(feat_shape), np.array([0, 1]), np.array([1, 2])
        )
    assert not acc.any()


def test_wide_kernel_rejects_unpaired_endpoints():
    acc = np.zeros((3, 2))
    with pytest.raises(ValueError, match="3 edge sources but 2"):
        aggregate_neighbor_rows(
            acc, np.ones((3, 2)), np.array([0, 1, 2]), np.array([1, 2])
        )
    assert not acc.any()


@pytest.mark.parametrize("acc_dtype, feat_dtype", [
    (np.float64, np.float32), (np.float32, np.float64),
    (np.float32, np.float32),
])
def test_wide_kernel_rejects_other_dtypes(acc_dtype, feat_dtype):
    acc = np.zeros((3, 2), dtype=acc_dtype)
    with pytest.raises(ValueError, match="float32"):
        aggregate_neighbor_rows(
            acc, np.ones((3, 2), dtype=feat_dtype), np.array([0]),
            np.array([1]),
        )
    assert not acc.any()


@settings(max_examples=40, deadline=None)
@given(graph=_graphs())
def test_wide_step_outcome_matches_reference(graph):
    n, src, dst = graph
    part = _single_host(n, src, dst)
    app = make_app("featprop")
    ctx = AppContext(num_global_nodes=n, feature_dim=3)
    state = app.make_state(part, ctx)
    expected = state["acc"].copy()
    outcome = app.step(part, state, np.arange(n))
    e_src, e_dst = part.graph.edges()
    if len(e_dst):
        np.add.at(expected, e_dst.astype(np.int64), state["feat"][e_src])
    touched = np.zeros(n, dtype=bool)
    touched[e_dst] = True
    assert _same_bits(state["acc"], expected)
    assert _same_bits(outcome.updated, np.flatnonzero(touched))
    assert outcome.work == WorkStats(len(e_dst), n)


@pytest.mark.parametrize(
    "name", sorted(PROGRAM_SPECS) + optimized_app_names()
)
def test_generated_steps_carry_no_round_invariant_work(name):
    """No bool ``.sum()`` popcount; no per-round scatter of a mask that
    only depends on the edge list (every dense pull: all edges fire)."""
    bodies = {
        method: inspect.getsource(function)
        for method, function in vars(type(make_app(name))).items()
        if method.startswith(("_step_", "_phase_"))
    }
    assert bodies, name
    for method, body in bodies.items():
        assert ".sum()" not in body, (name, method)
        if "part.graph.edge_arrays()" in body:
            assert "updated[" not in body, (name, method)
            assert "np.zeros" not in body, (name, method)


_BC_INFINITY = np.uint32(2**32 - 1)


def _bc_forward_reference(part, state, frontier):
    """bc's handwritten forward sweep: guard, accept filter, two scatters."""
    level = state["level"]
    state["level"] = level + 1
    dist, sigma, sigma_acc = state["dist"], state["sigma"], state["sigma_acc"]
    active = frontier & (dist == level)
    src_rep, dst, _ = gather_frontier_edges(part.graph, np.flatnonzero(active))
    updated = np.zeros(part.num_nodes, dtype=bool)
    work = WorkStats(len(dst), int(active.sum()))
    accept = dist[dst] > level
    dst, src_rep = dst[accept], src_rep[accept]
    if len(dst):
        np.minimum.at(dist, dst, np.uint32(level + 1))
        np.add.at(sigma_acc, dst, sigma[src_rep])
        updated[dst] = True
    return updated, work


def _bc_backward_reference(part, state):
    """bc's handwritten backward sweep: the level's nodes, not the frontier,
    over transposed edges, with the predecessor filter."""
    level = state["level"]
    state["level"] = level - 1
    updated = np.zeros(part.num_nodes, dtype=bool)
    if level < 1:
        return updated, WorkStats(0, 0)
    dist, sigma, delta = state["dist"], state["sigma"], state["delta"]
    settled_here = dist == level
    node_rep, pred, _ = gather_frontier_edges(
        part.graph.transpose(), np.flatnonzero(settled_here)
    )
    work = WorkStats(len(pred), int(settled_here.sum()))
    is_predecessor = dist[pred] == level - 1
    node_rep, pred = node_rep[is_predecessor], pred[is_predecessor]
    if len(pred):
        contribution = (
            sigma[pred] / np.maximum(sigma[node_rep], 1.0) * (1.0 + delta[node_rep])
        )
        np.add.at(state["delta_acc"], pred, contribution)
        updated[pred] = True
    return updated, work


@pytest.mark.parametrize("name", ["bc", "bc@optimized"])
@pytest.mark.parametrize("stage", [0, 1], ids=["forward", "backward"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_staged_bc_steps_match_the_handwritten_sweeps(name, stage, data):
    """The forward step (guard, edge filter, two scatters off one gather,
    counted once) and the backward step (a selection instead of the
    frontier, a transposed gather, an edge filter) against the sweeps
    they replaced: values, ``updated``, the pre-filter work counts, the
    ``level < 1`` empty round and the round counter."""
    n, src, dst = data.draw(_graphs())
    part = _single_host(n, src, dst)
    app = make_app(name)
    state = app.make_state(part, AppContext(num_global_nodes=n))
    levels = [0, 1, 2, 3, int(_BC_INFINITY)]
    state["dist"][...] = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    for key in ("sigma", "sigma_acc", "delta", "delta_acc"):
        state[key][...] = _floats(data.draw(_SEEDS), n)
    state["stage"], state["level"] = stage, data.draw(st.integers(0, 4))
    frontier = _frontier(data.draw, n)
    expected = {key: value.copy() if isinstance(value, np.ndarray) else value
                for key, value in state.items()}
    with np.errstate(all="ignore"):
        outcome = app.step(part, state, np.flatnonzero(frontier))
        if stage == 0:
            ref_updated, ref_work = _bc_forward_reference(part, expected, frontier)
        else:
            ref_updated, ref_work = _bc_backward_reference(part, expected)
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert _same_bits(state[key], value), key
        else:
            assert state[key] == value, key
    assert _same_bits(outcome.updated, np.flatnonzero(ref_updated))
    assert outcome.work == ref_work
