"""Deterministic feature kernels shared by all feature apps.

Everything here is designed around one constraint: distributed feature
aggregation must be **bitwise partition-invariant** so the acceptance
bar "identical results across 1/2/4/8 hosts × all partition policies"
holds without tolerances.  Floating-point addition is not associative,
so instead of fighting summation order the kernels keep every
intermediate value *exactly representable*:

* features are small integers stored in float64 (sums of integers are
  associative in float64 below 2**53);
* mean-style normalization divides by the next power of two of the
  degree — a dyadic-rational scale that is exact in binary floating
  point, so normalized features stay exactly representable;
* GraphSAGE weights are small fixed integer matrices, keeping every
  matmul partial product exact.

The fp16 wire compression is the one deliberately lossy path; its
documented error model lives in :func:`fp16_tolerance`.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

#: Worst-case relative rounding error of one float -> float16 -> float
#: round trip within the normal range (11-bit significand: 2**-11).
FP16_RELATIVE_ERROR = 2.0 ** -11


def feature_rows(node_ids: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic integer-valued (len(node_ids), dim) float64 features.

    ``feat[g, j] = ((31 g + 7 j) mod 13) - 6`` — pseudo-random-looking
    small integers in [-6, 6], a pure function of the *global* node ID so
    every host initializes identical rows regardless of partitioning.
    """
    g = np.asarray(node_ids, dtype=np.int64)[:, None]
    j = np.arange(dim, dtype=np.int64)[None, :]
    return ((g * 31 + j * 7) % 13 - 6).astype(np.float64)


def init_features(num_nodes: int, dim: int) -> np.ndarray:
    """:func:`feature_rows` for every global node."""
    return feature_rows(np.arange(num_nodes, dtype=np.int64), dim)


def label_rows(node_ids: np.ndarray, num_classes: int) -> np.ndarray:
    """Deterministic starting labels: a Knuth multiplicative hash mod k."""
    ids = np.asarray(node_ids, dtype=np.int64)
    return ids * 2654435761 % num_classes


def initial_labels(num_nodes: int, num_classes: int) -> np.ndarray:
    """:func:`label_rows` for every global node."""
    return label_rows(np.arange(num_nodes, dtype=np.int64), num_classes)


def one_hot_rows(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels into (len(labels), num_classes)."""
    out = np.zeros((len(labels), num_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def pow2_normalizer(degree: np.ndarray) -> np.ndarray:
    """Smallest power of two >= max(degree, 1), as float64.

    Dividing by a power of two only shifts the exponent, so the
    "mean-style" normalization ``sum / pow2(degree)`` keeps features
    exactly representable and therefore partition-invariant — the reason
    the mean app normalizes by this instead of the raw degree.
    """
    degree = np.maximum(np.asarray(degree, dtype=np.int64), 1)
    exponent = np.ceil(np.log2(degree.astype(np.float64)))
    return np.power(2.0, exponent)


def sage_weights(dim_in: int, dim_out: int, salt: int = 0) -> np.ndarray:
    """Fixed small-integer (dim_in, dim_out) weight matrix.

    ``W[i, j] = ((5 i + 3 j + 11 salt) mod 7) - 3`` — integers in
    [-3, 3]; distinct ``salt`` values give the self and neighbor weights
    of the GraphSAGE layer.
    """
    i = np.arange(dim_in, dtype=np.int64)[:, None]
    j = np.arange(dim_out, dtype=np.int64)[None, :]
    return ((i * 5 + j * 3 + 11 * salt) % 7 - 3).astype(np.float64)


class _Grouping(NamedTuple):
    """A host's edges grouped by destination: CSR over ``acc``'s rows.

    Row ``v`` of the CSR holds the sources of ``v``'s in-edges in edge
    order.  The endpoint extremes are kept so every call can bounds-check
    its own ``acc`` and ``features`` without rescanning the edges.
    """

    indptr: np.ndarray
    indices: np.ndarray
    lowest: int  # the smaller of both sides' minima
    dst_max: int
    src_max: int


#: Groupings of read-only, data-owning edge pairs (what
#: ``CSRGraph.edge_arrays()`` returns), built on the pair's first call:
#: ``(id(edge_src), id(edge_dst), rows)`` -> ``(ref(edge_src),
#: ref(edge_dst), grouping)``.  A finalizer on ``edge_dst`` drops the
#: entry, so a layout's grouping dies with its graph.
_GROUPINGS: dict = {}

#: The CSR data of every call is a prefix of this one read-only buffer of
#: ones, grown to the largest edge count seen.
_ONES = np.ones(0)
_ONES.flags.writeable = False


def _group_by_destination(
    edge_src: np.ndarray, edge_dst: np.ndarray, n: int
) -> _Grouping:
    """Stably sort the edges by destination into CSR over ``n`` rows.

    A narrow unsigned key gets NumPy's radix sort.  Indices are int32
    when every row count, edge count and source fits, else int64;
    ``csr_matvecs`` takes either, and the float arithmetic is the same.
    """
    key = edge_dst.astype(np.min_scalar_type(n - 1))
    order = np.argsort(key, kind="stable")
    src_max = int(edge_src.max())
    index = np.int32 if max(n, len(order), src_max + 1) < 2**31 else np.int64
    return _Grouping(
        indptr=np.searchsorted(key[order], np.arange(n + 1)).astype(index),
        indices=edge_src[order].astype(index),
        lowest=int(min(edge_dst.min(), edge_src.min())),
        dst_max=int(edge_dst.max()),
        src_max=src_max,
    )


def _grouping_of(
    edge_src: np.ndarray, edge_dst: np.ndarray, n: int
) -> _Grouping:
    """The pair's grouping over ``n`` rows, remembered if the pair is frozen.

    Only a read-only array that owns its data cannot be written through
    some other view while the cache holds its grouping; any other pair
    is regrouped on every call.
    """
    if any(a.flags.writeable or a.base is not None for a in (edge_src, edge_dst)):
        return _group_by_destination(edge_src, edge_dst, n)
    key = (id(edge_src), id(edge_dst), n)
    entry = _GROUPINGS.get(key)
    if entry is not None and entry[0]() is edge_src and entry[1]() is edge_dst:
        return entry[2]
    grouping = _group_by_destination(edge_src, edge_dst, n)
    _GROUPINGS[key] = (weakref.ref(edge_src), weakref.ref(edge_dst), grouping)
    weakref.finalize(edge_dst, _GROUPINGS.pop, key, None)
    return grouping


def _ones(m: int) -> np.ndarray:
    global _ONES
    if len(_ONES) < m:
        _ONES = np.ones(m)
        _ONES.flags.writeable = False
    return _ONES[:m]


def aggregate_neighbor_rows(
    acc: np.ndarray,
    features: np.ndarray,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
) -> None:
    """The shared SpMM-style kernel: ``acc[dst] += features[src]`` per edge.

    The distributed form of ``A^T · X`` restricted to a host's local
    edges; all three feature apps drive their ``step`` through this.
    The edges are grouped by destination once per edge pair (a stable
    sort; see :func:`_grouping_of` for when the grouping is remembered),
    and SciPy's CSR·X loop then adds each row's in-neighbour rows into
    ``acc`` in place, one at a time in edge order, as ``acc + 1.0 * x``.
    Every element therefore receives the same addends in the same order
    as ``np.add.at(acc, dst, features[src])``, so the result is bitwise
    equal to it for any float64 input.  The public ``acc += A @ X``
    would sum into zeros first and round differently.  A ``--sanitize``
    guarded view cannot see a compiled loop, so the kernel declares its
    two endpoint accesses to it.
    """
    # The compiled loop checks neither shapes, dtypes nor indices.
    if acc.ndim != 2 or features.ndim != 2 or features.shape[1] != acc.shape[1]:
        raise ValueError(
            f"aggregate_neighbor_rows: features of shape {features.shape} "
            f"do not match acc of shape {acc.shape}: both must be 2-D rows "
            "of one width"
        )
    if acc.dtype != np.float64 or features.dtype != np.float64:
        raise ValueError(
            "aggregate_neighbor_rows: acc and features must be float64, "
            f"got {acc.dtype} and {features.dtype}"
        )
    if len(edge_src) != len(edge_dst):
        raise ValueError(
            f"aggregate_neighbor_rows: {len(edge_src)} edge sources but "
            f"{len(edge_dst)} edge destinations"
        )
    n, d = acc.shape
    if hasattr(acc, "audit_access"):
        acc.audit_access("write", edge_dst)
    if hasattr(features, "audit_access"):
        features.audit_access("read", edge_src)
    if not len(edge_dst):
        return
    grouping = _grouping_of(edge_src, edge_dst, n)
    if grouping.dst_max >= n or grouping.src_max >= len(features) \
            or grouping.lowest < 0:
        raise IndexError("aggregate_neighbor_rows: edge endpoint out of range")
    from scipy.sparse import _sparsetools

    out = acc if acc.flags.c_contiguous else np.ascontiguousarray(acc)
    # The CSR's column count is its largest source + 1: the loop reads
    # only those rows of ``features``, and the count fits the index type.
    _sparsetools.csr_matvecs(
        n, grouping.src_max + 1, d, grouping.indptr, grouping.indices,
        _ones(len(edge_dst)), features.ravel(), out.ravel(),
    )
    if out is not acc:
        acc[...] = out


def fp16_tolerance(expected: np.ndarray, rounds: int) -> float:
    """Documented error bound for fp16-compressed feature runs.

    Each sync quantizes shipped rows once (relative error at most
    :data:`FP16_RELATIVE_ERROR`); over ``rounds`` aggregation rounds the
    first-order relative errors add, and aggregation scales them with
    the values themselves.  The bound below is that linear model with a
    4x engineering margin, floored at one ULP-scale absolute term so
    near-zero expectations do not demand impossible precision:

    ``tol = (rounds + 1) * 4 * 2**-11 * max(1, max|expected|)``
    """
    magnitude = float(np.abs(expected).max()) if np.size(expected) else 0.0
    return (rounds + 1) * 4.0 * FP16_RELATIVE_ERROR * max(1.0, magnitude)
