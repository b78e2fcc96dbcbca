"""Mutation batches: validated, deterministically hashed graph updates.

A :class:`MutationBatch` is the unit of change in the streaming
subsystem: a set of vertex additions, vertex deletions, edge deletions,
and edge insertions applied atomically to an :class:`EdgeList`.

Canonical application order (what makes replay deterministic):

1. ``add_nodes`` extends the ID space by that many fresh vertices;
2. ``delete_nodes`` drops every edge incident to a deleted vertex — the
   vertex itself stays in the ID space as an isolated node (label-valued
   app state is keyed by global ID, so renumbering is never allowed);
3. ``delete_src/delete_dst`` drop the named ``(src, dst)`` edges;
4. ``insert_src/insert_dst[/insert_weight]`` append new edges at the end
   of the list, in batch order.

Surviving edges keep their relative order, so per-host edge
subsequences — and therefore local CSR layouts — stay bitwise stable for
hosts a batch does not touch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.edgelist import EdgeList
from repro.graph.validation import validate_edge_list


#: A batch may add at most as many vertices as the graph already has,
#: or this many to a smaller graph.  Every vertex costs a slot in each
#: host's label arrays and in the partitioner's degree counts, so a
#: batch that more than doubles the ID space is a new graph to build,
#: not a mutation to stream.
GROWTH_FLOOR = 2**16


def _as_u32(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.uint32)
    if arr.ndim != 1:
        raise GraphError(f"{name} must be a 1-D array")
    return arr


def _json_id(value, where: str) -> int:
    """``value`` if it is a JSON integer in ``[0, 2**32)``, else GraphError.

    ``bool`` is refused: ``True`` is an ``int`` to Python but not an
    integer in a stream file.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError(f"{where}: expected an integer, got {value!r}")
    if not 0 <= value < 2**32:
        raise GraphError(f"{where}: {value} is outside [0, 2**32)")
    return value


def _json_ids(values, where: str) -> list:
    """``values`` if it is a JSON list of ids, else GraphError naming the entry."""
    if not isinstance(values, list):
        raise GraphError(
            f"{where} must be a list, got {type(values).__name__}"
        )
    for index, value in enumerate(values):
        _json_id(value, f"{where}[{index}]")
    return values


def _json_rows(doc: dict, key: str, widths: Tuple[int, ...], shape: str) -> list:
    """``doc[key]`` (default ``[]``) as rows of ids, each ``shape`` wide."""
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise GraphError(f"{key} must be a list, got {type(rows).__name__}")
    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) not in widths:
            raise GraphError(
                f"{key} rows must be {shape}; {key}[{index}] is {row!r}"
            )
        _json_ids(row, f"{key}[{index}]")
    return rows


@dataclass(frozen=True)
class MutationEffect:
    """What a batch actually did to a concrete edge list.

    Attributes:
        deleted_mask: Bool over the *old* edge list: True where the edge
            was removed (explicitly or via vertex deletion).
        inserted_count: Number of edges appended.
        touched_nodes: Global IDs whose in/out neighborhood changed —
            endpoints of deleted and inserted edges plus deleted
            vertices.  The seed of the affected frontier.
        old_num_nodes: Node count before the batch.
        new_num_nodes: Node count after the batch.
    """

    deleted_mask: np.ndarray
    inserted_count: int
    touched_nodes: np.ndarray
    old_num_nodes: int
    new_num_nodes: int

    @property
    def deleted_count(self) -> int:
        return int(self.deleted_mask.sum())


@dataclass(frozen=True)
class MutationBatch:
    """A validated batch of graph mutations with a deterministic hash."""

    add_nodes: int = 0
    insert_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    insert_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    insert_weight: Optional[np.ndarray] = None
    delete_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    delete_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    delete_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))

    def __post_init__(self) -> None:
        if self.add_nodes < 0:
            raise GraphError(f"add_nodes must be >= 0, got {self.add_nodes}")
        for name in ("insert_src", "insert_dst", "delete_src", "delete_dst",
                     "delete_nodes"):
            object.__setattr__(self, name, _as_u32(getattr(self, name), name))
        if self.insert_src.shape != self.insert_dst.shape:
            raise GraphError("insert_src/insert_dst length mismatch")
        if self.delete_src.shape != self.delete_dst.shape:
            raise GraphError("delete_src/delete_dst length mismatch")
        if self.insert_weight is not None:
            weight = _as_u32(self.insert_weight, "insert_weight")
            if weight.shape != self.insert_src.shape:
                raise GraphError("insert_weight length mismatch")
            object.__setattr__(self, "insert_weight", weight)

    @property
    def num_inserts(self) -> int:
        return int(len(self.insert_src))

    @property
    def num_edge_deletes(self) -> int:
        return int(len(self.delete_src))

    @property
    def num_node_deletes(self) -> int:
        return int(len(self.delete_nodes))

    @property
    def is_empty(self) -> bool:
        return (
            self.add_nodes == 0
            and self.num_inserts == 0
            and self.num_edge_deletes == 0
            and self.num_node_deletes == 0
        )

    def batch_hash(self) -> str:
        """SHA-256 over the batch's canonical bytes.

        Stable across processes; feeds the :class:`GraphVersion` chain
        hash, so two streams agree on a version's content address iff
        they applied the same batches to the same base graph.
        """
        digest = hashlib.sha256()
        digest.update(
            f"MutationBatch/{self.add_nodes}/{self.num_inserts}/"
            f"{self.num_edge_deletes}/{self.num_node_deletes}/"
            f"{int(self.insert_weight is not None)}".encode()
        )
        for arr in (self.insert_src, self.insert_dst, self.delete_src,
                    self.delete_dst, self.delete_nodes):
            digest.update(arr.tobytes())
        if self.insert_weight is not None:
            digest.update(self.insert_weight.tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Validation + application
    # ------------------------------------------------------------------

    def validate_against(self, edges: EdgeList) -> None:
        """Raise :class:`GraphError` if the batch cannot apply to ``edges``.

        Checks endpoint ranges, weight discipline (insert weights required
        iff the base list is weighted), that deleted edges exist, that
        deleted vertices exist, that inserts do not reference vertices
        deleted in the same batch, and that applying the batch cannot
        create duplicate edges (via the shared edge-list validator), and
        that ``add_nodes`` stays within the growth bound
        (:data:`GROWTH_FLOOR`) and the uint32 ID space.
        """
        growth_cap = max(edges.num_nodes, GROWTH_FLOOR)
        if self.add_nodes > growth_cap:
            raise GraphError(
                f"add_nodes {self.add_nodes} exceeds the growth bound "
                f"{growth_cap} for a graph of {edges.num_nodes} nodes"
            )
        new_num_nodes = edges.num_nodes + self.add_nodes
        if new_num_nodes > 2**32:
            raise GraphError(
                f"add_nodes {self.add_nodes} grows the graph to "
                f"{new_num_nodes} nodes, past the uint32 ID space"
            )
        for name, arr, bound in (
            ("insert_src", self.insert_src, new_num_nodes),
            ("insert_dst", self.insert_dst, new_num_nodes),
            ("delete_src", self.delete_src, edges.num_nodes),
            ("delete_dst", self.delete_dst, edges.num_nodes),
            ("delete_nodes", self.delete_nodes, edges.num_nodes),
        ):
            if len(arr) and int(arr.max()) >= bound:
                raise GraphError(
                    f"{name} references vertex {int(arr.max())} outside "
                    f"[0, {bound})"
                )
        if edges.has_weights and self.num_inserts and self.insert_weight is None:
            raise GraphError(
                "base graph is weighted: insert_weight is required"
            )
        if not edges.has_weights and self.insert_weight is not None:
            raise GraphError(
                "base graph is unweighted: insert_weight must be omitted"
            )
        if self.num_node_deletes:
            deleted = np.zeros(new_num_nodes, dtype=bool)
            deleted[self.delete_nodes] = True
            for name, arr in (("insert_src", self.insert_src),
                              ("insert_dst", self.insert_dst)):
                if len(arr) and deleted[arr].any():
                    bad = int(arr[deleted[arr]][0])
                    raise GraphError(
                        f"{name} references vertex {bad} deleted in the "
                        f"same batch"
                    )
        # Deleted edges must exist in the base list.
        if self.num_edge_deletes:
            width = np.uint64(max(edges.num_nodes, 1))
            base_key = edges.src.astype(np.uint64) * width + edges.dst
            del_key = self.delete_src.astype(np.uint64) * width + self.delete_dst
            missing = ~np.isin(del_key, base_key)
            if missing.any():
                index = int(np.flatnonzero(missing)[0])
                raise GraphError(
                    f"delete names edge "
                    f"({int(self.delete_src[index])}, "
                    f"{int(self.delete_dst[index])}) not present in graph"
                )
        # Streaming operates on canonical (duplicate-free) edge lists —
        # sessions deduplicate the base once at start.  Both ends reuse
        # the shared edge-list check so streaming and offline validation
        # agree on what "duplicate" means.
        try:
            validate_edge_list(edges, allow_duplicates=False)
        except GraphError as exc:
            raise GraphError(
                f"base graph is not canonical: {exc} "
                f"(deduplicate() it before streaming)"
            ) from exc
        applied, _ = self._apply_unchecked(edges)
        validate_edge_list(applied, allow_duplicates=False)

    def apply(self, edges: EdgeList) -> Tuple[EdgeList, MutationEffect]:
        """Validate and apply the batch, returning the mutated list."""
        self.validate_against(edges)
        return self._apply_unchecked(edges)

    def _apply_unchecked(
        self, edges: EdgeList
    ) -> Tuple[EdgeList, MutationEffect]:
        new_num_nodes = edges.num_nodes + self.add_nodes
        deleted_mask = np.zeros(edges.num_edges, dtype=bool)
        if self.num_node_deletes:
            gone = np.zeros(edges.num_nodes, dtype=bool)
            gone[self.delete_nodes] = True
            if edges.num_edges:
                deleted_mask |= gone[edges.src] | gone[edges.dst]
        if self.num_edge_deletes and edges.num_edges:
            width = np.uint64(max(edges.num_nodes, 1))
            base_key = edges.src.astype(np.uint64) * width + edges.dst
            del_key = (
                self.delete_src.astype(np.uint64) * width + self.delete_dst
            )
            deleted_mask |= np.isin(base_key, del_key)
        keep = ~deleted_mask
        src = np.concatenate([edges.src[keep], self.insert_src])
        dst = np.concatenate([edges.dst[keep], self.insert_dst])
        weight = None
        if edges.weight is not None:
            insert_weight = (
                self.insert_weight
                if self.insert_weight is not None
                else np.empty(0, dtype=np.uint32)
            )
            weight = np.concatenate([edges.weight[keep], insert_weight])
        new_edges = EdgeList(new_num_nodes, src, dst, weight)
        touched = np.unique(
            np.concatenate(
                [
                    edges.src[deleted_mask],
                    edges.dst[deleted_mask],
                    self.insert_src,
                    self.insert_dst,
                    self.delete_nodes,
                ]
            )
        ).astype(np.uint32)
        effect = MutationEffect(
            deleted_mask=deleted_mask,
            inserted_count=self.num_inserts,
            touched_nodes=touched,
            old_num_nodes=edges.num_nodes,
            new_num_nodes=new_num_nodes,
        )
        return new_edges, effect

    # ------------------------------------------------------------------
    # JSON round trip (the `--stream batches.json` interchange format)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {}
        if self.add_nodes:
            doc["add_nodes"] = self.add_nodes
        if self.num_inserts:
            if self.insert_weight is not None:
                doc["insert"] = [
                    [int(s), int(d), int(w)]
                    for s, d, w in zip(
                        self.insert_src, self.insert_dst, self.insert_weight
                    )
                ]
            else:
                doc["insert"] = [
                    [int(s), int(d)]
                    for s, d in zip(self.insert_src, self.insert_dst)
                ]
        if self.num_edge_deletes:
            doc["delete_edges"] = [
                [int(s), int(d)]
                for s, d in zip(self.delete_src, self.delete_dst)
            ]
        if self.num_node_deletes:
            doc["delete_nodes"] = [int(n) for n in self.delete_nodes]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "MutationBatch":
        if not isinstance(doc, dict):
            raise GraphError(f"batch must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"add_nodes", "insert", "delete_edges",
                              "delete_nodes"}
        if unknown:
            raise GraphError(f"unknown batch keys: {sorted(unknown)}")
        inserts = _json_rows(
            doc, "insert", (2, 3), "[src, dst] or [src, dst, w]"
        )
        deletes = _json_rows(doc, "delete_edges", (2,), "[src, dst]")
        delete_nodes = _json_ids(doc.get("delete_nodes", []), "delete_nodes")
        widths = {len(row) for row in inserts}
        if widths == {2, 3}:
            raise GraphError("insert rows mix weighted and unweighted forms")
        weighted = widths == {3}
        return cls(
            add_nodes=_json_id(doc.get("add_nodes", 0), "add_nodes"),
            insert_src=np.array([r[0] for r in inserts], dtype=np.uint32),
            insert_dst=np.array([r[1] for r in inserts], dtype=np.uint32),
            insert_weight=(
                np.array([r[2] for r in inserts], dtype=np.uint32)
                if weighted
                else None
            ),
            delete_src=np.array([r[0] for r in deletes], dtype=np.uint32),
            delete_dst=np.array([r[1] for r in deletes], dtype=np.uint32),
            delete_nodes=np.array(delete_nodes, dtype=np.uint32),
        )


def save_batches(batches: List[MutationBatch], path: Union[str, Path]) -> None:
    """Write a batch stream to JSON (the ``--stream`` interchange file)."""
    Path(path).write_text(
        json.dumps({"batches": [b.to_dict() for b in batches]}, indent=2)
        + "\n"
    )


def load_batches(path: Union[str, Path]) -> List[MutationBatch]:
    """Read a batch stream from JSON; accepts a list or {"batches": [...]}."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise GraphError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("batches")
    if not isinstance(doc, list):
        raise GraphError(
            f"{path}: expected a list of batches or {{'batches': [...]}}"
        )
    batches = []
    for index, entry in enumerate(doc):
        try:
            batches.append(MutationBatch.from_dict(entry))
        except GraphError as exc:
            raise GraphError(f"{path}: batch #{index}: {exc}") from exc
    return batches


def random_mutation_batch(
    edges: EdgeList,
    rng: np.random.Generator,
    *,
    delete_fraction: float = 0.005,
    insert_fraction: float = 0.005,
    add_nodes: int = 0,
    delete_node_count: int = 0,
) -> MutationBatch:
    """Draw a valid random batch against ``edges`` (for tests/benches/CI).

    Deletes a sample of existing edges, inserts fresh edges that do not
    collide with surviving ones (weights drawn in [1, 100] when the base
    is weighted), and optionally adds/deletes vertices.
    """
    num_delete = min(int(edges.num_edges * delete_fraction), edges.num_edges)
    delete_idx = (
        rng.choice(edges.num_edges, size=num_delete, replace=False)
        if num_delete
        else np.empty(0, dtype=np.int64)
    )
    delete_nodes = (
        rng.choice(edges.num_nodes, size=delete_node_count, replace=False)
        if delete_node_count
        else np.empty(0, dtype=np.uint32)
    )
    new_num_nodes = edges.num_nodes + add_nodes
    width = np.uint64(max(new_num_nodes, 1))
    base_key = edges.src.astype(np.uint64) * width + edges.dst
    forbidden = set(base_key.tolist())
    deletable = np.zeros(new_num_nodes, dtype=bool)
    deletable[np.asarray(delete_nodes, dtype=np.int64)] = True
    num_insert = int(edges.num_edges * insert_fraction)
    insert_src: List[int] = []
    insert_dst: List[int] = []
    attempts = 0
    while len(insert_src) < num_insert and attempts < 50 * max(num_insert, 1):
        attempts += 1
        s = int(rng.integers(0, new_num_nodes))
        d = int(rng.integers(0, new_num_nodes))
        if s == d or deletable[s] or deletable[d]:
            continue
        key = int(s) * int(width) + d
        if key in forbidden:
            continue
        forbidden.add(key)
        insert_src.append(s)
        insert_dst.append(d)
    insert_weight = None
    if edges.has_weights and insert_src:
        insert_weight = rng.integers(
            1, 101, size=len(insert_src), dtype=np.uint32
        )
    return MutationBatch(
        add_nodes=add_nodes,
        insert_src=np.array(insert_src, dtype=np.uint32),
        insert_dst=np.array(insert_dst, dtype=np.uint32),
        insert_weight=insert_weight,
        delete_src=edges.src[delete_idx],
        delete_dst=edges.dst[delete_idx],
        delete_nodes=np.asarray(delete_nodes, dtype=np.uint32),
    )
