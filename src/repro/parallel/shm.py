"""Zero-copy shared-memory stores for the multiprocess host runtime.

Two layers:

* :class:`SharedArrayStore` — a generic named-array arena.  The creator
  lays any number of numpy arrays into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment and hands
  out a picklable :class:`StoreManifest`; attachers rebuild zero-copy
  views over the same physical pages.  Unlink is guaranteed by a
  ``weakref.finalize`` on the creating process, so the segment disappears
  even when a worker crashes mid-run or the coordinator unwinds on
  ``KeyboardInterrupt``.
* :class:`SharedGraphStore` — the graph-specific layout on top: the CSR
  topology (``indptr``/``indices``/``weights``) and proxy tables
  (``local_to_global``/``mirror_master_host``) of every
  :class:`~repro.partition.base.LocalPartition`, plus the global
  ``master_host`` array.  Workers attach and reconstruct a full
  :class:`~repro.partition.base.PartitionedGraph` without re-pickling a
  single edge — the DGL ``SharedMemoryDGLGraph`` pattern.

The stores assume a POSIX host (``/dev/shm``-backed segments) and are
used with the ``fork`` start method, where parent and children share one
``resource_tracker``: the attach-side re-registration is a set no-op and
the creator's single ``unlink`` leaves the tracker clean.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.graph.csr import CSRGraph
from repro.partition.base import LocalPartition, PartitionedGraph

#: Byte alignment of each array inside the segment (numpy prefers 8).
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class StoreManifest:
    """Picklable recipe to re-attach a :class:`SharedArrayStore`.

    Attributes:
        shm_name: Kernel name of the shared-memory segment.
        entries: Per-array ``name -> (offset, shape, dtype_str)``.
    """

    shm_name: str
    entries: Dict[str, Tuple[int, Tuple[int, ...], str]]


def _cleanup(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Finalizer body: unlink (creator only), then close, never raise."""
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
    try:
        shm.close()
    except BufferError:
        # A live external view pins the mapping; the segment is already
        # unlinked, so process exit reclaims it without a /dev/shm leak.
        pass


class SharedArrayStore:
    """Named numpy arrays in one shared-memory segment.

    Use :meth:`create` in the coordinator and :meth:`attach` in workers.
    ``views[name]`` are zero-copy ndarrays over the shared pages; writes
    by any attached process are visible to all.

    Lifetime contract: a view is valid only while its store object is
    alive — numpy does not pin the mapping, so the store's finalizer
    unmaps the pages out from under any surviving view.  Copy
    (``np.array(view, copy=True)``) anything that must outlive the
    store.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: StoreManifest,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        self.views: Dict[str, np.ndarray] = {}
        for name, (offset, shape, dtype) in manifest.entries.items():
            self.views[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
        self._finalizer = weakref.finalize(self, _cleanup, shm, owner)

    @classmethod
    def allocate(
        cls, layout: Mapping[str, Tuple[Tuple[int, ...], str]]
    ) -> "SharedArrayStore":
        """A fresh zero-filled segment of ``name -> (shape, dtype)`` arrays."""
        entries: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for name, (shape, dtype) in layout.items():
            offset = _aligned(offset)
            entries[name] = (offset, tuple(shape), np.dtype(dtype).str)
            offset += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        return cls(shm, StoreManifest(shm_name=shm.name, entries=entries), owner=True)

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArrayStore":
        """Lay ``arrays`` into a fresh segment (copying once)."""
        staged = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
        store = cls.allocate(
            {name: (arr.shape, arr.dtype.str) for name, arr in staged.items()}
        )
        for name, arr in staged.items():
            store.views[name][...] = arr
        return store

    @classmethod
    def attach(cls, manifest: StoreManifest) -> "SharedArrayStore":
        """Map an existing segment (zero-copy; no unlink on teardown)."""
        try:
            shm = shared_memory.SharedMemory(name=manifest.shm_name)
        except FileNotFoundError:
            raise ExecutionError(
                f"shared store {manifest.shm_name!r} is gone "
                "(creator already unlinked it)"
            ) from None
        return cls(shm, manifest, owner=False)

    @property
    def nbytes(self) -> int:
        """Size of the backing segment in bytes."""
        return self._shm.size

    def close(self) -> None:
        """Drop this process's views and mapping (unlink-independent)."""
        self.views.clear()
        try:
            self._shm.close()
        except BufferError:
            # Some caller still holds a view; the mapping stays until
            # that reference dies or the process exits.  Harmless: the
            # /dev/shm entry is controlled by unlink, not close.
            pass

    def unlink(self) -> None:
        """Remove the segment from /dev/shm (idempotent, creator's job)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def release(self) -> None:
        """Full teardown now: unlink (if creator), close, disarm finalizer."""
        if self.owner:
            self.unlink()
        self.close()
        self._finalizer.detach()


@dataclass(frozen=True)
class GraphManifest:
    """Picklable recipe to re-attach a :class:`SharedGraphStore`."""

    store: StoreManifest
    strategy: object
    policy_name: str
    num_global_nodes: int
    num_global_edges: int
    has_edgeless_mirrors: bool
    num_masters: Tuple[int, ...]
    has_weights: Tuple[bool, ...]


class SharedGraphStore:
    """A :class:`PartitionedGraph` laid out for zero-copy attach.

    The coordinator :meth:`export`\\ s a partitioned graph once; each
    worker :meth:`attach`\\ es and calls :meth:`build_partitioned` to get
    a structurally identical graph whose arrays alias the shared pages.
    """

    def __init__(
        self, store: SharedArrayStore, manifest: GraphManifest
    ) -> None:
        self.store = store
        self.manifest = manifest

    @classmethod
    def export(cls, partitioned: PartitionedGraph) -> "SharedGraphStore":
        """Place ``partitioned``'s arrays into shared memory (coordinator)."""
        arrays: Dict[str, np.ndarray] = {"master_host": partitioned.master_host}
        num_masters: List[int] = []
        has_weights: List[bool] = []
        for h, part in enumerate(partitioned.partitions):
            graph = part.graph
            arrays[f"p{h}/indptr"] = graph.indptr
            arrays[f"p{h}/indices"] = graph.indices
            if graph.weights is not None:
                arrays[f"p{h}/weights"] = graph.weights
            arrays[f"p{h}/l2g"] = part.local_to_global
            arrays[f"p{h}/mmh"] = part.mirror_master_host
            num_masters.append(part.num_masters)
            has_weights.append(graph.weights is not None)
        store = SharedArrayStore.create(arrays)
        manifest = GraphManifest(
            store=store.manifest,
            strategy=partitioned.strategy,
            policy_name=partitioned.policy_name,
            num_global_nodes=partitioned.num_global_nodes,
            num_global_edges=partitioned.num_global_edges,
            has_edgeless_mirrors=partitioned.has_edgeless_mirrors,
            num_masters=tuple(num_masters),
            has_weights=tuple(has_weights),
        )
        return cls(store, manifest)

    @classmethod
    def attach(cls, manifest: GraphManifest) -> "SharedGraphStore":
        """Map an exported graph (worker side)."""
        return cls(SharedArrayStore.attach(manifest.store), manifest)

    @property
    def num_hosts(self) -> int:
        """Number of per-host partitions in the store."""
        return len(self.manifest.num_masters)

    def build_partitioned(self) -> PartitionedGraph:
        """Reconstruct the partitioned graph over the shared arrays."""
        views = self.store.views
        meta = self.manifest
        partitions: List[LocalPartition] = []
        for h in range(self.num_hosts):
            weights = views.get(f"p{h}/weights") if meta.has_weights[h] else None
            graph = CSRGraph(
                views[f"p{h}/indptr"], views[f"p{h}/indices"], weights
            )
            partitions.append(
                LocalPartition(
                    host=h,
                    graph=graph,
                    local_to_global=views[f"p{h}/l2g"],
                    num_masters=meta.num_masters[h],
                    mirror_master_host=views[f"p{h}/mmh"],
                )
            )
        return PartitionedGraph(
            strategy=meta.strategy,
            policy_name=meta.policy_name,
            num_global_nodes=meta.num_global_nodes,
            num_global_edges=meta.num_global_edges,
            master_host=views["master_host"],
            partitions=partitions,
            has_edgeless_mirrors=meta.has_edgeless_mirrors,
        )

    def close(self) -> None:
        """Drop this process's mapping."""
        self.store.close()

    def release(self) -> None:
        """Unlink (creator) and close now."""
        self.store.release()
