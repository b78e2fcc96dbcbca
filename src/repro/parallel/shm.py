"""Zero-copy shared-memory arrays for the multiprocess host runtime.

:class:`SharedArrayStore` lays any number of numpy arrays into **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment and hands out
a picklable :class:`StoreManifest`; attachers rebuild zero-copy views
over the same physical pages.  It holds what is *written* across
processes (host state, ring frames); the read-only partitions reach the
workers through ``fork`` and never come here.  Unlink is guaranteed by a
``weakref.finalize`` on the creating process, so the segment disappears
even when a worker crashes mid-run or the coordinator unwinds on
``KeyboardInterrupt``.

The store assumes a POSIX host (``/dev/shm``-backed segments) and is
used with the ``fork`` start method, where parent and children share one
``resource_tracker``: the attach-side re-registration is a set no-op and
the creator's single ``unlink`` leaves the tracker clean.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import ExecutionError

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
