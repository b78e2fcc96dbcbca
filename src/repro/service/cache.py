"""The service's two-level content-addressed cache.

Level 1 (**partition**) holds partitioned graphs together with the
memoized sync structures of §4.1, keyed by (graph bytes, policy, hosts) —
see :func:`repro.partition.build.partition_cache_key`.  Level 2
(**result**) holds completed :class:`~repro.service.spec.JobResult`
payloads keyed by the full job spec's content hash.  The generalization
is exactly Gluon's temporal invariance: the partition never changes, so
anything derived from it (address books, and for an identical spec the
entire answer) is computed once and amortized over all later jobs.

Every entry is stored as ``sha256(payload) + payload``; a read re-hashes
and refuses a mismatch — a corrupted entry is *dropped and recomputed*,
never served and never fatal.  Both levels evict LRU beyond a bounded
entry count and publish hit/miss/eviction/corruption counters through
the observability metrics registry.

Storage is pluggable per level: in-memory (default) or a directory on
disk (``repro serve --cache-dir``), where entries survive the process
and are shared with ``multiprocessing`` workers.  Either way a ``get``
deserializes a *fresh* object — cached state is never shared between
jobs by reference.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import CacheError
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.partition.build import CachedPartition
from repro.service.spec import JobResult


def _frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its hex digest (the integrity frame)."""
    return sha256(payload).hexdigest().encode("ascii") + b"\n" + payload


def _unframe(blob: bytes) -> Optional[bytes]:
    """Verify and strip the integrity frame; ``None`` on any mismatch."""
    newline = blob.find(b"\n")
    if newline != 64:
        return None
    digest, payload = blob[:newline], blob[newline + 1 :]
    if sha256(payload).hexdigest().encode("ascii") != digest:
        return None
    return payload


class CacheLevel:
    """One namespace of the cache: an LRU, integrity-checked blob store.

    Args:
        name: Level name (``"partition"`` or ``"result"``); doubles as the
            metrics label and the on-disk subdirectory.
        directory: When given, blobs live as ``<key>.blob`` files under
            ``directory/name`` (created on demand) and survive the
            process; otherwise they live in an in-process dict.
        max_entries: LRU capacity bound (must be >= 1).
        metrics: Observability registry for the hit/miss counters.
    """

    def __init__(
        self,
        name: str,
        directory=None,
        max_entries: int = 64,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        if max_entries < 1:
            raise CacheError(
                f"cache level {name!r} needs max_entries >= 1, "
                f"got {max_entries}"
            )
        self.name = name
        self.max_entries = max_entries
        self.directory: Optional[Path] = None
        #: LRU order: least-recently-used first.  Memory backend maps
        #: key -> framed blob; disk backend maps key -> None (files hold
        #: the blobs).
        self._order: "OrderedDict[str, Optional[bytes]]" = OrderedDict()
        if directory is not None:
            self.directory = Path(directory) / name
            self.directory.mkdir(parents=True, exist_ok=True)
            # Adopt surviving entries, oldest access first.
            paths = sorted(
                self.directory.glob("*.blob"),
                key=lambda p: p.stat().st_mtime,
            )
            for path in paths:
                self._order[path.stem] = None
        self.hits = metrics.counter("service_cache_hits_total", level=name)
        self.misses = metrics.counter("service_cache_misses_total", level=name)
        self.evictions = metrics.counter(
            "service_cache_evictions_total", level=name
        )
        self.corruptions = metrics.counter(
            "service_cache_corruptions_total", level=name
        )
        self.stores = metrics.counter("service_cache_stores_total", level=name)

    # -- internals ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.blob"

    def _read_blob(self, key: str) -> Optional[bytes]:
        if self.directory is None:
            return self._order.get(key)
        path = self._path(key)
        if not path.exists():
            return None
        return path.read_bytes()

    def _drop(self, key: str) -> None:
        self._order.pop(key, None)
        if self.directory is not None:
            self._path(key).unlink(missing_ok=True)

    def _evict_over_capacity(self) -> None:
        while len(self._order) > self.max_entries:
            victim, _ = self._order.popitem(last=False)
            if self.directory is not None:
                self._path(victim).unlink(missing_ok=True)
            self.evictions.inc()

    # -- public API --------------------------------------------------------

    def get(self, key: str):
        """Fetch and deserialize the entry under ``key``.

        Returns ``None`` on a miss *or* on a corrupted entry (which is
        counted, dropped, and left for the caller to recompute).
        """
        if self.directory is None and key not in self._order:
            self.misses.inc()
            return None
        blob = self._read_blob(key)
        if blob is None:
            # Disk entry adopted at init but deleted since, or plain miss.
            self._order.pop(key, None)
            self.misses.inc()
            return None
        payload = _unframe(blob)
        if payload is None:
            self.corruptions.inc()
            self._drop(key)
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            # The frame checks bytes, not meaning: an entry written by an
            # incompatible writer still must not kill the job.
            self.corruptions.inc()
            self._drop(key)
            return None
        # LRU touch.
        if key in self._order:
            self._order.move_to_end(key)
        else:
            self._order[key] = None
        if self.directory is not None:
            try:
                import os

                os.utime(self._path(key))
            except OSError:
                pass
        self.hits.inc()
        return value

    def put(self, key: str, value) -> None:
        """Serialize and store ``value`` under ``key`` (LRU-evicting)."""
        blob = _frame(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        if self.directory is None:
            self._order[key] = blob
            self._order.move_to_end(key)
        else:
            tmp = self._path(key).with_suffix(".tmp")
            tmp.write_bytes(blob)
            tmp.replace(self._path(key))
            self._order[key] = None
            self._order.move_to_end(key)
        self.stores.inc()
        self._evict_over_capacity()

    def keys(self) -> List[str]:
        """Keys in LRU order (least recently used first)."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def stats(self) -> Dict:
        """Counter snapshot for summaries."""
        return {
            "entries": len(self._order),
            "hits": self.hits.value,
            "misses": self.misses.value,
            "evictions": self.evictions.value,
            "corruptions": self.corruptions.value,
            "stores": self.stores.value,
        }


class ServiceCache:
    """The two-level cache: partitions + sync structures, then results.

    Implements the duck-typed partition-cache protocol of
    :func:`repro.partition.build.build_partition` (``get_partition`` /
    ``put_partition``), so handing a :class:`ServiceCache` to
    :func:`repro.systems.run_app` as ``partition_cache`` makes the plain
    ``repro run`` path cache-aware too.
    """

    def __init__(
        self,
        directory=None,
        max_partitions: int = 16,
        max_results: int = 256,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.partitions = CacheLevel(
            "partition",
            directory=directory,
            max_entries=max_partitions,
            metrics=metrics,
        )
        self.results = CacheLevel(
            "result",
            directory=directory,
            max_entries=max_results,
            metrics=metrics,
        )

    # -- level 1: partitions + memoized sync structures --------------------

    def get_partition(self, key: str) -> Optional[CachedPartition]:
        """Cached (partition, sync structures) for ``key``, or ``None``."""
        entry = self.partitions.get(key)
        if entry is None:
            return None
        return CachedPartition(
            partitioned=entry["partitioned"],
            prepared_sync=entry.get("prepared_sync"),
        )

    def put_partition(self, key: str, partitioned, prepared_sync=None) -> None:
        """Store a partition (and optionally its sync structures)."""
        self.partitions.put(
            key,
            {"partitioned": partitioned, "prepared_sync": prepared_sync},
        )

    # -- level 2: completed job results ------------------------------------

    def get_result(self, spec_hash: str) -> Optional[JobResult]:
        """Cached completed result for a spec hash, or ``None``."""
        value = self.results.get(spec_hash)
        if value is not None and not isinstance(value, JobResult):
            # Key collision with foreign data — treat as miss.
            return None
        return value

    def put_result(self, spec_hash: str, result: JobResult) -> None:
        """Store a completed (successful) job result."""
        self.results.put(spec_hash, result)

    def stats(self) -> Dict:
        """Per-level counter snapshot."""
        return {
            "partition": self.partitions.stats(),
            "result": self.results.stats(),
        }
