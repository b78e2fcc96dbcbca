"""Checkpointing: periodic snapshots the recovery protocols restore from.

A snapshot captures what a BSP execution cannot rebuild at a round
boundary (a run's round 0 is rebuilt, never stored): every host's state
arrays (masters *and* mirrors, so a restored run replays
bit-identically), every host's frontier, and the round counter.  Snapshots are serialized to
one content-addressed blob (SHA-256 of the bytes is both the storage key
and the restore-time integrity check) held by a pluggable backend:

* :class:`MemoryCheckpointBackend` — in-process dict, the default for the
  simulated cluster (a real deployment's "remote peer memory");
* :class:`DiskCheckpointBackend` — one ``<digest>.ckpt`` file per
  snapshot in a directory, surviving the process.

Content addressing makes identical snapshots free to re-save and makes
any bit-rot detectable: :meth:`CheckpointManager.restore` re-hashes the
blob and refuses a digest mismatch.

Recovery only ever reads the latest snapshot, so the manager keeps one
record and the store one blob: a save drops the blob it supersedes
(unless the new snapshot has the same bytes, hence the same digest), and
:meth:`CheckpointManager.clear` drops the last one.  Both backends prune
alike; a checkpoint directory holds one run's latest snapshot, not an
archive of every round.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.errors import CheckpointError


class MemoryCheckpointBackend:
    """Content-addressed in-memory blob store."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}

    def put(self, digest: str, blob: bytes) -> None:
        """Store ``blob`` under ``digest`` (idempotent)."""
        self._blobs.setdefault(digest, blob)

    def get(self, digest: str) -> bytes:
        """Fetch the blob stored under ``digest``."""
        try:
            return self._blobs[digest]
        except KeyError:
            raise CheckpointError(f"no checkpoint blob for digest {digest}") from None

    def discard(self, digest: str) -> None:
        """Drop the blob stored under ``digest``, if any."""
        self._blobs.pop(digest, None)

    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)


class DiskCheckpointBackend:
    """Content-addressed blob store backed by a directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.ckpt"

    def put(self, digest: str, blob: bytes) -> None:
        """Write ``blob`` to ``<digest>.ckpt`` unless already present."""
        path = self._path(digest)
        if not path.exists():
            path.write_bytes(blob)

    def get(self, digest: str) -> bytes:
        """Read the blob stored under ``digest``."""
        path = self._path(digest)
        if not path.exists():
            raise CheckpointError(f"no checkpoint file {path}")
        return path.read_bytes()

    def discard(self, digest: str) -> None:
        """Delete ``<digest>.ckpt``, if present."""
        self._path(digest).unlink(missing_ok=True)

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def __len__(self) -> int:
        return len(list(self.directory.glob("*.ckpt")))


@dataclass(frozen=True)
class CheckpointRecord:
    """Bookkeeping for one saved snapshot."""

    round_index: int
    digest: str
    nbytes: int
    save_time_s: float


class CheckpointManager:
    """Saves and restores execution snapshots on a cadence.

    Holds only the latest snapshot: each save supersedes (and drops the
    blob of) the one before.

    Args:
        backend: blob store (defaults to in-memory).
        every: snapshot cadence in rounds; ``0`` disables periodic
            snapshots (a crash then rolls back to round 0, which the
            executor rebuilds from the input).
    """

    def __init__(self, backend=None, every: int = 0) -> None:
        if every < 0:
            raise CheckpointError(f"checkpoint cadence must be >= 0, got {every}")
        self.backend = backend if backend is not None else MemoryCheckpointBackend()
        self.every = every
        self._latest: Optional[CheckpointRecord] = None

    def due(self, round_index: int) -> bool:
        """Whether a periodic snapshot is due after ``round_index``."""
        return self.every >= 1 and round_index >= 1 and round_index % self.every == 0

    def save(self, snapshot: dict) -> CheckpointRecord:
        """Serialize and store ``snapshot``; returns its record.

        The snapshot dict must carry a ``"round"`` key (the round boundary
        it captures); everything else is up to the caller.
        """
        if "round" not in snapshot:
            raise CheckpointError("snapshot is missing its 'round' counter")
        started = time.perf_counter()
        blob = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        self.backend.put(digest, blob)
        self._forget(keep=digest)
        record = self._latest = CheckpointRecord(
            round_index=int(snapshot["round"]),
            digest=digest,
            nbytes=len(blob),
            save_time_s=time.perf_counter() - started,
        )
        return record

    def latest(self) -> Optional[CheckpointRecord]:
        """The most recent snapshot's record, or ``None``."""
        return self._latest

    def restore(self, record: Optional[CheckpointRecord] = None) -> dict:
        """Load and validate a snapshot (default: the latest).

        Every restore deserializes a fresh object graph, so restoring the
        same checkpoint twice yields independent state arrays.

        Raises:
            CheckpointError: no checkpoint exists, the stored bytes fail
                the content-address check, or the snapshot's round counter
                disagrees with its record.
        """
        if record is None:
            record = self.latest()
        if record is None:
            raise CheckpointError("no checkpoint has been taken yet")
        blob = self.backend.get(record.digest)
        digest = hashlib.sha256(blob).hexdigest()
        if digest != record.digest:
            raise CheckpointError(
                f"checkpoint for round {record.round_index} failed "
                f"validation: stored digest {record.digest[:12]}..., "
                f"recomputed {digest[:12]}..."
            )
        snapshot = pickle.loads(blob)
        if int(snapshot.get("round", -1)) != record.round_index:
            raise CheckpointError(
                f"checkpoint round mismatch: record says "
                f"{record.round_index}, snapshot says {snapshot.get('round')}"
            )
        return snapshot

    def _forget(self, keep: Optional[str] = None) -> None:
        """Drop the latest record and its blob (kept if its digest is
        ``keep``: the blob just saved under the same content address)."""
        if self._latest is not None and self._latest.digest != keep:
            self.backend.discard(self._latest.digest)
        self._latest = None

    def clear(self) -> None:
        """Forget the latest snapshot and drop its blob (used when a
        layout change rebaselines the run)."""
        self._forget()
