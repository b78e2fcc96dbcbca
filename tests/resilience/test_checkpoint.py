"""Unit tests for content-addressed checkpoints and their backends."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.resilience.checkpoint import (
    CheckpointManager,
    DiskCheckpointBackend,
    MemoryCheckpointBackend,
)


def snapshot(round_index=3):
    return {
        "round": round_index,
        "states": [{"dist": np.arange(4, dtype=np.uint32)}],
        "frontiers": [np.array([True, False, True, False])],
    }


class TestBackends:
    def test_memory_roundtrip(self):
        backend = MemoryCheckpointBackend()
        backend.put("abc", b"blob")
        assert backend.get("abc") == b"blob"
        assert "abc" in backend and len(backend) == 1

    def test_memory_missing_digest(self):
        with pytest.raises(CheckpointError):
            MemoryCheckpointBackend().get("nope")

    def test_put_is_idempotent(self):
        backend = MemoryCheckpointBackend()
        backend.put("d", b"first")
        backend.put("d", b"second")
        assert backend.get("d") == b"first"

    def test_disk_roundtrip(self, tmp_path):
        backend = DiskCheckpointBackend(tmp_path / "ckpts")
        backend.put("deadbeef", b"persisted")
        assert backend.get("deadbeef") == b"persisted"
        assert (tmp_path / "ckpts" / "deadbeef.ckpt").exists()
        assert len(backend) == 1

    def test_disk_missing_digest(self, tmp_path):
        with pytest.raises(CheckpointError):
            DiskCheckpointBackend(tmp_path).get("missing")


class TestCadence:
    def test_zero_disables_periodic_snapshots(self):
        manager = CheckpointManager(every=0)
        assert not any(manager.due(r) for r in range(1, 20))

    def test_cadence(self):
        manager = CheckpointManager(every=3)
        assert [r for r in range(1, 10) if manager.due(r)] == [3, 6, 9]

    def test_negative_cadence_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointManager(every=-1)


class TestSaveRestore:
    def test_roundtrip(self):
        manager = CheckpointManager()
        record = manager.save(snapshot(5))
        assert record.round_index == 5
        assert record.nbytes > 0
        restored = manager.restore()
        assert restored["round"] == 5
        np.testing.assert_array_equal(
            restored["states"][0]["dist"], np.arange(4, dtype=np.uint32)
        )

    def test_restore_returns_fresh_copies(self):
        manager = CheckpointManager()
        manager.save(snapshot())
        first = manager.restore()
        first["states"][0]["dist"][:] = 99
        second = manager.restore()
        assert second["states"][0]["dist"][0] == 0

    def test_latest_wins(self):
        manager = CheckpointManager()
        manager.save(snapshot(1))
        manager.save(snapshot(2))
        assert manager.restore()["round"] == 2
        assert manager.latest().round_index == 2

    def test_restore_specific_record(self):
        manager = CheckpointManager()
        record = manager.save(snapshot(1))
        assert manager.restore(record)["round"] == 1

    def test_restore_without_checkpoint_rejected(self):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointManager().restore()

    def test_snapshot_without_round_rejected(self):
        with pytest.raises(CheckpointError, match="round"):
            CheckpointManager().save({"states": []})

    def test_bit_rot_detected(self):
        backend = MemoryCheckpointBackend()
        manager = CheckpointManager(backend)
        record = manager.save(snapshot())
        backend._blobs[record.digest] = b"corrupted" + bytes(10)
        with pytest.raises(CheckpointError, match="validation"):
            manager.restore()

    def test_disk_backend_survives_new_manager(self, tmp_path):
        backend = DiskCheckpointBackend(tmp_path)
        record = CheckpointManager(backend).save(snapshot(4))
        fresh = CheckpointManager(DiskCheckpointBackend(tmp_path))
        assert fresh.restore(record)["round"] == 4

    def test_clear(self):
        manager = CheckpointManager()
        manager.save(snapshot())
        manager.clear()
        assert manager.latest() is None


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointBackend()
    return DiskCheckpointBackend(tmp_path / "ckpts")


class TestOnlyTheLatestIsKept:
    """Recovery reads only the latest snapshot; the store holds nothing else."""

    def test_a_save_drops_the_blob_it_supersedes(self, backend):
        manager = CheckpointManager(backend)
        early = manager.save(snapshot(1))
        late = manager.save(snapshot(2))
        assert len(backend) == 1
        assert early.digest not in backend and late.digest in backend
        assert manager.restore()["round"] == 2
        with pytest.raises(CheckpointError, match="no checkpoint"):
            manager.restore(early)

    def test_resaving_the_same_bytes_keeps_the_blob(self, backend):
        manager = CheckpointManager(backend)
        first = manager.save(snapshot(3))
        again = manager.save(snapshot(3))
        assert first.digest == again.digest
        assert len(backend) == 1
        assert manager.restore()["round"] == 3

    def test_clear_drops_every_blob(self, backend):
        manager = CheckpointManager(backend)
        manager.save(snapshot(1))
        manager.save(snapshot(2))
        manager.clear()
        assert manager.latest() is None and len(backend) == 0

    def test_discard_of_a_missing_digest_is_a_no_op(self, backend):
        backend.discard("absent")
        assert len(backend) == 0


def test_a_run_ends_holding_one_blob_and_counts_every_save(small_rmat):
    from repro.resilience.recovery import ResilienceConfig
    from repro.systems import run_app

    result = run_app(
        "d-galois", "pr", small_rmat, 4, policy="oec", max_iterations=6,
        resilience=ResilienceConfig(checkpoint_every=1),
    )
    checkpoints = result.executor.checkpoints
    # Every round but the last (after which the run stops) is saved.
    assert result.num_checkpoints == result.num_rounds - 1 > 1
    assert len(checkpoints.backend) == 1
    latest = checkpoints.latest()
    assert latest.round_index == result.num_checkpoints
    assert result.checkpoint_bytes >= result.num_checkpoints * latest.nbytes
