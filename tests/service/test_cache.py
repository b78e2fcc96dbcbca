"""The two-level cache: LRU order, integrity frames, corruption fallback."""

import pickle

import pytest

from repro.errors import CacheError
from repro.observability.metrics import MetricsRegistry
from repro.service import CacheLevel, ServiceCache
from repro.service.cache import _frame, _unframe


class TestIntegrityFrame:
    def test_roundtrip(self):
        assert _unframe(_frame(b"payload")) == b"payload"

    def test_flipped_byte_is_refused(self):
        blob = bytearray(_frame(b"payload"))
        blob[-1] ^= 0xFF
        assert _unframe(bytes(blob)) is None

    def test_garbage_is_refused(self):
        assert _unframe(b"not a frame") is None
        assert _unframe(b"") is None


class TestLRUMemory:
    def test_eviction_is_least_recently_used(self):
        level = CacheLevel("partition", max_entries=2)
        level.put("a", 1)
        level.put("b", 2)
        assert level.get("a") == 1  # touch: b is now the LRU victim
        level.put("c", 3)
        assert level.keys() == ["a", "c"]
        assert level.get("b") is None

    def test_put_refreshes_recency(self):
        level = CacheLevel("partition", max_entries=2)
        level.put("a", 1)
        level.put("b", 2)
        level.put("a", 10)  # re-store: a is now most recent
        level.put("c", 3)
        assert level.get("a") == 10
        assert level.get("b") is None

    def test_capacity_bound_is_validated(self):
        with pytest.raises(CacheError, match="max_entries"):
            CacheLevel("partition", max_entries=0)


class TestLRUDisk:
    def test_entries_survive_a_new_instance(self, tmp_path):
        CacheLevel("result", directory=tmp_path).put("k", {"x": 1})
        reopened = CacheLevel("result", directory=tmp_path)
        assert reopened.get("k") == {"x": 1}

    def test_eviction_deletes_the_file(self, tmp_path):
        level = CacheLevel("result", directory=tmp_path, max_entries=1)
        level.put("a", 1)
        level.put("b", 2)
        assert not (tmp_path / "result" / "a.blob").exists()
        assert (tmp_path / "result" / "b.blob").exists()
        assert len(level) == 1

    def test_get_deserializes_a_fresh_object(self, tmp_path):
        level = CacheLevel("result", directory=tmp_path)
        stored = {"nested": [1, 2, 3]}
        level.put("k", stored)
        fetched = level.get("k")
        assert fetched == stored and fetched is not stored
        fetched["nested"].append(4)
        assert level.get("k") == stored  # cache state was not aliased


class TestCorruption:
    def test_flipped_byte_falls_back_to_miss(self, tmp_path):
        metrics = MetricsRegistry()
        level = CacheLevel("result", directory=tmp_path, metrics=metrics)
        level.put("k", "value")
        path = tmp_path / "result" / "k.blob"
        blob = bytearray(path.read_bytes())
        blob[70] ^= 0xFF  # flip a payload byte under the digest
        path.write_bytes(bytes(blob))
        assert level.get("k") is None
        assert level.corruptions.value == 1
        assert not path.exists()  # dropped, so recompute can re-store
        level.put("k", "recomputed")
        assert level.get("k") == "recomputed"

    def test_valid_frame_around_bad_pickle_counts_too(self, tmp_path):
        level = CacheLevel(
            "result", directory=tmp_path, metrics=MetricsRegistry()
        )
        path = tmp_path / "result" / "k.blob"
        path.write_bytes(_frame(b"\x80\x05 this is not pickle"))
        level._order["k"] = None  # adopted entry
        assert level.get("k") is None
        assert level.corruptions.value == 1

    def test_file_deleted_behind_our_back_is_a_miss(self, tmp_path):
        level = CacheLevel(
            "result", directory=tmp_path, metrics=MetricsRegistry()
        )
        level.put("k", "value")
        (tmp_path / "result" / "k.blob").unlink()
        assert level.get("k") is None
        assert level.misses.value == 1


class TestCounters:
    def test_hit_miss_store_eviction_counts(self):
        metrics = MetricsRegistry()
        level = CacheLevel("partition", max_entries=1, metrics=metrics)
        assert level.get("a") is None
        level.put("a", 1)
        assert level.get("a") == 1
        level.put("b", 2)  # evicts a
        snapshot = level.stats()
        assert snapshot == {
            "entries": 1, "hits": 1, "misses": 1,
            "evictions": 1, "corruptions": 0, "stores": 2,
        }
        assert (
            metrics.counter_total("service_cache_hits_total") == 1
        )

    def test_levels_are_labeled_separately(self):
        metrics = MetricsRegistry()
        cache = ServiceCache(metrics=metrics)
        cache.partitions.get("x")
        cache.results.get("y")
        cache.results.get("z")
        stats = cache.stats()
        assert stats["partition"]["misses"] == 1
        assert stats["result"]["misses"] == 2


class TestServiceCache:
    def test_partition_entry_carries_prepared_sync(self):
        cache = ServiceCache()
        cache.put_partition("key", "the-partition", prepared_sync="books")
        entry = cache.get_partition("key")
        assert entry.partitioned == "the-partition"
        assert entry.prepared_sync == "books"
        assert cache.get_partition("other") is None

    def test_result_level_refuses_foreign_types(self, tmp_path):
        cache = ServiceCache(directory=tmp_path)
        # Simulate a key collision with data that is not a JobResult.
        cache.results.put("h" * 64, {"not": "a JobResult"})
        assert cache.get_result("h" * 64) is None

    def test_disk_roundtrip_of_numpy_payloads(self, tmp_path):
        import numpy as np

        from repro.service.spec import JobResult, values_digest

        values = np.arange(32, dtype=np.uint32)
        result = JobResult(
            job_id="j", spec_hash="s" * 64, spec={"app": "bfs"},
            values=values, output_digest=values_digest(values),
        )
        ServiceCache(directory=tmp_path).put_result("s" * 64, result)
        fetched = ServiceCache(directory=tmp_path).get_result("s" * 64)
        assert np.array_equal(fetched.values, values)
        assert fetched.output_digest == values_digest(fetched.values)


class TestPickleStability:
    def test_frame_uses_highest_protocol(self):
        # Documented invariant: disk entries are plain pickle under the
        # frame, so the multiprocessing workers can read them.
        payload = _unframe(_frame(pickle.dumps([1, 2])))
        assert pickle.loads(payload) == [1, 2]
