"""ResultCache: LRU eviction, hit/miss/eviction counters, key identity.

The cache is keyed by canonical digests — distinct keys never collide
(distinct strings), and one key always maps to its latest value. The
eviction tests pin the LRU order: ``get`` refreshes recency, ``put``
evicts the least-recently-used entry when full.
"""

from __future__ import annotations

from repro.service.cache import ResultCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k1") is None
        cache.put("k1", {"v": 1})
        assert cache.get("k1") == {"v": 1}
        assert "k1" in cache
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["size"] == 1
        assert stats["max_entries"] == 4

    def test_put_overwrites_in_place(self):
        cache = ResultCache(max_entries=2)
        cache.put("k1", {"v": 1})
        cache.put("k1", {"v": 2})
        assert cache.get("k1") == {"v": 2}
        assert len(cache) == 1

    def test_distinct_keys_never_collide(self):
        """Near-identical digests map to independent entries."""
        cache = ResultCache(max_entries=8)
        key_a = "a" * 63 + "0"
        key_b = "a" * 63 + "1"
        cache.put(key_a, {"v": "a"})
        cache.put(key_b, {"v": "b"})
        assert cache.get(key_a) == {"v": "a"}
        assert cache.get(key_b) == {"v": "b"}

    def test_clear_resets_entries_not_counters(self):
        cache = ResultCache(max_entries=2)
        cache.put("k1", {"v": 1})
        cache.get("k1")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1
        assert cache.get("k1") is None  # one more miss
        assert cache.stats()["misses"] == 1


class TestEviction:
    def test_lru_entry_evicted_first(self):
        cache = ResultCache(max_entries=2)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        cache.put("k3", {"v": 3})  # evicts k1
        assert cache.get("k1") is None
        assert cache.get("k2") == {"v": 2}
        assert cache.get("k3") == {"v": 3}
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        cache.get("k1")  # k2 is now LRU
        cache.put("k3", {"v": 3})  # evicts k2, not k1
        assert cache.get("k1") == {"v": 1}
        assert cache.get("k2") is None
        assert cache.get("k3") == {"v": 3}

    def test_eviction_counter_accumulates(self):
        cache = ResultCache(max_entries=1)
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        assert cache.stats()["evictions"] == 4
        assert len(cache) == 1
        assert cache.get("k4") == {"v": 4}


class TestCompactStorage:
    def test_entries_are_compact_json(self):
        cache = ResultCache(max_entries=2)
        payload = {"score": {"objective": 0.1 + 0.2, "nodes": [0, 1]}}
        cache.put("k", payload)
        stored = cache._entries["k"]
        assert isinstance(stored, str)
        assert " " not in stored

    def test_each_hit_decodes_a_fresh_equal_payload(self):
        cache = ResultCache(max_entries=2)
        payload = {"score": {"objective": 1 / 3, "nodes": [0, 1]}}
        cache.put("k", payload)
        first, second = cache.get("k"), cache.get("k")
        assert first == second == payload
        first["score"]["nodes"].append(2)
        assert cache.get("k") == payload

    def test_decoded_hit_equals_execute_request(self):
        from repro.runtime.spec import EnsembleSpec, default_member
        from repro.service.schemas import PlacementRequest
        from repro.service.workers import execute_request

        spec = EnsembleSpec(
            "c", tuple(default_member(f"em{i}", n_steps=4) for i in range(2))
        )
        request = PlacementRequest(
            kind="search", spec=spec, num_nodes=3, robust_rate=0.05
        )
        payload = execute_request(request)
        cache = ResultCache(max_entries=2)
        cache.put("k", payload)
        assert cache.get("k") == execute_request(request)
