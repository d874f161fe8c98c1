"""Unit tests for the result cache (Section 3.3 behaviour)."""

from __future__ import annotations

import pytest

from repro.cache.cache import ResultCache
from repro.cache.eviction import LRUPolicy
from repro.core.miner import MiscelaMiner
from repro.store.database import Database


@pytest.fixture
def cache() -> ResultCache:
    return ResultCache(Database())


class TestGetPut:
    def test_miss_then_hit(self, cache, tiny_dataset, tiny_params):
        assert cache.get("tiny", tiny_params) is None
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        cached = cache.get("tiny", tiny_params)
        assert cached is not None
        assert cached.from_cache
        assert {c.key() for c in cached.caps} == {c.key() for c in result.caps}

    def test_stats_track_hits_misses(self, cache, tiny_dataset, tiny_params):
        cache.get("tiny", tiny_params)
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        cache.get("tiny", tiny_params)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_different_params_different_entries(self, cache, tiny_dataset, tiny_params):
        r1 = MiscelaMiner(tiny_params).mine(tiny_dataset)
        p2 = tiny_params.with_updates(min_support=3)
        r2 = MiscelaMiner(p2).mine(tiny_dataset)
        cache.put(r1)
        cache.put(r2)
        assert len(cache) == 2
        assert cache.get("tiny", tiny_params).num_caps == 2
        assert cache.get("tiny", p2).num_caps == 1

    def test_put_same_key_replaces(self, cache, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        cache.put(result)
        assert len(cache) == 1


class TestDecodedMemo:
    def test_hits_share_one_decoded_result(self, cache, tiny_dataset, tiny_params):
        cache.put(MiscelaMiner(tiny_params).mine(tiny_dataset))
        assert cache.get("tiny", tiny_params) is cache.get("tiny", tiny_params)

    def test_rewritten_document_is_decoded_again(self, cache, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        first = cache.get("tiny", tiny_params)
        result.caps = result.caps[:1]
        cache.put(result)  # same key, new stored document
        second = cache.get("tiny", tiny_params)
        assert second is not first
        assert second.num_caps == 1

    def test_memo_never_outlives_a_delete(self, cache, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        stale = cache.get("tiny", tiny_params)
        cache.invalidate_dataset("tiny")
        assert cache.get("tiny", tiny_params) is None
        result.caps = []
        cache.put(result)
        fresh = cache.get("tiny", tiny_params)
        assert fresh is not stale and fresh.num_caps == 0

    def test_memo_is_bounded(self, cache, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        for support in range(1, ResultCache.DECODED_CAPACITY + 6):
            result.parameters = tiny_params.with_updates(min_support=support)
            cache.put(result)
            cache.get("tiny", result.parameters)
        assert len(cache._decoded) == ResultCache.DECODED_CAPACITY


class TestMineCached:
    def test_second_call_is_cache_hit(self, cache, tiny_dataset, tiny_params):
        first = cache.mine_cached(tiny_dataset, tiny_params)
        second = cache.mine_cached(tiny_dataset, tiny_params)
        assert not first.from_cache
        assert second.from_cache
        assert {c.key() for c in first.caps} == {c.key() for c in second.caps}

    def test_cached_result_equals_fresh(self, cache, tiny_dataset, tiny_params):
        fresh = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(fresh)
        replayed = cache.mine_cached(tiny_dataset, tiny_params)
        assert [(c.key(), c.support, c.evolving_indices) for c in replayed.caps] == [
            (c.key(), c.support, c.evolving_indices) for c in fresh.caps
        ]


class TestInvalidation:
    def test_invalidate_dataset(self, cache, tiny_dataset, tiny_params):
        cache.put(MiscelaMiner(tiny_params).mine(tiny_dataset))
        cache.put(MiscelaMiner(tiny_params.with_updates(min_support=3)).mine(tiny_dataset))
        removed = cache.invalidate_dataset("tiny")
        assert removed == 2
        assert cache.get("tiny", tiny_params) is None
        assert cache.stats.invalidations == 2

    def test_invalidate_leaves_other_datasets(self, cache, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        other = MiscelaMiner(tiny_params).mine(tiny_dataset.subset(["a", "b"], name="other"))
        cache.put(other)
        cache.invalidate_dataset("other")
        assert cache.get("tiny", tiny_params) is not None


class TestWithEviction:
    def test_lru_bounds_store(self, tiny_dataset, tiny_params):
        cache = ResultCache(Database(), policy=LRUPolicy(2))
        for psi in (1, 2, 3):
            cache.put(MiscelaMiner(tiny_params.with_updates(min_support=psi)).mine(tiny_dataset))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("tiny", tiny_params.with_updates(min_support=1)) is None


class TestPersistenceAcrossRestart:
    def test_cache_survives_database_reload(self, tmp_path, tiny_dataset, tiny_params):
        path = tmp_path / "db.json"
        db = Database(path)
        cache = ResultCache(db)
        cache.put(MiscelaMiner(tiny_params).mine(tiny_dataset))
        db.save()

        cache2 = ResultCache(Database.open(path))
        cached = cache2.get("tiny", tiny_params)
        assert cached is not None
        assert cached.num_caps == 2
