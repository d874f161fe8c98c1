"""Unit tests for the secondary index structures."""

from __future__ import annotations

import pytest

from repro.store.index import HashIndex, SortedIndex


class TestHashIndex:
    def test_insert_lookup(self):
        idx = HashIndex("city")
        idx.insert(1, {"city": "london"})
        idx.insert(2, {"city": "london"})
        idx.insert(3, {"city": "paris"})
        assert idx.lookup("london") == {1, 2}
        assert idx.lookup("tokyo") == set()
        assert len(idx) == 3

    def test_remove(self):
        idx = HashIndex("city")
        idx.insert(1, {"city": "london"})
        idx.remove(1)
        assert idx.lookup("london") == set()
        assert len(idx) == 0
        idx.remove(1)  # idempotent

    def test_missing_field_not_indexed(self):
        idx = HashIndex("city")
        idx.insert(1, {"name": "x"})
        assert idx.uncovered() == {1}

    def test_none_not_indexed(self):
        idx = HashIndex("city")
        idx.insert(1, {"city": None})
        assert idx.uncovered() == {1}

    def test_unhashable_not_indexed(self):
        idx = HashIndex("tags")
        idx.insert(1, {"tags": ["a", "b"]})
        assert idx.uncovered() == {1}
        assert idx.lookup(["a", "b"]) == set()

    def test_uncovered_tracks_unindexable_documents(self):
        idx = HashIndex("tags")
        idx.insert(1, {"tags": ["a"]})
        idx.insert(2, {"tags": None})
        idx.insert(3, {})
        idx.insert(4, {"tags": "a"})
        assert idx.uncovered() == {1, 2, 3}
        idx.remove(2)
        idx.remove(4)
        assert idx.uncovered() == {1, 3}
        idx.uncovered().clear()  # a copy: callers cannot corrupt the index
        assert idx.uncovered() == {1, 3}

    def test_dotted_path(self):
        idx = HashIndex("a.b")
        idx.insert(1, {"a": {"b": 5}})
        assert idx.lookup(5) == {1}

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            HashIndex("")


class TestSortedIndex:
    def _index(self):
        idx = SortedIndex("age")
        for doc_id, age in [(1, 30), (2, 50), (3, 40), (4, 30)]:
            idx.insert(doc_id, {"age": age})
        return idx

    def test_full_range(self):
        assert list(self._index().range()) == [1, 4, 3, 2]

    def test_bounded_range(self):
        idx = self._index()
        assert set(idx.range(30, 40)) == {1, 4, 3}
        assert set(idx.range(31, 50)) == {3, 2}

    def test_exclusive_bounds(self):
        idx = self._index()
        assert set(idx.range(30, 50, include_low=False)) == {3, 2}
        assert set(idx.range(30, 50, include_high=False)) == {1, 4, 3}

    def test_remove(self):
        idx = self._index()
        idx.remove(3)
        assert set(idx.range(30, 50)) == {1, 4, 2}
        assert len(idx) == 3
        idx.remove(3)  # idempotent

    def test_duplicates_supported(self):
        idx = self._index()
        assert set(idx.range(30, 30)) == {1, 4}

    def test_unorderable_skipped(self):
        idx = SortedIndex("v")
        idx.insert(1, {"v": 5})
        idx.insert(2, {"v": "string"})  # int vs str insort -> TypeError path
        assert idx.covers(1)

    def test_missing_field_skipped(self):
        idx = SortedIndex("v")
        idx.insert(1, {"other": 5})
        assert not idx.covers(1)
