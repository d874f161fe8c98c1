"""The CAP result cache (Section 3.3).

"Before computing CAPs by Miscela, our system searches for CAPs with the
same parameters and the name of the dataset from the database."  This module
implements exactly that: :class:`ResultCache` sits between callers and a
miner, storing :class:`~repro.core.miner.MiningResult` documents in the
``cap_results`` collection of a :class:`~repro.store.Database`, keyed by the
canonical hash of (dataset name, parameters).

``mine_cached`` is the interactive-analysis entry point: a hit replays the
stored result (``from_cache=True``), a miss runs the miner and stores the
outcome.  Statistics (hits/misses/evictions) feed the caching benchmark.

Decoding a stored result back into a :class:`MiningResult` costs time in
proportion to the result, so :meth:`ResultCache.decode` keeps the decoded
objects of recently read results.  A memo entry is used only while the
store still holds the very document object it was decoded from: stored
documents are frozen and every write installs a new object, so a
re-upload, a delete or a write replayed from a peer process can never be
answered with stale CAPs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core.miner import MiningResult, MiscelaMiner
from ..core.parallel import MiningControl
from ..core.parameters import MiningParameters
from ..core.types import SensorDataset
from ..obs.metrics import get_registry
from ..store.database import Database
from .eviction import EvictionPolicy, NoEviction
from .keys import cache_key, canonical_payload

__all__ = ["CacheStats", "ResultCache"]

_COLLECTION = "cap_results"

# Process-wide counters next to the per-instance CacheStats: the stats
# object feeds /admin/stats per cache, these feed the Prometheus scrape.
_HITS = get_registry().counter(
    "repro_cache_hits_total", "Result-cache lookups served from the store."
)
_MISSES = get_registry().counter(
    "repro_cache_misses_total", "Result-cache lookups that found nothing."
)
_EVICTIONS = get_registry().counter(
    "repro_cache_evictions_total", "Cached results evicted by policy."
)
_INVALIDATIONS = get_registry().counter(
    "repro_cache_invalidations_total",
    "Cached results dropped by dataset invalidation.",
)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class ResultCache:
    """Parameter-keyed cache of mining results backed by the document store."""

    #: Decoded results kept by :meth:`decode`; a parameter sweep must not
    #: pin every result in RAM.
    DECODED_CAPACITY = 32

    def __init__(self, database: Database, policy: EvictionPolicy | None = None) -> None:
        self.database = database
        self.policy: EvictionPolicy = policy if policy is not None else NoEviction()
        self.stats = CacheStats()
        # The threaded server and the async job executor hit one cache from
        # several threads; Collection writes are multi-step (id counter,
        # index maintenance), so every store access serializes here.  Mining
        # itself (``mine_cached``'s miss path) runs outside the lock.
        self._lock = threading.RLock()
        # cache key -> (stored document, its decoded result), LRU order.
        self._decoded: OrderedDict[str, tuple[Mapping[str, Any], MiningResult]] = OrderedDict()
        collection = database.collection(_COLLECTION)
        collection.create_index("key", "hash")
        collection.create_index("payload.dataset", "hash")

    # -- raw get/put ----------------------------------------------------------

    def get(self, dataset_name: str, params: MiningParameters) -> MiningResult | None:
        """The cached result for (dataset, params), or None."""
        key = cache_key(dataset_name, params)
        with self._lock:
            if not self.policy.on_hit(key):
                # Policy says expired: drop the stored document too.
                self._delete_key(key)
                self.stats.misses += 1
                _MISSES.inc()
                return None
            document = self.database[_COLLECTION].find_one({"key": key})
            if document is None:
                self.stats.misses += 1
                _MISSES.inc()
                return None
            self.stats.hits += 1
            _HITS.inc()
        return self.decode(document)

    def decode(self, document: Mapping[str, Any]) -> MiningResult:
        """The result stored in one ``cap_results`` document, decoded once.

        The same object is returned while the store keeps that document
        (checked by identity), so callers share it and must not mutate it.
        """
        key = str(document["key"])
        with self._lock:
            entry = self._decoded.get(key)
            if entry is not None and entry[0] is document:
                self._decoded.move_to_end(key)
                return entry[1]
        # Decode outside the lock: it is slow for big results.
        result = MiningResult.from_document(document["result"])
        with self._lock:
            self._decoded[key] = (document, result)
            self._decoded.move_to_end(key)
            while len(self._decoded) > self.DECODED_CAPACITY:
                self._decoded.popitem(last=False)
        return result

    def put(self, result: MiningResult) -> str:
        """Store a mining result; returns its cache key."""
        key = cache_key(result.dataset_name, result.parameters)
        document = {
            "key": key,
            "payload": canonical_payload(result.dataset_name, result.parameters),
            "result": result.to_document(),
        }
        with self._lock:
            collection = self.database[_COLLECTION]
            if collection.replace_one({"key": key}, document) is None:
                collection.insert_one(document)
            for victim in self.policy.on_store(key):
                if victim != key:
                    self._delete_key(victim)
                    self.stats.evictions += 1
                    _EVICTIONS.inc()
        return key

    def delete_key(self, key: str) -> None:
        """Drop one cached result by key (stale-result reconciliation)."""
        with self._lock:
            self._delete_key(key)

    def _delete_key(self, key: str) -> None:
        self.database[_COLLECTION].delete_many({"key": key})
        self.policy.on_evict(key)

    # -- the interactive-analysis entry point ----------------------------------

    def mine_cached(
        self,
        dataset: SensorDataset,
        params: MiningParameters,
        miner_factory: Callable[[MiningParameters], MiscelaMiner] = MiscelaMiner,
        control: MiningControl | None = None,
    ) -> MiningResult:
        """Return cached CAPs when available, otherwise mine and cache.

        Note the cache key uses the *dataset name*, like the paper — callers
        re-uploading different data under the same name must call
        :meth:`invalidate_dataset` first (the upload handler does).

        ``control`` is forwarded to the miner (progress + cooperative
        cancellation, see :class:`~repro.core.parallel.MiningControl`); a
        cancelled run stores nothing.  Only passed along when set, so custom
        ``miner_factory`` objects without the parameter keep working.
        """
        cached = self.get(dataset.name, params)
        if cached is not None:
            return cached
        miner = MiscelaMiner(params) if miner_factory is MiscelaMiner \
            else miner_factory(params)
        result = miner.mine(dataset, control=control) if control is not None \
            else miner.mine(dataset)
        self.put(result)
        return result

    def invalidate_dataset(self, dataset_name: str) -> int:
        """Drop every cached result for one dataset (after re-upload)."""
        with self._lock:
            collection = self.database[_COLLECTION]
            victims = collection.find({"payload.dataset": dataset_name})
            for document in victims:
                self.policy.on_evict(document["key"])
            removed = collection.delete_many({"payload.dataset": dataset_name})
            self.stats.invalidations += removed
            if removed:
                _INVALIDATIONS.inc(amount=removed)
            return removed

    def __len__(self) -> int:
        return len(self.database[_COLLECTION])
