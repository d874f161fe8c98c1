"""Embedded document store — the MongoDB substitute (see DESIGN.md).

Bound to a path it runs the crash-safe WAL engine: every
mutation appends one checksummed, fsync'd record to a per-collection
append-only log under ``<path>.wal/`` (see :mod:`repro.store.wal` and the
"Store engine" section of DESIGN.md).
"""

from .aggregate import aggregate
from .collection import Collection
from .compaction import CompactionThread
from .database import Database
from .index import HashIndex, SortedIndex
from .query import QueryError, compile_query, matches
from .wal import crc32c, verify_log

__all__ = [
    "Collection",
    "CompactionThread",
    "Database",
    "HashIndex",
    "QueryError",
    "SortedIndex",
    "aggregate",
    "compile_query",
    "crc32c",
    "matches",
    "verify_log",
]
