"""WAL store engine — per-transition overhead, compaction cost, checksum speed.

The ISSUE-6 claim in numbers: PR 5's durability rode snapshot-per-write —
every persisted transition re-serialized the *whole* database (7–11 ms per
job in ``BENCH_durable_jobs.json``, degrading linearly with store size).
The WAL engine appends one checksummed, fsync'd record instead, so a
transition costs the record — not the world:

* **per-transition overhead** — one indexed ``update_one`` on a store
  preloaded with a realistic document population, measured on an
  in-memory database (floor), the WAL engine (append + fsync), and an
  in-memory database that ``save()``s the whole JSON snapshot after every
  mutation (PR 5's snapshot-per-write durable semantics);
* **compaction cost vs log length** — ``compact_collection`` on logs of
  growing record counts: the price of folding history back to live state,
  and the bytes it reclaims;
* **checksum throughput** — MB/s of the record checksum ``crc32c`` against
  its byte-table loop at 1 KB / 64 KB / 1 MB payloads.  Result documents
  run to megabytes, and every append and every reopen checksums them.

Numbers land in ``BENCH_wal_store.json`` (CI's bench lane uploads it).
The acceptance bars are explicit: WAL per-transition cost must undercut
snapshot-per-write's by ≥10x, or the engine rewrite bought nothing; and
``crc32c`` must run ≥5x its byte loop at 1 MB, or the striped kernel
bought nothing.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.store import wal
from repro.store.database import Database

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_wal_store.json"

#: Documents already in the store when transitions are measured — the
#: snapshot-per-write cost scales with this; the WAL engine's must not.
PRELOAD_DOCS = 300
TRANSITIONS = 120
COMPACTION_LOG_LENGTHS = (200, 800, 3200)

#: The engine rewrite's reason to exist (ISSUE-6 acceptance criterion).
MIN_COLLAPSE_X = 10.0

CHECKSUM_SIZES = (1 << 10, 1 << 16, 1 << 20)
#: The striped checksum kernel's reason to exist, at the largest size.
MIN_CHECKSUM_SPEEDUP_X = 5.0


def _preload(database: Database):
    jobs = database["jobs"]
    jobs.create_index("job_id", "hash")
    for index in range(PRELOAD_DOCS):
        jobs.insert_one({
            "job_id": f"seed-{index}",
            "state": "succeeded",
            "payload": {
                "dataset": "santander",
                "params": {"min_support": 5, "distance_threshold": 500.0},
            },
            "progress": 1.0,
        })
    return jobs


def _transition_ms(jobs, save=None) -> float:
    start = time.perf_counter()
    for index in range(TRANSITIONS):
        jobs.update_one({"job_id": f"seed-{index}"}, {"state": "running"})
        if save is not None:
            save()
    return (time.perf_counter() - start) / TRANSITIONS * 1000.0


def _byte_loop(payload: bytes) -> int:
    return wal._crc32c_bytewise(payload, 0xFFFFFFFF) ^ 0xFFFFFFFF


def _mb_per_s(checksums, payload: bytes) -> list[float]:
    """Throughput of each checksum, best of five rounds.  The rounds
    alternate between the checksums, so drift in the host's pace
    reaches all of them alike."""
    repeats = max(1, (8 << 20) // len(payload) // 64)
    best = [float("inf")] * len(checksums)
    for _ in range(5):
        for slot, checksum in enumerate(checksums):
            start = time.perf_counter()
            for _ in range(repeats):
                checksum(payload)
            best[slot] = min(best[slot], (time.perf_counter() - start) / repeats)
    return [len(payload) / seconds / 1e6 for seconds in best]


def _checksum_rows() -> list[dict]:
    rows = []
    for size in CHECKSUM_SIZES:
        payload = os.urandom(size)
        assert wal.crc32c(payload) == _byte_loop(payload)
        kernel, scalar = _mb_per_s((wal.crc32c, _byte_loop), payload)
        rows.append({
            "payload_bytes": size,
            "crc32c_mb_per_s": round(kernel, 2),
            "byte_loop_mb_per_s": round(scalar, 2),
            "speedup_x": round(kernel / scalar, 2),
        })
    return rows


def test_wal_transition_collapse_and_compaction(tmp_path):
    memory_jobs = _preload(Database())
    memory_ms = _transition_ms(memory_jobs)

    snapshot_db = Database()
    snapshot_jobs = _preload(snapshot_db)
    snapshot_db.save(tmp_path / "snap.json")
    # PR 5 semantics: every persisted transition rewrites the snapshot.
    snapshot_ms = _transition_ms(snapshot_jobs, save=snapshot_db.save)

    wal_db = Database(tmp_path / "wal.json")
    wal_jobs = _preload(wal_db)
    wal_ms = _transition_ms(wal_jobs)

    collapse_x = snapshot_ms / wal_ms
    rows = [
        {"engine": "memory (no durability)", "ms_per_transition": round(memory_ms, 4)},
        {"engine": "wal (append + fsync)", "ms_per_transition": round(wal_ms, 4)},
        {"engine": "memory + snapshot save per write", "ms_per_transition": round(snapshot_ms, 4)},
    ]
    print_table(f"store transition cost ({PRELOAD_DOCS} preloaded docs)", rows)
    print(f"  snapshot/wal collapse: {collapse_x:.1f}x "
          f"(acceptance bar: >= {MIN_COLLAPSE_X:.0f}x)")

    # Durability must cost more than memory, and the WAL must collapse the
    # snapshot-per-write price by at least the ISSUE-6 bar.
    assert wal_ms > memory_ms
    assert collapse_x >= MIN_COLLAPSE_X

    # -- compaction cost vs log length ----------------------------------------
    compaction_rows = []
    for length in COMPACTION_LOG_LENGTHS:
        database = Database(tmp_path / f"compact-{length}.json")
        collection = database["jobs"]
        doc_id = collection.insert_one({"state": "queued"})
        for index in range(length - 1):
            collection.update_one({"_id": doc_id}, {"state": f"step-{index}"})
        live_state = collection.find()

        start = time.perf_counter()
        result = database.compact_collection("jobs")
        compact_ms = (time.perf_counter() - start) * 1000.0

        assert result["compacted"]
        assert collection.find() == live_state  # folding history is lossless
        reopened = Database(tmp_path / f"compact-{length}.json")
        assert reopened["jobs"].find() == live_state

        compaction_rows.append({
            "log_records": length,
            "compact_ms": round(compact_ms, 3),
            "before_bytes": result["before_bytes"],
            "after_bytes": result["after_bytes"],
        })
    print_table("compaction cost vs log length", compaction_rows)

    # -- checksum throughput --------------------------------------------------
    checksum_rows = _checksum_rows()
    print_table("record checksum throughput", checksum_rows)
    assert checksum_rows[-1]["speedup_x"] >= MIN_CHECKSUM_SPEEDUP_X

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_wal_store",
        "machine": machine_info(),
        "timed_region": "document transitions per engine + compaction + checksum throughput",
        "preloaded_documents": PRELOAD_DOCS,
        "transitions": TRANSITIONS,
        "memory_ms_per_transition": memory_ms,
        "wal_ms_per_transition": wal_ms,
        "snapshot_ms_per_transition": snapshot_ms,
        "snapshot_over_wal_collapse_x": collapse_x,
        "compaction": compaction_rows,
        "checksum": checksum_rows,
    }, indent=2) + "\n")
