"""Write-ahead log primitives: checksummed records, torn-tail recovery.

The WAL-backed store engine journals every mutation of a collection as one
*record* in a per-collection append-only log::

    <length: u32 LE> <crc32c(payload): u32 LE> <payload: UTF-8 JSON>

Appends go through an ``O_APPEND`` fd and are fsync'd before the writing
critical section releases its lock, so an acknowledged transition is on
disk.  Replay walks records from the front and stops at the first bad
length, short payload, checksum mismatch, or unparseable JSON — everything
before that point is exactly the prefix of successfully appended records;
everything after is a *torn tail* (a crash landed mid-append) and is
truncated by recovery, after quarantining the bytes for post-mortems.

The checksum is CRC-32C (Castagnoli) — the polynomial storage engines and
wire protocols (ext4, iSCSI, leveldb) use.  ``zlib.crc32`` computes a
different CRC (CRC-32/ISO-HDLC, polynomial 0x04C11DB7) and is deliberately
not used: record checksums are a format commitment, not a convenience, and
no C CRC-32C module ships with the toolchain this repo depends on.
:func:`crc32c` runs the byte-table loop for short payloads and a striped
numpy kernel for long ones; both produce the same bits.

Fault injection mirrors ``repro.jobs.durable``: ``REPRO_STORE_FAULT``
names a crash point (:data:`FAULT_POINTS`) and the process hard-exits
(``os._exit``) there, exactly like ``kill -9`` landing mid-write.  The
spec grammar is ``<point>[@<collection>][:<nth>]`` — e.g.
``mid-append@jobs:2`` kills the process halfway through the second append
to the ``jobs`` collection's log.
"""

from __future__ import annotations

import json
import os
import struct
import time
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..obs.metrics import get_registry

__all__ = [
    "FAULT_ENV",
    "FAULT_EXIT_CODE",
    "FAULT_POINTS",
    "CollectionLog",
    "crc32c",
    "decode_records",
    "encode_record",
    "maybe_fault",
    "verify_log",
]

#: Environment variable naming the store crash point to hard-exit at.
FAULT_ENV = "REPRO_STORE_FAULT"

#: Supported crash points, in write-path order.
FAULT_POINTS = (
    "mid-append",           # half a record written; the tail is torn
    "pre-fsync",            # record written, fsync never issued
    "mid-compaction-swap",  # new segment written; old log never replaced
)

#: Exit status for store fault exits (jobs faults use 70; keep them apart).
FAULT_EXIT_CODE = 71

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size

#: Sanity bound on one record; a corrupt length field must not trigger a
#: gigabyte allocation during replay.
MAX_RECORD_BYTES = 256 * 1024 * 1024

# WAL write-path metrics, labelled by collection.  One perf_counter pair
# per append/fsync — noise next to the write(2)/fsync(2) they bracket.
_APPEND_SECONDS = get_registry().histogram(
    "repro_wal_append_seconds",
    "Latency of one WAL record append (write(2) only, not fsync).",
    ("collection",),
)
_FSYNC_SECONDS = get_registry().histogram(
    "repro_wal_fsync_seconds",
    "Latency of one WAL fsync barrier.",
    ("collection",),
)


# -- CRC-32C (Castagnoli) ----------------------------------------------------------

_CRC32C_POLY = 0x82F63B78  # reversed 0x1EDC6F41


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _build_table()
_CRC32C_VECTOR = np.array(_CRC32C_TABLE, dtype=np.uint32)

#: Payloads shorter than this take the byte loop; below ~2 KB its per-byte
#: cost undercuts the striped kernel's fixed numpy call overhead.
_STRIPED_MIN_BYTES = 2048
#: Bytes per stripe: the striped kernel runs this many vector steps per block.
_STRIPE_BYTES = 32
#: The striped kernel works through a payload in blocks of this size, which
#: bounds its temporaries (and keeps its register vector cache-resident).
_BLOCK_BYTES = 1 << 20


def _crc32c_bytewise(data: bytes | memoryview, crc: int) -> int:
    """The table-driven byte loop: raw register in, raw register out."""
    table = _CRC32C_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


def _advance(tables: np.ndarray, crc: np.ndarray) -> np.ndarray:
    """Apply a zero-advance operator (4x256 tables) to raw registers."""
    return (
        tables[0][crc & 0xFF]
        ^ tables[1][(crc >> 8) & 0xFF]
        ^ tables[2][(crc >> 16) & 0xFF]
        ^ tables[3][crc >> 24]
    )


def _build_zero_operators(count: int) -> list[np.ndarray]:
    """``ops[m]`` advances a raw register over ``2**m`` zero bytes.

    The advance is linear over GF(2), so it is fixed by the images of the
    32 single-bit registers; each operator is stored as four 256-entry
    tables (one per register byte) and the next one is its square.
    """
    basis = np.left_shift(np.uint32(1), np.arange(32, dtype=np.uint32))
    byte_bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
    images = _CRC32C_VECTOR[basis & 0xFF] ^ (basis >> 8)  # one zero byte
    operators = []
    for _ in range(count):
        columns = images.reshape(4, 1, 8)
        tables = np.bitwise_xor.reduce(
            np.where(byte_bits, columns, np.uint32(0)), axis=2
        )
        operators.append(tables)
        images = _advance(tables, _advance(tables, basis))
    return operators


# The widest fold joins two half blocks: advances up to _BLOCK_BYTES / 2.
_ZERO_OPERATORS = _build_zero_operators(_BLOCK_BYTES.bit_length() - 1)
_STRIPE_LEVEL = _STRIPE_BYTES.bit_length() - 1  # ops index of one stripe


def _crc32c_striped(block: memoryview, crc: int) -> int:
    """Raw-register CRC of ``block`` (at least one stripe long).

    The block's whole stripes run the byte-table step side by side as one
    ``uint32`` vector, every stripe starting from a zero register; the
    incoming register is XORed into the first four data bytes instead,
    which is the same thing for a reflected CRC.  Stripe registers then
    fold pairwise (``left`` advanced over ``right``'s length, XOR
    ``right``); zero registers padded in front stand for leading zero
    bytes, which leave a zero register unchanged.  The byte loop finishes
    the tail shorter than a stripe.
    """
    stripes = len(block) // _STRIPE_BYTES
    body = np.frombuffer(block, dtype=np.uint8, count=stripes * _STRIPE_BYTES)
    columns = body.reshape(stripes, _STRIPE_BYTES).T.copy()
    columns[:4, 0] ^= np.frombuffer(crc.to_bytes(4, "little"), dtype=np.uint8)
    registers = np.zeros(stripes, dtype="<u4")
    low_bytes = registers.view(np.uint8)[::4]
    index = np.empty(stripes, dtype=np.uint8)
    looked_up = np.empty(stripes, dtype="<u4")
    for column in columns:
        np.bitwise_xor(low_bytes, column, out=index)
        np.take(_CRC32C_VECTOR, index, out=looked_up)
        np.right_shift(registers, 8, out=registers)
        np.bitwise_xor(registers, looked_up, out=registers)
    width = 1 << (stripes - 1).bit_length()
    if width != stripes:
        registers = np.concatenate(
            (np.zeros(width - stripes, dtype=registers.dtype), registers)
        )
    level = _STRIPE_LEVEL
    while len(registers) > 1:
        registers = _advance(_ZERO_OPERATORS[level], registers[0::2]) ^ registers[1::2]
        level += 1
    return _crc32c_bytewise(block[stripes * _STRIPE_BYTES:], int(registers[0]))


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data`` (optionally continuing from a prior value)."""
    crc ^= 0xFFFFFFFF
    if len(data) < _STRIPED_MIN_BYTES:
        return _crc32c_bytewise(data, crc) ^ 0xFFFFFFFF
    view = memoryview(data)
    for start in range(0, len(view), _BLOCK_BYTES):
        block = view[start:start + _BLOCK_BYTES]
        if len(block) < _STRIPED_MIN_BYTES:
            crc = _crc32c_bytewise(block, crc)
        else:
            crc = _crc32c_striped(block, crc)
    return crc ^ 0xFFFFFFFF


# -- fault injection --------------------------------------------------------------

_fault_hits: dict[str, int] = {}


def _fault_spec() -> tuple[str, str | None, int] | None:
    """Parse ``REPRO_STORE_FAULT`` into (point, collection, nth)."""
    raw = os.environ.get(FAULT_ENV)
    if not raw:
        return None
    point, _, nth_part = raw.partition(":")
    point, _, scope = point.partition("@")
    try:
        nth = int(nth_part) if nth_part else 1
    except ValueError:
        nth = 1
    return point, (scope or None), nth


def fault_armed(point: str, collection: str | None = None) -> bool:
    """True when this call is the configured crash occurrence.

    Counts matching hits so ``:<nth>`` specs can skip past setup writes
    (index creation on a fresh store appends records too).
    """
    spec = _fault_spec()
    if spec is None:
        return False
    want_point, want_scope, nth = spec
    if want_point != point:
        return False
    if want_scope is not None and collection is not None and want_scope != collection:
        return False
    key = f"{want_point}@{want_scope or '*'}"
    _fault_hits[key] = _fault_hits.get(key, 0) + 1
    return _fault_hits[key] == nth


def maybe_fault(point: str, collection: str | None = None) -> None:
    """Hard-exit at an armed crash point — a ``kill -9`` landing here."""
    if fault_armed(point, collection):
        os._exit(FAULT_EXIT_CODE)


# -- record codec -----------------------------------------------------------------


def encode_record(record: Mapping[str, Any]) -> bytes:
    """One length-prefixed, checksummed record: header + JSON payload."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), crc32c(payload)) + payload


def decode_records(
    buffer: bytes, start: int = 0
) -> tuple[list[dict[str, Any]], int, bool]:
    """Replay records from ``buffer[start:]``.

    Returns ``(records, valid_end, torn)``: the decoded records, the byte
    offset just past the last valid record, and whether trailing bytes
    were rejected (short header/payload, bad length, checksum mismatch,
    or undecodable JSON).  Recovery truncates the file to ``valid_end``;
    readers racing a live writer simply retry from it later — an
    in-flight append looks exactly like a torn tail until it completes.
    """
    records: list[dict[str, Any]] = []
    offset = start
    end = len(buffer)
    while True:
        if offset + HEADER_SIZE > end:
            break
        length, checksum = _HEADER.unpack_from(buffer, offset)
        if length > MAX_RECORD_BYTES:
            break
        body_end = offset + HEADER_SIZE + length
        if body_end > end:
            break
        payload = buffer[offset + HEADER_SIZE:body_end]
        if crc32c(payload) != checksum:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = body_end
    return records, offset, offset < end


def verify_log(path: str | Path) -> dict[str, Any]:
    """Offline checksum walk of one log file (``repro store verify``)."""
    data = Path(path).read_bytes()
    records, valid_end, torn = decode_records(data)
    return {
        "path": str(path),
        "records": len(records),
        "total_bytes": len(data),
        "valid_bytes": valid_end,
        "torn_bytes": len(data) - valid_end,
        "torn": torn,
    }


# -- one collection's log ---------------------------------------------------------


class CollectionLog:
    """The append fd + replay cursor for one collection's log file.

    The owning :class:`~repro.store.database.Database` serializes access:
    appends and truncation happen only inside its cross-process exclusive
    section; tail reads may race a live writer and must treat a torn tail
    as "not yet readable" rather than corruption (see
    :func:`decode_records`).
    """

    def __init__(self, collection_name: str, path: Path) -> None:
        self.collection_name = collection_name
        self.path = Path(path)
        self._fd: int | None = None
        #: Bytes of this file already applied to the in-memory collection.
        self.applied_offset = 0
        #: Records seen (replayed + appended) since open/rebuild — the
        #: compaction trigger compares this against the live document count.
        self.records = 0
        self.compactions = 0
        self.dirty = False
        self._open_fd()

    def _open_fd(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )

    @property
    def fd(self) -> int:
        assert self._fd is not None
        return self._fd

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- identity / size -------------------------------------------------------

    def stat(self) -> os.stat_result | None:
        try:
            return os.stat(self.path)
        except FileNotFoundError:
            return None

    def inode_changed(self, stat: os.stat_result) -> bool:
        """True when ``path`` now names a different file than our fd (a
        peer's compaction swapped a fresh segment in)."""
        return stat.st_ino != os.fstat(self.fd).st_ino

    def reopen(self) -> None:
        """Re-point at the current file and reset the replay cursor."""
        self.close()
        self._open_fd()
        self.applied_offset = 0
        self.records = 0
        self.dirty = False

    def adopt_segment(self, size: int, records: int) -> None:
        """Switch to a freshly written compacted segment of known content.

        The writer just produced the segment from the in-memory state, so
        nothing needs replaying — the cursor jumps straight to its end.
        """
        self.close()
        self._open_fd()
        self.applied_offset = size
        self.records = records
        self.compactions += 1
        self.dirty = False

    # -- writes ----------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> int:
        """Append one record; returns its encoded size.

        The write is a single ``O_APPEND`` ``write(2)``; durability comes
        from :meth:`sync` before the exclusive section releases.  The
        ``mid-append`` crash point writes *half* the record and dies —
        producing the torn tail recovery must truncate.
        """
        data = encode_record(record)
        if fault_armed("mid-append", self.collection_name):
            os.write(self.fd, data[: max(1, len(data) // 2)])
            os._exit(FAULT_EXIT_CODE)
        started = time.perf_counter()
        os.write(self.fd, data)
        _APPEND_SECONDS.observe(
            time.perf_counter() - started, self.collection_name
        )
        self.applied_offset += len(data)
        self.records += 1
        self.dirty = True
        return len(data)

    def sync(self) -> None:
        """fsync pending appends (the ``pre-fsync`` crash point)."""
        if not self.dirty:
            return
        maybe_fault("pre-fsync", self.collection_name)
        started = time.perf_counter()
        os.fsync(self.fd)
        _FSYNC_SECONDS.observe(
            time.perf_counter() - started, self.collection_name
        )
        self.dirty = False

    def truncate_to(self, offset: int) -> None:
        """Drop a torn tail (exclusive section only — no live writers)."""
        os.ftruncate(self.fd, offset)
        self.applied_offset = min(self.applied_offset, offset)

    # -- reads -----------------------------------------------------------------

    def read_tail(self, size: int) -> tuple[list[dict[str, Any]], int, bool]:
        """Decode records between the replay cursor and ``size``.

        Returns ``(records, valid_end, torn)``; the caller advances
        ``applied_offset`` after applying the records.
        """
        length = size - self.applied_offset
        if length <= 0:
            return [], self.applied_offset, False
        data = os.pread(self.fd, length, self.applied_offset)
        records, end, torn = decode_records(data)
        return records, self.applied_offset + end, torn
