"""The three serving workloads, driven in-process through the full HTTP stack.

Each workload builds its inputs from the seed, drives
``repro.server.app.create_app`` through ``TestClient`` (routing →
middleware → ``api_v1`` → ``handlers.ServerState``) on a WAL store in a
temporary directory, checks every answer, and returns a :class:`Report`.
Only the generated inputs reach the program.  Every untraced request is
preceded by a host-pace sample (:mod:`perfbench.pace`), and live-ingest
takes more while it waits for each batch's due time; the timed operations
and set-ups leave the samples out and are scaled by them.

Why each workload exists
------------------------
``browse-large``
    The interactive analysis the paper demonstrates (map click, CAP list,
    time-series and heat-map views) on a 144-sensor × 480-step china6
    result of 4,500-5,000 CAPs.  Almost all of its time goes to store
    reads, result decoding, the result cache, viz rendering and JSON
    encoding; it mines and writes almost nothing, so it is where any cost
    that grows with the result size shows.  Closed loop, one client: an
    analyst waits for each reply.
``upload-mine``
    The write side of the same store.  Set-up starts a server on an empty
    store and takes the first upload; the timed operation is then a
    destructive chunked re-upload of the china6-shaped dataset followed by
    three cold synchronous mines (the recommended parameters and two
    neighbours), each checked through its first page.  Set-up and
    operation repeat on a fresh store for the whole run.  Its time goes to
    CSV parsing, validation, the four mining steps, result encoding and
    store insert / WAL journal / checksum / fsync.  Closed loop, one
    client.
``live-ingest``
    Live observations on a Santander-sized city: 6-step batches posted at
    a fixed rate (open loop), each drained by the resident stream job's
    own ``StreamSession.process_epoch`` and read back from the change
    feed, with a periodic retention sweep.  Its time goes to many small
    fsynced writes, incremental re-mining, feed reads and compaction.  Its
    results are small, so a fix to result-size costs predicts no change
    here.

Layer → end-to-end mapping (traced run; see :mod:`perfbench.tracer`)
--------------------------------------------------------------------
* ``server.*`` (requests, failed, self time, response bytes) →
  ``browse_rps``, ``browse_tail_ms`` on browse-large;
  ``server.json_encode_s`` → ``page_p50_ms`` on browse-large.
* ``data.parse_s``, ``data.rows``, ``data.assemble_s`` → ``upload_s`` on
  upload-mine.
* ``core.evolving_s``, ``core.graph_s``, ``core.search_s``, ``core.caps``,
  ``core.result_encode_s`` → ``mine_s`` on upload-mine;
  ``core.result_decode_s``/``core.result_decodes`` → ``result_hit_ms`` on
  browse-large (``ResultCache.get`` decodes the whole result on every
  hit) and ``setup_s``; ``core.stream_extend_s``, ``core.stream_mine_s``,
  ``core.stream_remine_ratio`` → ``ingest_to_feed_p50_ms`` on live-ingest.
* ``cache.*`` → ``result_hit_ms`` on browse-large, ``mine_s`` on
  upload-mine.
* ``store.find_one_s``/``find_one_calls``/``find_s`` → ``page_p50_ms``,
  ``revalidate_p50_ms``, ``click_p50_ms`` on browse-large (each fetches
  the whole result document before the ETag check);
  ``store.insert_s``/``replace_s``/``update_s`` → ``mine_s``,
  ``upload_s`` on upload-mine; ``store.exclusive_s`` and the WAL
  append/fsync counters → ``ingest_to_feed_p50_ms`` and
  ``store_bytes_per_input_byte`` on live-ingest; ``store.crc_s`` →
  ``mine_s`` on upload-mine and ``setup_s`` on browse-large;
  ``store.open_s`` → ``setup_s`` on browse-large.
* ``stream.*`` → ``ingest_to_feed_p50_ms`` on live-ingest;
  ``stream.sweep_s`` → ``ingest_to_feed_tail_ms``.
* ``viz.*`` → ``viz_p50_ms`` on browse-large.
* ``jobs.recover_s`` → ``setup_s`` on browse-large and upload-mine.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Any, Callable

from repro.cache.keys import cache_key
from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.core.types import SensorDataset
from repro.data.csv_io import dataset_to_rows, iter_chunks
from repro.data.datasets import recommended_parameters
from repro.data.schema import LOCATION_COLUMNS
from repro.data.synthetic import generate_china6, generate_santander
from repro.server.app import App, TestClient, create_app
from repro.store.database import Database
import repro.stream as stream_api
from repro.stream import STREAM_STATE, StreamSession
from repro.stream.feed import cap_identity

from .pace import WINDOW, Pace, Timing
from .stats import open_loop_latencies, summarize
from .tracer import REQUEST_SPAN, Tracer, analyze

API = "/api/v1"

#: The china6 city of both large workloads: 144 sensors × 480 hourly steps.
CHINA6_SHAPE = {"grid_rows": 4, "grid_cols": 6, "steps": 480}
#: Both large workloads are defined at this result size: the CAP count of
#: the recommended parameters.  Most seeds land in 4,600-4,800 CAPs, but
#: about one in thirteen draws a city of 5,400-6,600, which makes every
#: result-sized cost that much dearer and, across ten seeds, spreads the
#: timings wider than any bound.  Such a draw is replaced by the next one
#: from the seed (see :func:`china6_city`).
CHINA6_CAPS = (4_500, 5_000)
CHINA6_DRAWS = 20
#: Lines per upload chunk (the client protocol's chunk size).
CHUNK_LINES = 10_000
#: ``browse-large``: page size of the offset pages and the heat-map period.
PAGE_LIMIT = 50
HEATMAP_EVERY = 8
#: Fewest set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"browse-large": 5, "upload-mine": 5, "live-ingest": 5}
#: ``live-ingest``: base length, batch length, offered rate, sweep period
#: and feed horizon.  The rate is about half the capacity measured on a
#: 2-core x86-64 container: saturated, the first 200 batches drained at
#: 8.3 batches/s (service time grows as the timeline does).
LIVE_BASE_STEPS = 336
LIVE_BATCH_STEPS = 6
LIVE_BATCHES_PER_S = 4.0
LIVE_SWEEP_EVERY = 20
#: Pace samples taken while waiting for each batch's due time, and the
#: slack a sample must leave before it (a sample takes 2-4 ms).
LIVE_PACE_SAMPLES = 4
LIVE_PACE_MARGIN_S = 0.02
LIVE_RETENTION_SEQS = 200
LIVE_RULE = {
    "rule_id": "co-move",
    "event_types": ["new", "extended"],
    "levels": [{"min_sensors": 2, "severity": "warning"},
               {"min_sensors": 3, "severity": "critical"}],
}


@dataclass
class Metric:
    value: float
    unit: str
    count: int
    note: str = ""


@dataclass
class Report:
    """What one run measured and checked."""

    workload: str
    seed: int
    shape: dict[str, int] = field(default_factory=dict)
    named: dict[str, Metric] = field(default_factory=dict)
    #: Wall times, less the pace samples taken inside them, and the same
    #: in reference units (see :mod:`perfbench.pace`).
    setup_s: list[float] = field(default_factory=list)
    setup_ref_s: list[float] = field(default_factory=list)
    ops_ms: list[float] = field(default_factory=list)
    ops_ref_ms: list[float] = field(default_factory=list)
    pace_ms: list[float] = field(default_factory=list)
    store_bytes: int = 0
    input_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)

    def add_setup(self, pace: Pace, timing: Timing) -> None:
        self.setup_s.append(timing.wall_s)
        self.setup_ref_s.append(pace.reference_s(timing))

    def add_op(self, pace: Pace, timing: Timing, waited_s: float = 0.0) -> None:
        """One user operation; ``waited_s`` is open-loop time from due to start, not scaled."""
        self.ops_ms.append((waited_s + timing.wall_s) * 1000.0)
        self.ops_ref_ms.append((waited_s + pace.reference_s(timing)) * 1000.0)

    def latency(self, name: str | None, samples_ms: list[float], tail: str | None = None) -> None:
        """Record ``name`` as the median of ``samples_ms`` and ``tail`` as its tail."""
        if not samples_ms:
            self.check(False, f"no samples for {name or tail}")
            return
        summary = summarize(samples_ms)
        if name is not None:
            self.named[name] = Metric(summary.p50, "ms", summary.count, "p50")
        if tail is not None:
            self.named[tail] = Metric(
                summary.tail, "ms", summary.count, f"p{summary.tail_pct:.2f}"
            )


class Caller:
    """One client: every request is timed, its status checked and counted.

    Before each untraced request it takes a pace sample, which the
    workloads' timed spans leave out of their wall time.
    """

    def __init__(self, client: TestClient, report: Report, tracer: Tracer | None = None,
                 pace: Pace | None = None) -> None:
        self.client = client
        self.report = report
        self.tracer = tracer
        self.pace = pace if pace is not None else Pace()
        self.traced = False
        self.latencies: dict[str, list[float]] = defaultdict(list)

    def call(self, kind: str | None, method: str, url: str, expect: int = 200, **kwargs):
        """Send one request; its latency lands in ``latencies[kind]`` when untraced."""
        if not self.traced:
            self.pace.sample()
        started = time.perf_counter()
        if self.traced:
            with self.tracer.span(REQUEST_SPAN):
                response = self.client.request(method, url, **kwargs)
        else:
            response = self.client.request(method, url, **kwargs)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.report.attempted += 1
        ok = response.status == expect
        if not ok:
            self.report.failed += 1
            self.report.failures.append(
                f"{method} {url} -> {response.status} (expected {expect}): "
                f"{response.body[:200]!r}"
            )
        if self.traced:
            self.tracer.count("server.requests")
            self.tracer.count("server.response_bytes", len(response.body))
            if not ok:
                self.tracer.count("server.failed")
        elif kind is not None:
            self.latencies[kind].append(elapsed_ms)
        return response

    def json(self, kind: str | None, method: str, url: str, expect: int = 200, **kwargs):
        response = self.call(kind, method, url, expect, **kwargs)
        if response.status != expect or not response.body:
            return None
        return json.loads(response.body)


# -- shared helpers ------------------------------------------------------------------


@dataclass
class UploadPayload:
    """The three-step chunked upload of one dataset, as a client sends it."""

    name: str
    begin: dict[str, str]
    chunks: list[str]

    @property
    def nbytes(self) -> int:
        head = sum(len(text.encode("utf-8")) for text in self.begin.values())
        return head + sum(len(chunk.encode("utf-8")) for chunk in self.chunks)


def upload_payload(dataset: SensorDataset) -> UploadPayload:
    data_rows, location_rows = dataset_to_rows(dataset)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(LOCATION_COLUMNS)
    for row in location_rows:
        writer.writerow([row.sensor_id, row.attribute, repr(row.lat), repr(row.lon)])
    return UploadPayload(
        name=dataset.name,
        begin={
            "location_csv": buffer.getvalue(),
            "attribute_csv": "\n".join(dataset.attributes) + "\n",
        },
        chunks=list(iter_chunks(data_rows, CHUNK_LINES)),
    )


def upload(caller: Caller, payload: UploadPayload) -> float:
    """Run the chunked upload; returns its wall time in seconds."""
    base = f"{API}/datasets/{payload.name}/upload"
    with caller.pace.timed() as timing:
        caller.call(None, "POST", f"{base}/begin", 201, json_body=payload.begin)
        for chunk in payload.chunks:
            caller.call(None, "POST", f"{base}/chunk", 200, text_body=chunk)
        caller.call(None, "POST", f"{base}/finish", 201)
    return timing.wall_s


def canonical(documents) -> list[str]:
    return [json.dumps(doc, sort_keys=True) for doc in documents]


def direct_caps(dataset: SensorDataset, params: MiningParameters) -> list[dict[str, Any]]:
    """The reference answer: a from-scratch in-process mine."""
    return [cap.to_document() for cap in MiscelaMiner(params).mine(dataset).caps]


def store_bytes(root: Path) -> int:
    return sum(
        (Path(folder) / name).stat().st_size
        for folder, _, names in os.walk(root)
        for name in names
    )


class Workspace:
    """Temporary store directories under the benchmark's output directory."""

    def __init__(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="stores-", dir=out_dir))
        self._count = 0

    def new_store(self) -> Path:
        self._count += 1
        folder = self.root / f"store{self._count}"
        folder.mkdir()
        return folder / "db.json"

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def open_app(path: Path) -> tuple[App, TestClient]:
    app = create_app(Database.open(path), job_workers=1)
    return app, TestClient(app)


def mine_body(params: MiningParameters) -> dict[str, Any]:
    return {"parameters": params.to_document()}


def alternate(traced_mode: bool, index: int) -> bool:
    """In the traced run every other operation is traced, the rest are not."""
    return traced_mode and index % 2 == 1


def finish_trace(report: Report, tracer: Tracer | None, untraced_s: list[float],
                 traced_s: list[float]) -> None:
    """Fold the trace into the report: layer metrics plus tracing overhead."""
    if tracer is None:
        return
    report.layer.update(analyze(tracer.spans))
    report.layer.update(tracer.counters)
    if untraced_s and traced_s:
        plain = statistics.mean(untraced_s)
        report.layer["trace.overhead_s"] = statistics.mean(traced_s) - plain
        report.layer["trace.overhead_ratio"] = (statistics.mean(traced_s) - plain) / plain
    report.spans = [span.to_document() for span in tracer.spans]


# -- browse-large --------------------------------------------------------------------


@dataclass
class BrowseTarget:
    """One served result and the client's reference answers for it."""

    name: str
    key: str
    etag: str
    params: MiningParameters
    sensors: list[str]
    caps: list[str]  # canonical CAP documents in mining order
    by_sensor: dict[str, list[int]]
    correlated: dict[str, dict[str, list[str]]]
    first_sensors: dict[str, list[str]]


def china6_city(seed: int) -> tuple[SensorDataset, list[dict[str, Any]]]:
    """The seed's china6 city and its recommended-parameter CAPs (a direct mine).

    The first draw is ``generate_china6(seed=seed)``; while its CAP count is
    outside :data:`CHINA6_CAPS` the next generator seed comes from
    ``random.Random(seed)``, so one seed always gives the same city.
    """
    params = recommended_parameters("china6")
    draws = random.Random(seed)
    draw = seed
    for _ in range(CHINA6_DRAWS):
        dataset = generate_china6(seed=draw, **CHINA6_SHAPE)
        documents = direct_caps(dataset, params)
        if CHINA6_CAPS[0] <= len(documents) <= CHINA6_CAPS[1]:
            return dataset, documents
        draw = draws.randrange(2**31)
    raise RuntimeError(f"no china6 city of {CHINA6_CAPS} CAPs in {CHINA6_DRAWS} draws from seed {seed}")


def browse_target(dataset: SensorDataset, documents: list[dict[str, Any]]) -> dict[str, Any]:
    """Reference answers for browsing one result, from its direct-mine CAPs."""
    by_sensor: dict[str, list[int]] = defaultdict(list)
    for position, doc in enumerate(documents):
        for sid in doc["sensors"]:
            by_sensor[sid].append(position)
    correlated: dict[str, dict[str, list[str]]] = {}
    first_sensors: dict[str, list[str]] = {}
    for sid in dataset.sensor_ids:
        partners: dict[str, set[str]] = {}
        for position in by_sensor.get(sid, ()):
            for other in documents[position]["sensors"]:
                if other != sid:
                    partners.setdefault(other, set()).update(documents[position]["attributes"])
        correlated[sid] = {other: sorted(attrs) for other, attrs in sorted(partners.items())}
        hits = by_sensor.get(sid)
        first_sensors[sid] = list(documents[hits[0]]["sensors"]) if hits else [sid]
    return {
        "caps": canonical(documents),
        "by_sensor": dict(by_sensor),
        "correlated": correlated,
        "first_sensors": first_sensors,
    }


def build_result_store(path: Path, dataset: SensorDataset, params: MiningParameters,
                       report: Report) -> tuple[str, int]:
    """Upload and mine once into a fresh store, then close it.  Returns (key, CSV bytes)."""
    app, client = open_app(path)
    caller = Caller(client, report)
    try:
        payload = upload_payload(dataset)
        upload(caller, payload)
        created = caller.json(None, "POST", f"{API}/datasets/{dataset.name}/results", 201,
                              json_body=mine_body(params))
    finally:
        app.close(wait=True)
    if created is None:
        raise RuntimeError(f"could not mine {dataset.name}: {report.failures}")
    return created["key"], payload.nbytes


def check_page(report: Report, page: dict | None, expected: list[str], what: str) -> None:
    if page is None:
        return
    report.check(canonical(page["caps"]) == expected, f"{what}: CAPs differ from a direct mine")


def interaction(caller: Caller, target: BrowseTarget, rng: random.Random, index: int) -> None:
    """One analyst interaction: seven requests, plus a heat map every Nth time."""
    report = caller.report
    sid = rng.choice(target.sensors)
    name, key = target.name, target.key
    svg = {"Accept": "image/svg+xml"}

    body = caller.json("click", "GET", f"{API}/datasets/{name}/sensors/{sid}/correlated")
    if body is not None:
        report.check(body["correlated"] == target.correlated[sid], f"correlated({sid}) differs")
    caller.call("viz", "GET", f"{API}/datasets/{name}/viz/map?highlight={sid}", headers=svg)
    positions = target.by_sensor.get(sid, [])[:100]
    page = caller.json("page", "GET", f"{API}/results/{key}/caps?sensor={sid}")
    check_page(report, page, [target.caps[i] for i in positions], f"caps?sensor={sid}")
    sensors = ",".join(target.first_sensors[sid])
    caller.call("viz", "GET", f"{API}/datasets/{name}/viz/timeseries?sensors={sensors}",
                headers=svg)
    offset = rng.randrange(0, max(1, len(target.caps) - PAGE_LIMIT))
    page = caller.json("page", "GET", f"{API}/results/{key}/caps?offset={offset}&limit={PAGE_LIMIT}")
    check_page(report, page, target.caps[offset:offset + PAGE_LIMIT], f"caps@{offset}")
    response = caller.call("revalidate", "GET", f"{API}/results/{key}", 304,
                           headers={"If-None-Match": target.etag})
    report.check(response.body == b"", "a 304 carried a body")
    body = caller.json("result_hit", "POST", f"{API}/datasets/{name}/results", 201,
                       json_body=mine_body(target.params))
    if body is not None:
        report.check(body["from_cache"] is True and body["num_caps"] == len(target.caps),
                     "repeat POST …/results did not resolve onto the cached result")
    # Counted in pairs, so traced and untraced interactions share the heat maps.
    if (index // 2) % HEATMAP_EVERY == 0:
        caller.call("viz", "GET", f"{API}/datasets/{name}/viz/heatmap", headers=svg)


def serve_target(caller: Caller, dataset: SensorDataset, params: MiningParameters,
                 key: str, reference: dict[str, Any]) -> BrowseTarget:
    meta = caller.call(None, "GET", f"{API}/results/{key}")
    return BrowseTarget(
        name=dataset.name, key=key, etag=meta.headers.get("ETag", ""), params=params,
        sensors=list(dataset.sensor_ids), **reference,
    )


def check_all_pages(caller: Caller, target: BrowseTarget) -> None:
    """Concatenated pages must equal the direct mine, CAP for CAP."""
    pages: list[str] = []
    offset = 0
    while True:
        page = caller.json(None, "GET", f"{API}/results/{target.key}/caps?offset={offset}&limit=1000")
        if page is None or not page["caps"]:
            break
        pages += canonical(page["caps"])
        offset += len(page["caps"])
        if offset >= page["total"]:
            break
    caller.report.check(pages == target.caps,
                        f"concatenated pages ({len(pages)} CAPs) differ from a direct mine "
                        f"({len(target.caps)} CAPs)")


def browse_large(seed: int, seconds: float, out_dir: Path, traced: bool) -> Report:
    report = Report("browse-large", seed)
    tracer = Tracer() if traced else None
    dataset, documents = china6_city(seed)
    params = recommended_parameters("china6")
    reference = browse_target(dataset, documents)
    workspace = Workspace(out_dir)
    pace = Pace()
    app: App | None = None
    try:
        path = workspace.new_store()
        if tracer is not None:
            tracer.install()
        key, csv_bytes = build_result_store(path, dataset, params, report)
        report.store_bytes = store_bytes(path.parent)
        report.input_bytes = csv_bytes
        first_page = reference["caps"][:PAGE_LIMIT]
        repeats = 1 if traced else SETUP_REPEATS["browse-large"]
        for _ in range(repeats):
            if app is not None:
                app.close(wait=True)
            # Set-up time: reopen the closed store and serve the first page.
            pace.sample(WINDOW)
            with pace.timed() as timing:
                app, client = open_app(path)
                caller = Caller(client, report, pace=pace)
                page = caller.json(None, "GET", f"{API}/results/{key}/caps?offset=0&limit={PAGE_LIMIT}")
            report.add_setup(pace, timing)
            check_page(report, page, first_page, "first page after reopen")
        if tracer is not None:
            tracer.uninstall()
        caller.tracer = tracer
        target = serve_target(caller, dataset, params, key, reference)
        report.shape = {"sensors": len(dataset.sensor_ids),
                        "timestamps": len(dataset.timeline), "caps": len(target.caps)}

        rng = random.Random(seed)
        plain_s: list[float] = []
        traced_s: list[float] = []
        load_started = time.perf_counter()
        index = 0
        while time.perf_counter() - load_started < seconds:
            trace_this = alternate(traced, index)
            if trace_this:
                caller.traced = True
                with pace.timed() as timing, tracer.installed():
                    interaction(caller, target, rng, index)
                caller.traced = False
                traced_s.append(timing.wall_s)
            else:
                with pace.timed() as timing:
                    interaction(caller, target, rng, index)
                plain_s.append(timing.wall_s)
                report.add_op(pace, timing)
            index += 1
        check_all_pages(caller, target)

        lat = caller.latencies
        requests_ms = [ms for samples in lat.values() for ms in samples]
        report.latency("page_p50_ms", lat["page"])
        report.latency("revalidate_p50_ms", lat["revalidate"])
        report.latency("click_p50_ms", lat["click"])
        report.latency("viz_p50_ms", lat["viz"])
        report.latency("result_hit_ms", lat["result_hit"])
        report.latency(None, requests_ms, tail="browse_tail_ms")
        report.named["browse_rps"] = Metric(
            len(requests_ms) / sum(plain_s), "1/s", len(requests_ms))
        if traced:
            report.named["server.page_size_ratio"] = page_size_ratio(
                workspace, seed, report, statistics.median(lat["page"]))
        report.pace_ms = pace.samples_ms
        finish_trace(report, tracer, plain_s, traced_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if app is not None:
            app.close(wait=True)
        workspace.close()
    return report


def page_size_ratio(workspace: Workspace, seed: int, report: Report,
                    large_page_ms: float) -> Metric:
    """ROADMAP's two-size shape check: large-result ÷ small-result page latency.

    Runs the browse interaction on a Santander-sized result (about 150
    CAPs), untraced, and divides the large result's page median by the
    small one's.
    """
    dataset = generate_santander(seed=seed)
    params = recommended_parameters("santander")
    reference = browse_target(dataset, direct_caps(dataset, params))
    path = workspace.new_store()
    key, _ = build_result_store(path, dataset, params, report)
    app, client = open_app(path)
    try:
        caller = Caller(client, report)
        target = serve_target(caller, dataset, params, key, reference)
        rng = random.Random(seed)
        for index in range(HEATMAP_EVERY * 2):
            interaction(caller, target, rng, index)
    finally:
        app.close(wait=True)
    small = statistics.median(caller.latencies["page"])
    return Metric(large_page_ms / small, "ratio", len(caller.latencies["page"]),
                  f"{len(target.caps)}-CAP page p50 {small:.3f} ms")


# -- upload-mine ---------------------------------------------------------------------


def mine_points() -> list[MiningParameters]:
    """The recommended china6 parameters and two neighbours (min support ∓ 2)."""
    base = recommended_parameters("china6")
    return [base, base.with_updates(min_support=8), base.with_updates(min_support=12)]


def upload_mine(seed: int, seconds: float, out_dir: Path, traced: bool) -> Report:
    report = Report("upload-mine", seed)
    tracer = Tracer() if traced else None
    dataset, documents = china6_city(seed)
    payload = upload_payload(dataset)
    points = mine_points()
    expected = [canonical(documents)] + [canonical(direct_caps(dataset, params))
                                         for params in points[1:]]
    report.shape = {"sensors": len(dataset.sensor_ids), "timestamps": len(dataset.timeline),
                    "caps": len(expected[0])}
    workspace = Workspace(out_dir)
    pace = Pace()
    app: App | None = None
    try:
        uploads_s: list[float] = []
        mines_ms: list[float] = []
        plain_s: list[float] = []
        traced_s: list[float] = []
        cycles = 2 if traced else SETUP_REPEATS["upload-mine"]
        load_started = time.perf_counter()
        index = 0
        # Each cycle is one set-up and one timed operation on a fresh store,
        # so every operation does the same work however many fit in the
        # run: the store grows with each re-upload, and later iterations on
        # one store ran 20-50% slower than the first.
        while time.perf_counter() - load_started < seconds or index < cycles:
            trace_this = alternate(traced, index)
            if app is not None:
                app.close(wait=True)
            if trace_this:
                tracer.install()
            # Set-up time: start a server on an empty store and take the
            # first, non-destructive upload.  The timed upload replaces it.
            path = workspace.new_store()
            pace.sample(WINDOW)
            with pace.timed() as timing:
                app, client = open_app(path)
                caller = Caller(client, report, tracer, pace)
                upload(caller, payload)
            if not trace_this:
                report.add_setup(pace, timing)
            caller.traced = trace_this
            with pace.timed() as timing:
                upload_s = upload(caller, payload)
                for params, caps in zip(points, expected):
                    body = caller.json("mine", "POST", f"{API}/datasets/{dataset.name}/results",
                                       201, json_body=mine_body(params))
                    if body is None:
                        continue
                    report.check(body["from_cache"] is False, "a mine after re-upload hit the cache")
                    report.check(body["num_caps"] == len(caps),
                                 f"num_caps {body['num_caps']} != direct mine {len(caps)}")
                    page = caller.json(None, "GET",
                                       f"{API}/results/{body['key']}/caps?offset=0&limit={PAGE_LIMIT}")
                    check_page(report, page, caps[:PAGE_LIMIT], "first page after a cold mine")
            if trace_this:
                caller.traced = False
                tracer.uninstall()
                traced_s.append(timing.wall_s)
            else:
                plain_s.append(timing.wall_s)
                uploads_s.append(upload_s)
                report.add_op(pace, timing)
            mines_ms += caller.latencies["mine"]
            index += 1
        # The last store holds the set-up upload, the timed one and its results.
        report.store_bytes = store_bytes(path.parent)
        report.input_bytes = 2 * payload.nbytes
        report.named["upload_s"] = Metric(statistics.median(uploads_s), "s", len(uploads_s), "p50")
        report.named["mine_s"] = Metric(statistics.median(mines_ms) / 1000.0, "s", len(mines_ms), "p50")
        report.pace_ms = pace.samples_ms
        finish_trace(report, tracer, plain_s, traced_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if app is not None:
            app.close(wait=True)
        workspace.close()
    return report


# -- live-ingest ---------------------------------------------------------------------


class BatchSource:
    """Batches that continue the generator's own series past the base upload."""

    def __init__(self, full: SensorDataset, base_steps: int, batch_steps: int) -> None:
        self.full = full
        self.base_steps = base_steps
        self.batch_steps = batch_steps

    def base(self) -> SensorDataset:
        return self.prefix(self.base_steps)

    def prefix(self, steps: int) -> SensorDataset:
        end = self.full.timeline[steps - 1] + timedelta(seconds=1)
        return self.full.slice_time(self.full.timeline[0], end, name=self.full.name)

    def batch(self, index: int) -> dict[str, Any]:
        lo = self.base_steps + index * self.batch_steps
        hi = lo + self.batch_steps
        return {
            "timeline": [t.isoformat() for t in self.full.timeline[lo:hi]],
            "series": {
                sid: [None if value != value else float(value)
                      for value in self.full.values(sid)[lo:hi]]
                for sid in self.full.sensor_ids
            },
        }


def live_setup(path: Path, base: SensorDataset, params: MiningParameters,
               report: Report, pace: Pace) -> tuple[App, Caller, StreamSession]:
    """Upload the base city, register a rule, set retention, build the StreamSession."""
    app, client = open_app(path)
    caller = Caller(client, report, pace=pace)
    upload(caller, upload_payload(base))
    name = base.name
    caller.call(None, "POST", f"{API}/datasets/{name}/alert-rules", 201, json_body=LIVE_RULE)
    caller.call(None, "PATCH", f"{API}/datasets/{name}/stream-config", 200,
                json_body={"retention_seqs": LIVE_RETENTION_SEQS})
    resident = StreamSession(app.state.database, app.state.get_dataset(name), params,
                            cache_key(name, params))
    return app, caller, resident


def fold_events(state: dict[tuple, str], events: list[dict[str, Any]]) -> None:
    """Apply feed events to a client's view of the CAP set, keyed by identity."""
    for event in events:
        identity = cap_identity(event["cap"])
        if event["type"] == "retired":
            state.pop(identity, None)
        else:
            state[identity] = json.dumps(event["cap"], sort_keys=True)


def live_ingest(seed: int, seconds: float, out_dir: Path, traced: bool) -> Report:
    report = Report("live-ingest", seed)
    tracer = Tracer() if traced else None
    rate = LIVE_BATCHES_PER_S
    batches = max(2, int(rate * seconds))
    total_steps = LIVE_BASE_STEPS + LIVE_BATCH_STEPS * batches
    full = generate_santander(seed=seed, steps=total_steps)
    source = BatchSource(full, LIVE_BASE_STEPS, LIVE_BATCH_STEPS)
    base = source.base()
    params = recommended_parameters("santander")
    bodies = [source.batch(i) for i in range(batches)]
    workspace = Workspace(out_dir)
    pace = Pace()
    app: App | None = None
    try:
        if tracer is not None:
            tracer.install()
        repeats = 1 if traced else SETUP_REPEATS["live-ingest"]
        for _ in range(repeats):
            if app is not None:
                app.close(wait=True)
            path = workspace.new_store()
            pace.sample(WINDOW)
            with pace.timed() as timing:
                app, caller, resident = live_setup(path, base, params, report, pace)
            report.add_setup(pace, timing)
        if tracer is not None:
            tracer.uninstall()
        caller.tracer = tracer
        database = app.state.database
        name = base.name
        view = {cap_identity(json.loads(doc)): doc for doc in canonical(resident.caps)}
        bytes_before = store_bytes(path.parent)
        sent = 0
        cursor = 0
        due: list[float] = []
        done: list[float] = []
        late_ms: list[float] = []
        plain_s: list[float] = []
        traced_s: list[float] = []
        backlog_max = 0
        start = time.perf_counter() + 0.05
        for index, body in enumerate(bodies):
            when = start + index / rate
            # The wait for the next due time holds the batch's pace samples.
            for _ in range(LIVE_PACE_SAMPLES):
                if time.perf_counter() + LIVE_PACE_MARGIN_S > when:
                    break
                pace.sample()
            now = time.perf_counter()
            if now < when:
                time.sleep(when - now)
                now = time.perf_counter()
            late_ms.append((now - when) * 1000.0)
            backlog_max = max(backlog_max, int((now - start) * rate) + 1 - index)
            trace_this = alternate(traced, index)
            if trace_this:
                tracer.install()
                caller.traced = True
            with pace.timed() as timing:
                encoded = json.dumps(body)
                sent += len(encoded.encode("utf-8"))
                caller.call(None, "POST", f"{API}/datasets/{name}/observations", 202,
                            text_body=encoded, headers={"Content-Type": "application/json"})
                for epoch in resident.pending_epochs():
                    resident.process_epoch(epoch)
                while True:
                    page = caller.json(None, "GET",
                                       f"{API}/datasets/{name}/events?cursor={cursor}&limit=1000")
                    if page is None:
                        break
                    fold_events(view, page["events"])
                    cursor = page["cursor"]
                    if len(page["events"]) < 1000:
                        break
                if (index + 1) % LIVE_SWEEP_EVERY == 0:
                    stream_api.sweep_retention(database)
            if trace_this:
                caller.traced = False
                tracer.uninstall()
                traced_s.append(timing.wall_s)
            else:
                plain_s.append(timing.wall_s)
                due.append(when)
                done.append(now + timing.wall_s)
                report.add_op(pace, timing, now - when)
        report.store_bytes = store_bytes(path.parent) - bytes_before
        report.input_bytes = sent

        expected = canonical(direct_caps(source.prefix(total_steps), params))
        report.check(canonical(resident.caps) == expected,
                     "the stream's CAP state differs from a from-scratch mine of base + batches")
        state = database.collection(STREAM_STATE).find_one({"name": name})
        report.check(state is not None and canonical(state["caps"]) == expected,
                     "the persisted feed state differs from a from-scratch mine")
        expected_view = {cap_identity(json.loads(doc)): doc for doc in expected}
        report.check(view == expected_view,
                     "folding the feed's events does not reproduce a from-scratch mine")
        report.shape = {"sensors": len(full.sensor_ids),
                        "timestamps": total_steps,
                        "caps": len(expected)}

        latencies = [s * 1000.0 for s in open_loop_latencies(due, done)]
        report.latency("ingest_to_feed_p50_ms", latencies, tail="ingest_to_feed_tail_ms")
        report.named["batches_per_s"] = Metric(rate, "1/s", batches, "offered")
        report.named["bench.generator_late_ms"] = Metric(
            max(late_ms), "ms", len(late_ms), "max")
        report.named["stream.backlog_max"] = Metric(backlog_max, "count", batches)
        if tracer is not None:
            tracer.count("stream.backlog_max", backlog_max)
            tracer.count("bench.generator_late_ms", max(late_ms))
        report.pace_ms = pace.samples_ms
        finish_trace(report, tracer, plain_s, traced_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if app is not None:
            app.close(wait=True)
        workspace.close()
    return report


WORKLOADS: dict[str, Callable[[int, float, Path, bool], Report]] = {
    "browse-large": browse_large,
    "upload-mine": upload_mine,
    "live-ingest": live_ingest,
}
