"""The benchmark's metrics: what each run reports, and how it is computed.

``END_TO_END`` is what a user of the server sees, reported by every
workload with ``--trace 0``; ``PER_LAYER`` is what the traced run reports.
``BENCHMARK.json`` lists the same names, units and directions.
"""

from __future__ import annotations

import resource
import statistics

from .workloads import Report

#: Reported with ``--trace 0``, by every workload: (name, unit, better).
#:
#: ``p50_ref_ms`` is the median of the workload's user operations: every
#: browse-large interaction (its seven or eight requests); every
#: upload-mine iteration (re-upload, three cold mines, each result's first
#: page); every live-ingest batch, from its due time until its events were
#: read back.  Per-request latencies of one browse run are bimodal
#: (requests that pay a full garbage collection and those that do not), so
#: a median pooled over request kinds jumps between the modes from run to
#: run; an interaction sums its requests and does not.
#: ``setup_s`` is the median of the workload's set-ups.  Both are in
#: reference units: each operation's and set-up's wall time scaled by the
#: host pace measured next to it (see :mod:`perfbench.pace`), because the
#: shared host's own speed drifts by more than any bound within minutes.
#: Their wall-clock medians are printed as ``wall_p50_ms`` and
#: ``wall_setup_s``, and the pace samples' median as ``pace_ms``.
#: ``store_bytes_per_input_byte`` is WAL bytes on disk over the CSV or JSON
#: bytes sent (live-ingest: the growth while ingesting).
#:
#: The per-workload names of these (``page_p50_ms``,
#: ``upload_s``, ``ingest_to_feed_p50_ms``, ...) and the tails
#: (``browse_tail_ms``, ``ingest_to_feed_tail_ms``) are printed as
#: ``metric`` lines, in wall time.  Tails are not listed here: over ten
#: runs on a 2-core VM the live-ingest tail spread 0.14-0.23 of its
#: median, too close to the largest bound allowed (0.25) to gate on.
#: Operations per second are not listed either: one closed-loop client's
#: rate is the inverse of its mean latency, and live-ingest's is the
#: offered rate; ``browse_rps`` is printed as a ``metric`` line.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("p50_ref_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("store_bytes_per_input_byte", "ratio", "lower"),
)

#: Reported with ``--trace 1``, by every workload: (name, unit, better, source).
#: ``source`` is the key in the span analysis or the tracer's counters.
#: Times listed here are nonzero on every workload; the layer times only
#: one workload exercises are printed as ``layer`` lines but not listed.
PER_LAYER = (
    ("server.requests", "count", "higher", "server.requests"),
    ("server.failed", "count", "lower", "server.failed"),
    ("server.self_s", "s", "lower", "server.self_s"),
    ("server.response_bytes", "bytes", "lower", "server.response_bytes"),
    ("server.json_encode_s", "s", "lower", "server.json_encode_s"),
    ("data.parse_s", "s", "lower", "data.parse_s"),
    ("data.rows", "count", "higher", "data.rows"),
    ("data.assemble_s", "s", "lower", "data.assemble_s"),
    ("core.graph_s", "s", "lower", "core.graph_s"),
    ("core.search_s", "s", "lower", "core.search_s"),
    ("core.caps", "count", "higher", "core.caps"),
    ("core.result_decodes", "count", "lower", "core.result_decode.calls"),
    ("core.stream_remine_ratio", "ratio", "lower", None),
    ("cache.hits", "count", "higher", "cache.hits"),
    ("cache.misses", "count", "lower", "cache.misses"),
    ("cache.hit_ratio", "ratio", "higher", None),
    ("store.find_one_s", "s", "lower", "store.find_one_s"),
    ("store.find_one_calls", "count", "lower", "store.find_one.calls"),
    ("store.find_s", "s", "lower", "store.find_s"),
    ("store.insert_s", "s", "lower", "store.insert_s"),
    ("store.insert_calls", "count", "lower", "store.insert.calls"),
    ("store.replace_calls", "count", "lower", "store.replace.calls"),
    ("store.update_calls", "count", "lower", "store.update.calls"),
    ("store.exclusive_s", "s", "lower", "store.exclusive_s"),
    ("store.exclusive_sections", "count", "lower", "store.exclusive.calls"),
    ("store.wal_appends", "count", "lower", "store.wal_append.calls"),
    ("store.wal_append_bytes", "bytes", "lower", "store.wal_append_bytes"),
    ("store.wal_fsyncs", "count", "lower", "store.wal_fsyncs"),
    ("store.wal_fsync_s", "s", "lower", "store.wal_sync_s"),
    ("store.crc_s", "s", "lower", "store.crc_s"),
    ("store.crc_bytes", "bytes", "lower", "store.crc_bytes"),
    ("store.open_s", "s", "lower", "store.open_s"),
    ("stream.events", "count", "higher", "stream.events"),
    ("stream.sweeps", "count", "lower", "stream.sweep.calls"),
    ("stream.backlog_max", "count", "lower", "stream.backlog_max"),
    ("viz.svg_bytes", "bytes", "lower", "viz.svg_bytes"),
    ("jobs.recover_s", "s", "lower", "jobs.recover_s"),
    ("trace.coverage", "ratio", "higher", "trace.coverage"),
    ("trace.overhead_ratio", "ratio", "lower", "trace.overhead_ratio"),
)

#: Printed as ``layer`` lines on every traced run (zero where the workload
#: does not reach the layer), in addition to :data:`PER_LAYER`.
LAYER_DETAIL = (
    ("core.evolving_s", "s", "lower", "core.evolving_s"),
    ("core.result_encode_s", "s", "lower", "core.result_encode_s"),
    ("core.result_decode_s", "s", "lower", "core.result_decode_s"),
    ("core.stream_extend_s", "s", "lower", "core.stream_extend_s"),
    ("core.stream_mine_s", "s", "lower", "core.stream_mine_s"),
    ("cache.get_s", "s", "lower", "cache.get_s"),
    ("cache.put_s", "s", "lower", "cache.put_s"),
    ("store.replace_s", "s", "lower", "store.replace_s"),
    ("store.update_s", "s", "lower", "store.update_s"),
    ("stream.append_s", "s", "lower", "stream.append_s"),
    ("stream.process_self_s", "s", "lower", "stream.process.self_s"),
    ("stream.diff_s", "s", "lower", "stream.diff_s"),
    ("stream.alerts_s", "s", "lower", "stream.alerts_s"),
    ("stream.read_events_s", "s", "lower", "stream.read_events_s"),
    ("stream.sweep_s", "s", "lower", "stream.sweep_s"),
    ("bench.generator_late_ms", "ms", "lower", "bench.generator_late_ms"),
    ("viz.map_s", "s", "lower", "viz.map_s"),
    ("viz.timeseries_s", "s", "lower", "viz.timeseries_s"),
    ("viz.heatmap_s", "s", "lower", "viz.heatmap_s"),
    ("viz.svg_encode_s", "s", "lower", "viz.svg_encode_s"),
    ("trace.overhead_s", "s", "lower", "trace.overhead_s"),
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(report: Report) -> dict[str, float]:
    return {
        "setup_s": statistics.median(report.setup_ref_s),
        "p50_ref_ms": statistics.median(report.ops_ref_ms),
        "peak_rss_mb": peak_rss_mb(),
        "store_bytes_per_input_byte": report.store_bytes / report.input_bytes,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(report: Report, rows=PER_LAYER) -> dict[str, float]:
    layer = report.layer
    derived = {
        "core.stream_remine_ratio": _ratio(layer.get("core.stream_remines", 0),
                                           layer.get("core.stream_epochs", 0)),
        "cache.hit_ratio": _ratio(layer.get("cache.hits", 0),
                                  layer.get("cache.hits", 0) + layer.get("cache.misses", 0)),
    }
    return {
        name: derived[name] if source is None else float(layer.get(source, 0.0))
        for name, _, _, source in rows
    }
