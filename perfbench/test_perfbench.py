"""Tests of the serving benchmark's own helpers (statistics, pace, spans, patching).

Fast and in-memory: they never run a workload, only the pieces every
workload's numbers rest on.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.pace import REFERENCE_MS, WINDOW, Pace, Timing
from perfbench.stats import TAIL_MIN_BEYOND, open_loop_latencies, percentile, summarize, tail_percentile
from perfbench.tracer import REQUEST_SPAN, TARGETS, Tracer, analyze, self_times
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- percentile choice -----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [(100, 90.0), (1000, 99.0), (40, 75.0), (20, 50.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == pytest.approx(expected)


def test_tail_leaves_at_least_ten_samples_beyond_it():
    for count in (20, 37, 100, 333):
        values = [float(i) for i in range(count)]
        summary = summarize(values)
        beyond = sum(value > summary.tail for value in values)
        assert beyond >= TAIL_MIN_BEYOND - 1  # the interpolated point itself may be a sample
        assert sum(value >= summary.tail for value in values) >= TAIL_MIN_BEYOND


def test_small_samples_fall_back_to_the_median():
    assert tail_percentile(5) == 50.0
    summary = summarize([3.0, 1.0, 2.0])
    assert summary.tail == summary.p50 == 2.0 and summary.tail_pct == 50.0


def test_percentile_interpolates_linearly():
    assert percentile([0.0, 10.0], 50) == 5.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 0) == 1.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0


# -- open-loop latency -----------------------------------------------------------


def test_open_loop_latency_counts_from_the_due_time():
    # A stall on the second operation delays the third, which was due at 2.0
    # but could only start at 2.5: its latency includes that wait.
    due = [0.0, 1.0, 2.0]
    completed = [0.2, 2.5, 2.7]
    assert open_loop_latencies(due, completed) == pytest.approx([0.2, 1.5, 0.7])


def test_open_loop_latency_needs_pairs():
    with pytest.raises(ValueError):
        open_loop_latencies([0.0], [])


# -- host pace ---------------------------------------------------------------------


def paced(samples_ms: list[float]) -> Pace:
    pace = Pace()
    pace.samples_ms = list(samples_ms)
    return pace


def test_scale_is_reference_over_the_median_sample():
    pace = paced([REFERENCE_MS * 2] * WINDOW)
    assert pace.scale(0, WINDOW) == pytest.approx(0.5)


def test_scale_widens_a_short_span_to_the_window():
    # One sample inside the span; the window reaches back over the earlier,
    # slower samples and, where there are any, forward over later ones.
    pace = paced([4.0] * WINDOW + [1.0] * WINDOW)
    assert pace.scale(WINDOW, WINDOW + 1) == pytest.approx(REFERENCE_MS / 1.0)
    assert pace.scale(WINDOW - 1, WINDOW) == pytest.approx(REFERENCE_MS / 4.0)
    assert pace.scale(2 * WINDOW - 1, 2 * WINDOW) == pytest.approx(REFERENCE_MS / 1.0)


def test_scale_uses_every_sample_when_there_are_fewer_than_the_window():
    pace = paced([1.0, 2.0, 4.0])
    assert pace.scale(2, 3) == pytest.approx(REFERENCE_MS / 2.0)
    with pytest.raises(ValueError):
        Pace().scale(0, 0)


def test_timed_leaves_out_the_samples_taken_inside():
    pace = Pace()
    with pace.timed() as timing:
        pace.sample(3)
    assert (timing.first, timing.last) == (0, 3)
    assert 0.0 <= timing.cpu_s <= timing.wall_s < pace.spent_s


def test_only_cpu_time_is_scaled():
    pace = paced([REFERENCE_MS * 2] * WINDOW)
    timing = Timing(wall_s=1.0, cpu_s=0.6, first=0, last=WINDOW)
    assert pace.reference_s(timing) == pytest.approx(0.6 * 0.5 + 0.4)


def test_a_sample_restores_the_garbage_collector():
    assert gc.isenabled()
    Pace().sample()
    assert gc.isenabled()
    gc.disable()
    try:
        Pace().sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- spans and self time -----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span(REQUEST_SPAN):          # 0 .. 10
        clock.now = 1.0
        with tracer.span("store.find_one"):  # 1 .. 4
            clock.now = 2.0
            with tracer.span("store.find"):  # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("server.json_encode"):  # 5 .. 7
            clock.now = 7.0
        clock.now = 10.0
    by_name = {span.name: span for span in tracer.spans}
    own = self_times(tracer.spans)
    assert own[by_name[REQUEST_SPAN].sid] == pytest.approx(5.0)
    assert own[by_name["store.find_one"].sid] == pytest.approx(2.0)
    assert own[by_name["store.find"].sid] == pytest.approx(1.0)

    metrics = analyze(tracer.spans)
    assert metrics["server.self_s"] == pytest.approx(5.0 + 2.0)
    assert metrics["store.self_s"] == pytest.approx(3.0)
    assert metrics["store.find_one_s"] == pytest.approx(3.0)
    assert metrics["trace.coverage"] == pytest.approx(0.5)
    assert {span.request for span in tracer.spans} == {1}
    assert by_name["store.find"].parent == by_name["store.find_one"].sid


def test_reentrant_spans_count_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("store.exclusive"):
        clock.now = 1.0
        with tracer.span("store.exclusive"):
            clock.now = 2.0
        clock.now = 4.0
    metrics = analyze(tracer.spans)
    assert metrics["store.exclusive.calls"] == 1
    assert metrics["store.exclusive_s"] == pytest.approx(4.0)
    assert metrics["store.self_s"] == pytest.approx(4.0)


def test_each_root_span_opens_a_new_request():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span(REQUEST_SPAN):
            with tracer.span("store.find"):
                pass
    assert sorted({span.request for span in tracer.spans}) == [1, 2, 3]


# -- patching ----------------------------------------------------------------------


def _repro_bindings() -> dict[tuple[str, str], object]:
    """Every module-level name and class attribute the targets could touch."""
    bindings: dict[tuple[str, str], object] = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.split(".")[0] != "repro":
            continue
        for attr, value in vars(module).items():
            bindings[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    bindings[(f"{name}.{attr}", member)] = raw
    return bindings


def test_every_patched_name_is_restored_after_a_traced_run(tmp_path):
    from repro.data.synthetic import generate_santander
    from repro.server.app import TestClient, create_app
    from repro.store.database import Database

    before = _repro_bindings()
    tracer = Tracer()
    with tracer.installed():
        assert len(tracer._patches) >= len(TARGETS)
        app = create_app(Database.open(tmp_path / "db.json"), job_workers=1)
        try:
            client = TestClient(app)
            with tracer.span(REQUEST_SPAN):
                response = client.get("/api/v1/datasets")
            assert response.status == 200
            dataset = generate_santander(seed=1, neighbourhoods=2, steps=48)
            assert client.upload_dataset(dataset).status == 201
        finally:
            app.close(wait=True)
    after = _repro_bindings()

    changed = sorted(key for key, value in before.items() if after.get(key) is not value)
    assert changed == []
    leftovers = [
        key for key, value in after.items()
        if getattr(getattr(value, "__func__", value), "__module__", None) == "perfbench.tracer"
    ]
    assert leftovers == []
    names = {span.name for span in tracer.spans}
    assert {"server.json_encode", "store.open", "store.exclusive", "store.crc",
            "data.parse", "data.assemble", "jobs.recover"} <= names


def test_install_is_undone_when_the_traced_block_raises():
    from repro.store import wal

    original = wal.crc32c
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert wal.crc32c is not original
            raise RuntimeError("boom")
    assert wal.crc32c is original


def test_installing_twice_is_refused():
    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(RuntimeError):
            tracer.install()


# -- the benchmark description -----------------------------------------------------


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(row) for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
