"""Async job queue — submit latency and poll responsiveness under load.

PR 2 made one mining run saturate the machine; this subsystem (ISSUE 3)
keeps the *serving tier* responsive while that happens.  The bench drives
the real API app in-process and measures the two latencies the async
redesign is about:

* **submit → 202**: how long ``POST /api/v1/datasets/{name}/results`` with
  ``mode=async`` takes to hand back a job id (the sync path holds the
  connection for the whole mine);
* **poll under load**: how long ``GET /api/v1/jobs/{id}`` and
  ``GET /api/v1/admin/stats`` take *while the background executor is
  mining* — the "interactive map stays live" guarantee, quantified.

It also asserts the parity acceptance criterion: the CAP pages of the
finished job's result are byte-identical to those of a fresh sync mine of
the same (dataset, parameters).  Results land in
``BENCH_async_server.json`` at the repository root (CI's bench lane
uploads it).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.server.app import TestClient, create_app

from .bench_parallel_mining import bench_params, make_multi_component_dataset
from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_async_server.json"

#: Generous ceilings — the point is "milliseconds, not the whole mine", and
#: shared CI runners are noisy.  A poll that takes longer than this while a
#: mine runs means the serving tier is blocked, which is the regression
#: this bench exists to catch.
SUBMIT_CEILING_S = 2.0
POLL_CEILING_S = 2.0
TIMEOUT_S = 300.0


def _all_caps_pages(client: TestClient, key: str) -> bytes:
    """Every CAP page of one result, fetched in order and joined."""
    body, offset = b"", 0
    while True:
        page = client.get(f"/api/v1/results/{key}/caps?offset={offset}&limit=1000")
        assert page.status == 200, page.json()
        body += page.body
        offset += 1000
        if offset >= page.json()["total"]:
            return body


def _poll_ms(client: TestClient, path: str) -> float:
    start = time.perf_counter()
    response = client.get(path)
    elapsed = (time.perf_counter() - start) * 1000.0
    assert response.status == 200, response.json()
    return elapsed


def test_async_submit_and_poll_latency():
    # The PR 2 bench's multi-component config: a mine that takes seconds,
    # so "polls answered during the mine" is actually exercised.
    dataset = make_multi_component_dataset()
    params = bench_params().to_document()
    app = create_app(job_workers=1)
    client = TestClient(app)
    try:
        assert client.upload_dataset(dataset).status == 201

        results = f"/api/v1/datasets/{dataset.name}/results"
        submit_start = time.perf_counter()
        submitted = client.post(
            results, json_body={"parameters": params, "mode": "async"}
        )
        submit_s = time.perf_counter() - submit_start
        assert submitted.status == 202, submitted.json()
        job_id = submitted.json()["job_id"]

        first_poll_ms = _poll_ms(client, f"/api/v1/jobs/{job_id}")

        status_ms: list[float] = []
        stats_ms: list[float] = []
        progress_trace: list[float] = []
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            start = time.perf_counter()
            doc = client.get(f"/api/v1/jobs/{job_id}").json()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            progress_trace.append(doc["progress"])
            if doc["state"] in ("succeeded", "failed", "cancelled"):
                break
            status_ms.append(elapsed_ms)  # only polls made *during* the mine
            stats_ms.append(_poll_ms(client, "/api/v1/admin/stats"))
            time.sleep(0.01)
        assert doc["state"] == "succeeded", doc.get("error")
        assert progress_trace == sorted(progress_trace), "progress regressed"
        assert progress_trace[-1] == 1.0

        result_key = doc["result_key"]
        result = client.get(f"/api/v1/results/{result_key}").json()
        mine_s = result["elapsed_seconds"]
        async_pages = _all_caps_pages(client, result_key)
        # Drop the cached result so the sync request mines from scratch.
        assert client.delete(f"/api/v1/results/{result_key}").status == 204
        sync = client.post(results, json_body={"parameters": params})
        assert sync.status == 201, sync.json()
        assert sync.json()["from_cache"] is False
        assert sync.json()["key"] == result_key
        assert _all_caps_pages(client, result_key) == async_pages, (
            "async CAPs must be byte-identical to a sync mine's"
        )

        rows = [
            {"metric": "submit -> 202", "ms": round(submit_s * 1000.0, 2)},
            {"metric": "first GET /api/v1/jobs/{id}", "ms": round(first_poll_ms, 2)},
        ]
        report: dict[str, object] = {
            "benchmark": "bench_async_server",
            "machine": machine_info(),
            "timed_region": "API latencies while a background mine runs",
            "mine_seconds": mine_s,
            "submit_ms": submit_s * 1000.0,
            "first_poll_ms": first_poll_ms,
            "polls_during_mine": len(status_ms),
        }
        for name, samples in (("GET /api/v1/jobs/{id}", status_ms),
                              ("GET /api/v1/admin/stats", stats_ms)):
            if samples:
                p50 = statistics.median(samples)
                worst = max(samples)
                rows.append({"metric": f"{name} p50 (during mine)",
                             "ms": round(p50, 2)})
                rows.append({"metric": f"{name} max (during mine)",
                             "ms": round(worst, 2)})
                key = "status_poll" if "jobs" in name else "stats_poll"
                report[f"{key}_p50_ms"] = p50
                report[f"{key}_max_ms"] = worst
        rows.append({"metric": "background mine wall", "ms": round(mine_s * 1000.0, 1)})
        print_table("async server responsiveness (in-process app)", rows)
        REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

        # The serving-tier guarantees, with CI-noise headroom.
        assert submit_s < SUBMIT_CEILING_S, (
            f"submit took {submit_s:.2f}s — the 202 must not wait for mining"
        )
        assert first_poll_ms / 1000.0 < POLL_CEILING_S
        for samples in (status_ms, stats_ms):
            if samples:
                assert statistics.median(samples) / 1000.0 < POLL_CEILING_S, (
                    "polls during a background mine must stay interactive"
                )
    finally:
        app.close()
