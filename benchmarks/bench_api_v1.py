"""API v1 serving economics: paginated CAP pages and conditional GETs.

ISSUE 4 redesigned the HTTP surface around result resources; this bench
quantifies the two serving-tier wins over the legacy RPC shape:

* **page vs full payload** — the legacy ``POST /mine`` replays the *entire*
  CAP list on every cache hit; v1 clients fetch
  ``GET /api/v1/results/{key}/caps?offset=&limit=`` pages.  Measured: p50
  latency and body size of a page against the full legacy payload, plus
  the byte-identity of all pages concatenated (the acceptance criterion).
* **304 hit rate** — result metadata carries an ``ETag`` (cache key +
  dataset generation); a well-behaved client revalidates with
  ``If-None-Match`` and pays a header-only 304 instead of a body.
  Measured: the revalidation hit rate (must be 100% for an unchanged
  dataset) and the 304 latency against an unconditional GET.

Both are measured at two result sizes: a Santander city of about 130
CAPs and the 144-sensor china6 city of 4,800 CAPs.  Page, metadata and
304 latency must not grow with the result (stored documents are read
without a copy and the decoded result is memoized), so the bench gates on
shape: the large result's page p50 over the small one's stays under
:data:`MAX_PAGE_SIZE_RATIO`.

Results land in ``BENCH_api_v1.json`` at the repository root (CI's bench
lane uploads it), stamped with the core count.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_china6, generate_santander
from repro.server.app import TestClient, create_app

from .conftest import machine_info, print_table

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_api_v1.json"

PAGE_LIMIT = 20
SAMPLES = 40
#: Large ÷ small page p50 bound: a page's cost must not track the result.
MAX_PAGE_SIZE_RATIO = 3.0


def _timed_ms(fn) -> tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return (time.perf_counter() - start) * 1000.0, value


def _p50(samples: list[float]) -> float:
    return statistics.median(samples)


def _measure(dataset, params) -> dict:
    """Serve one mined result and time its pages and conditional GETs."""
    app = create_app(job_workers=1)
    client = TestClient(app)
    try:
        assert client.upload_dataset(dataset).status == 201

        created = client.post(
            f"/api/v1/datasets/{dataset.name}/results",
            json_body={"parameters": params.to_document()},
        )
        assert created.status == 201, created.json()
        key = created.json()["key"]
        num_caps = created.json()["num_caps"]
        assert num_caps > PAGE_LIMIT, (
            f"bench needs more than one page, got {num_caps} CAPs"
        )

        # -- legacy full payload (cache hits) vs one v1 page -----------------
        mine_body = {"dataset": dataset.name, "parameters": params.to_document()}
        full_ms: list[float] = []
        for _ in range(SAMPLES):
            elapsed, response = _timed_ms(lambda: client.post("/mine", json_body=mine_body))
            assert response.status == 200
            full_ms.append(elapsed)
        full_bytes = len(response.body)

        page_url = f"/api/v1/results/{key}/caps?offset=0&limit={PAGE_LIMIT}"
        page_ms: list[float] = []
        for _ in range(SAMPLES):
            elapsed, response = _timed_ms(lambda: client.get(page_url))
            assert response.status == 200
            page_ms.append(elapsed)
        page_bytes = len(response.body)

        # -- acceptance criterion: pages concatenate to the legacy CAP list --
        legacy_caps = client.post("/mine", json_body=mine_body).json()["caps"]
        paged: list[dict] = []
        offset = 0
        while offset < num_caps:
            body = client.get(
                f"/api/v1/results/{key}/caps?offset={offset}&limit={PAGE_LIMIT}"
            ).json()
            paged.extend(body["caps"])
            offset += PAGE_LIMIT
        assert json.dumps(paged, sort_keys=True) == json.dumps(
            legacy_caps, sort_keys=True
        ), "concatenated v1 pages must be byte-identical to the legacy payload"

        # -- conditional GETs: ETag revalidation --------------------------------
        meta_url = f"/api/v1/results/{key}"
        uncond_ms: list[float] = []
        for _ in range(SAMPLES):
            elapsed, response = _timed_ms(lambda: client.get(meta_url))
            assert response.status == 200
            uncond_ms.append(elapsed)
        etag = response.headers["ETag"]

        cond_ms: list[float] = []
        not_modified = 0
        for _ in range(SAMPLES):
            elapsed, response = _timed_ms(
                lambda: client.get(meta_url, headers={"If-None-Match": etag})
            )
            cond_ms.append(elapsed)
            if response.status == 304:
                not_modified += 1
                assert response.body == b""
        return {
            "num_caps": num_caps,
            "full_payload_p50_ms": _p50(full_ms),
            "full_payload_bytes": full_bytes,
            "page_p50_ms": _p50(page_ms),
            "page_bytes": page_bytes,
            "metadata_p50_ms": _p50(uncond_ms),
            "metadata_bytes": len(client.get(meta_url).body),
            "conditional_p50_ms": _p50(cond_ms),
            "not_modified_hit_rate": not_modified / SAMPLES,
            "payload_reduction": full_bytes / page_bytes,
        }
    finally:
        app.close(wait=True)


def test_api_v1_pages_and_conditional_gets():
    small = _measure(
        generate_santander(seed=3, neighbourhoods=10, steps=360),
        recommended_parameters("santander").with_updates(min_support=5),
    )
    large = _measure(
        generate_china6(seed=0, grid_rows=4, grid_cols=6, steps=480),
        recommended_parameters("china6"),
    )
    page_ratio = large["page_p50_ms"] / small["page_p50_ms"]

    rows = []
    for size in (small, large):
        caps = size["num_caps"]
        rows += [
            {"caps": caps, "metric": "POST /mine full payload p50 (v0)",
             "ms": round(size["full_payload_p50_ms"], 3),
             "bytes": size["full_payload_bytes"]},
            {"caps": caps, "metric": f"GET caps page p50 (limit={PAGE_LIMIT})",
             "ms": round(size["page_p50_ms"], 3), "bytes": size["page_bytes"]},
            {"caps": caps, "metric": "GET result metadata p50",
             "ms": round(size["metadata_p50_ms"], 3), "bytes": size["metadata_bytes"]},
            {"caps": caps, "metric": "conditional GET p50 (If-None-Match)",
             "ms": round(size["conditional_p50_ms"], 3), "bytes": 0},
            {"caps": caps, "metric": "304 hit rate", "ms": "",
             "bytes": f"{size['not_modified_hit_rate']:.0%}"},
        ]
    print_table(
        f"API v1 vs legacy full payload (page p50 large/small = {page_ratio:.2f})",
        rows,
    )

    REPORT_PATH.write_text(json.dumps({
        "benchmark": "bench_api_v1",
        "machine": machine_info(),
        "timed_region": "in-process API request latencies (cache-hot)",
        "page_limit": PAGE_LIMIT,
        "samples": SAMPLES,
        "sizes": {"small": small, "large": large},
        "page_size_ratio": page_ratio,
        "max_page_size_ratio": MAX_PAGE_SIZE_RATIO,
    }, indent=2) + "\n")

    for size in (small, large):
        # The redesign's claims: every repeated conditional GET revalidates,
        # and a page is strictly cheaper than the full legacy payload.
        assert size["not_modified_hit_rate"] == 1.0, (
            "ETag revalidation must hit for unchanged data"
        )
        assert size["page_bytes"] < size["full_payload_bytes"], (
            "a page must be smaller than the full payload"
        )
        assert size["page_p50_ms"] < size["full_payload_p50_ms"], (
            "serving one page must beat re-serializing the full payload"
        )
    assert page_ratio < MAX_PAGE_SIZE_RATIO, (
        f"a page of the {large['num_caps']}-CAP result costs {page_ratio:.1f}x "
        f"one of the {small['num_caps']}-CAP result; page latency must not "
        f"grow with the result"
    )
