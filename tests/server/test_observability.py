"""The observability surface over the API: request ids, metrics, traces.

Covers the end-to-end telemetry contract from the outside in:

* every response — success or error envelope — carries ``X-Request-Id``
  (honored when the client sent one, minted otherwise);
* ``GET /api/v1/metrics`` serves a parseable Prometheus page whose
  families span the HTTP, jobs, WAL, and cache subsystems, and
  ``/api/v1/admin/stats`` folds the same registry in as a summary;
* slow-request / slow-shard warnings fire only when their env knobs are
  set (default off — benchmarks must not pay for them);
* ``GET /api/v1/jobs/{id}/trace`` serves the persisted span tree — on a
  store path and without one, where distributed and streaming jobs run on
  the same registry — and stamps the request's id onto submitted jobs as
  their trace id.
"""

from __future__ import annotations

import logging
import time

import pytest

from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.jobs import TERMINAL_STATES
from repro.obs.metrics import CONTENT_TYPE
from repro.server.app import TestClient, create_app
from repro.store.database import Database

from tests.obs.test_metrics import parse_page

PARAMS = recommended_parameters("santander").to_document()
TIMEOUT = 60.0


@pytest.fixture
def dataset():
    return generate_santander(seed=2, neighbourhoods=4, steps=240)


@pytest.fixture
def client():
    app = create_app(job_workers=1)
    yield TestClient(app)
    app.close()


@pytest.fixture
def durable_client(tmp_path, dataset):
    app = create_app(
        database=Database(tmp_path / "store.json"),
        job_workers=1,
        worker_id="obs-test",
    )
    client = TestClient(app)
    assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
    yield client
    app.close()


def poll_until_terminal(client, job_id: str, timeout: float = TIMEOUT) -> dict:
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        doc = client.get(f"/api/v1/jobs/{job_id}").json()
        if doc["state"] in TERMINAL_STATES:
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s: {doc}")


# -- X-Request-Id ---------------------------------------------------------------


class TestRequestId:
    def test_client_id_is_echoed(self, client):
        response = client.get("/api/v1/schema", headers={"X-Request-Id": "abc-123"})
        assert response.status == 200
        assert response.headers["X-Request-Id"] == "abc-123"

    def test_id_is_minted_when_absent(self, client):
        first = client.get("/api/v1/schema")
        second = client.get("/api/v1/schema")
        minted = first.headers["X-Request-Id"]
        assert minted and minted != second.headers["X-Request-Id"]

    def test_id_lands_on_error_envelopes(self, client):
        response = client.get(
            "/api/v1/jobs/no-such-job", headers={"X-Request-Id": "err-1"}
        )
        assert response.status == 404
        assert response.headers["X-Request-Id"] == "err-1"
        # The envelope shape is unchanged by the id machinery.
        assert set(response.json()["error"]) == {"code", "message", "detail"}

    def test_id_lands_on_unmatched_routes(self, client):
        response = client.get("/api/v1/definitely/not/a/route")
        assert response.status == 404
        assert response.headers["X-Request-Id"]


# -- /api/v1/metrics -------------------------------------------------------------


class TestMetricsEndpoint:
    def test_scrape_is_parseable_with_the_mandated_content_type(self, client):
        client.get("/api/v1/schema")  # ensure at least one observed request
        response = client.get("/api/v1/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"] == CONTENT_TYPE
        page = response.body.decode("utf-8")
        samples = parse_page(page)  # raises on any malformed line
        assert samples

    def test_families_cover_http_jobs_wal_and_cache(self, client):
        client.get("/api/v1/schema")
        page = client.get("/api/v1/metrics").body.decode("utf-8")
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_jobs_claims_total",
            "repro_wal_append_seconds",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
        ):
            assert f"# TYPE {family} " in page, f"{family} missing from scrape"

    def test_http_requests_are_labelled_by_route_template(self, client):
        client.get("/api/v1/jobs/no-such-job", headers={"X-Request-Id": "x"})
        page = client.get("/api/v1/metrics").body.decode("utf-8")
        # The label is the registered pattern, not the raw path: cardinality
        # stays bounded by the route table.
        assert 'route="/api/v1/jobs/{job_id}"' in page
        assert "no-such-job" not in page

    def test_counts_never_decrease_across_scrapes(self, client):
        def scrape():
            return parse_page(client.get("/api/v1/metrics").body.decode("utf-8"))

        first = scrape()
        client.get("/api/v1/schema")
        second = scrape()
        regressions = [
            key for key, value in first.items()
            if "_total" in key and second.get(key, value) < value
        ]
        assert regressions == []

    def test_admin_stats_folds_the_registry_summary_in(self, client):
        client.get("/api/v1/schema")
        response = client.get("/api/v1/admin/stats")
        assert response.status == 200
        metrics = response.json()["metrics"]
        assert metrics["repro_http_requests_total"] >= 1


# -- slow-operation warnings ------------------------------------------------------


class TestSlowWarnings:
    def test_slow_request_warning_is_off_by_default(self, client, caplog, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_REQUEST_MS", raising=False)
        with caplog.at_level(logging.WARNING, logger="repro.server"):
            client.get("/api/v1/schema")
        assert not [r for r in caplog.records if "slow request" in r.message]

    def test_slow_request_warning_fires_past_threshold(self, client, caplog, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_REQUEST_MS", "0")
        with caplog.at_level(logging.WARNING, logger="repro.server"):
            client.get("/api/v1/schema")
        (record,) = [r for r in caplog.records if "slow request" in r.message]
        assert "/api/v1/schema" in record.message

    def test_slow_shard_warning_fires_past_threshold(self, caplog, monkeypatch):
        from repro.jobs import DurableJobStore
        from repro.jobs.executor import run_claimed_job
        from repro.store.database import Database

        store = DurableJobStore(Database(), clock=time.time)
        job, _ = store.open_job("d", {}, "key-1", trace_id="t1")
        claimed = store.mark_running(job.job_id)
        monkeypatch.setenv("REPRO_SLOW_SHARD_S", "0.000001")
        with caplog.at_level(logging.WARNING, logger="repro.jobs"):
            run_claimed_job(store, claimed, lambda control: "result-key")
        (record,) = [r for r in caplog.records if "slow" in r.message]
        assert job.job_id in record.message
        assert store.get(job.job_id).state == "succeeded"

    def test_slow_shard_warning_is_off_by_default(self, caplog, monkeypatch):
        from repro.jobs import DurableJobStore
        from repro.jobs.executor import run_claimed_job
        from repro.store.database import Database

        monkeypatch.delenv("REPRO_SLOW_SHARD_S", raising=False)
        store = DurableJobStore(Database(), clock=time.time)
        job, _ = store.open_job("d", {}, "key-1")
        claimed = store.mark_running(job.job_id)
        with caplog.at_level(logging.WARNING, logger="repro.jobs"):
            run_claimed_job(store, claimed, lambda control: "result-key")
        assert not [r for r in caplog.records if "slow" in r.message]


# -- the trace endpoint -----------------------------------------------------------


def concatenated_caps_pages(client, key: str, limit: int = 50) -> bytes:
    """Every CAP page of one result, fetched in order and joined."""
    body, offset = b"", 0
    while True:
        page = client.get(f"/api/v1/results/{key}/caps?offset={offset}&limit={limit}")
        assert page.status == 200, page.json()
        body += page.body
        offset += limit
        if offset >= page.json()["total"]:
            return body


def poll_events(client, name: str, expect: int, timeout: float = TIMEOUT) -> list:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        page = client.get(f"/api/v1/datasets/{name}/events?cursor=0&wait=1")
        assert page.status == 200, page.json()
        if len(page.json()["events"]) >= expect:
            return page.json()["events"]
    raise AssertionError(f"feed of {name!r} never showed {expect} event(s)")


class TestTraceEndpoint:
    def test_pathless_server_runs_distributed_traced_and_streaming_jobs(
        self, dataset, tiny_dataset
    ):
        """Without a store path the one registry still serves every mode."""
        from tests.stream.test_stream_e2e import PARAMS as STREAM_PARAMS
        from tests.stream.test_stream_e2e import BatchFeeder

        reference_app = create_app(job_workers=1)
        app = create_app(job_workers=1)
        app.state.stream_idle_seconds = 0.1
        app.state.start_job_worker(interval=0.05)
        try:
            reference = TestClient(reference_app)
            assert reference.upload_dataset(dataset, chunk_lines=1000).status == 201
            sync = reference.post(
                f"/api/v1/datasets/{dataset.name}/results",
                json_body={"parameters": PARAMS},
            )
            assert sync.status == 201, sync.json()

            client = TestClient(app)
            assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
            submitted = client.post(
                f"/api/v1/datasets/{dataset.name}/results",
                json_body={"parameters": PARAMS, "mode": "distributed",
                           "plan_workers": 2},
            )
            assert submitted.status == 202, submitted.json()
            job_id = submitted.json()["job_id"]
            final = poll_until_terminal(client, job_id)
            assert final["state"] == "succeeded", final
            assert final["shards"] and final["merge"]["state"] == "succeeded"
            key = final["result_key"]
            assert key == sync.json()["key"]
            assert concatenated_caps_pages(client, key) == concatenated_caps_pages(
                reference, key
            )

            trace = client.get(f"/api/v1/jobs/{job_id}/trace")
            assert trace.status == 200, trace.json()
            tree = trace.json()
            assert tree["job_id"] == job_id
            assert [span["name"] for span in tree["spans"]] == ["planner"]
            assert len(tree["children"]) == len(final["shards"]) + 1
            for child in tree["children"]:
                assert [span["status"] for span in child["spans"]] == ["ok"]

            assert client.upload_dataset(tiny_dataset).status == 201
            stream = client.post(
                "/api/v1/datasets/tiny/results",
                json_body={"parameters": STREAM_PARAMS, "mode": "streaming"},
            )
            assert stream.status == 202, stream.json()
            assert stream.json()["kind"] == "stream"
            batch = BatchFeeder(tiny_dataset).batch({"a", "b"})
            appended = client.post("/api/v1/datasets/tiny/observations",
                                   json_body=batch)
            assert appended.status == 202, appended.json()
            (event,) = poll_events(client, "tiny", expect=1)
            assert event["epoch"] == 1 and event["type"] == "extended"
            assert event["cap"]["sensors"] == ["a", "b"]
        finally:
            app.close(wait=True)
            reference_app.close()

    def test_unknown_job_answers_404(self, durable_client):
        response = durable_client.get("/api/v1/jobs/no-such-job/trace")
        assert response.status == 404
        assert response.json()["error"]["code"] == "unknown_job"

    def test_async_mine_produces_a_traced_span_tree(self, durable_client):
        submitted = durable_client.post(
            "/api/v1/datasets/santander/results",
            json_body={"parameters": PARAMS, "mode": "async"},
            headers={"X-Request-Id": "trace-me"},
        )
        assert submitted.status == 202, submitted.json()
        job_id = submitted.json()["job_id"]
        final = poll_until_terminal(durable_client, job_id)
        assert final["state"] == "succeeded", final
        # The request id became the job's trace id...
        assert final["trace_id"] == "trace-me"
        tree = durable_client.get(f"/api/v1/jobs/{job_id}/trace").json()
        assert tree["job_id"] == job_id
        assert tree["trace_id"] == "trace-me"
        # ...and the persisted span carries it too.
        (span,) = tree["spans"]
        assert span["trace_id"] == "trace-me"
        assert span["status"] == "ok"
        assert span["name"] == "mine"
        assert span["end"] >= span["start"]
