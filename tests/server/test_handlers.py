"""Integration tests for the API: the full Figure-2 flow over the TestClient."""

from __future__ import annotations

import gc
import os
import weakref

import pytest

from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.server.app import TestClient, create_app
from repro.store.database import Database


@pytest.fixture
def dataset():
    return generate_santander(seed=2, neighbourhoods=4, steps=240)


@pytest.fixture
def client(dataset):
    app = create_app()
    client = TestClient(app)
    response = client.upload_dataset(dataset, chunk_lines=1000)
    assert response.status == 201, response.json()
    return client


PARAMS = recommended_parameters("santander").to_document()


class TestUploadFlow:
    def test_upload_registers_dataset(self, client):
        assert client.get("/datasets").json() == {"datasets": ["santander"]}

    def test_describe(self, client, dataset):
        desc = client.get("/datasets/santander").json()
        assert desc["sensors"] == len(dataset)
        assert desc["records"] == dataset.num_records

    def test_chunk_without_begin_conflicts(self, client):
        resp = client.post("/datasets/ghost/upload/chunk", text_body="id,attribute,time,data\n")
        assert resp.status == 409

    def test_finish_without_begin_conflicts(self, client):
        assert client.post("/datasets/ghost/upload/finish").status == 409

    def test_begin_requires_fields(self, client):
        resp = client.post("/datasets/x/upload/begin", json_body={"location_csv": ""})
        assert resp.status == 400
        assert "attribute_csv" in str(resp.json())

    def test_invalid_chunk_rejected(self, client):
        begin = client.post(
            "/datasets/x/upload/begin",
            json_body={"location_csv": "id,attribute,lat,lon\ns,t,0,0\n", "attribute_csv": "t\n"},
        )
        assert begin.status == 201
        resp = client.post("/datasets/x/upload/chunk", text_body="garbage")
        assert resp.status == 400

    def test_delete_dataset(self, client):
        assert client.delete("/datasets/santander").status == 200
        assert client.get("/datasets/santander").status == 404
        assert client.delete("/datasets/santander").status == 404

    def test_reupload_invalidates_cache(self, client, dataset):
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        stats = client.get("/admin/stats").json()
        assert stats["cache"]["entries"] == 1
        client.upload_dataset(dataset, chunk_lines=1000)
        stats = client.get("/admin/stats").json()
        assert stats["cache"]["entries"] == 0


class TestMining:
    def test_mine_returns_caps(self, client):
        resp = client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        assert resp.status == 200
        payload = resp.json()
        assert payload["num_caps"] == len(payload["caps"]) > 0
        assert not payload["from_cache"]

    def test_second_mine_hits_cache(self, client):
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        second = client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        assert second.json()["from_cache"]

    def test_mine_unknown_dataset(self, client):
        resp = client.post("/mine", json_body={"dataset": "ghost", "parameters": PARAMS})
        assert resp.status == 404

    def test_mine_invalid_parameters(self, client):
        bad = dict(PARAMS, min_support=0)
        resp = client.post("/mine", json_body={"dataset": "santander", "parameters": bad})
        assert resp.status == 400

    def test_mine_missing_fields(self, client):
        assert client.post("/mine", json_body={"dataset": "santander"}).status == 400

    def test_cached_results_listing(self, client):
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        listing = client.get("/caps/santander").json()
        assert len(listing["cached_results"]) == 1
        entry = listing["cached_results"][0]
        assert entry["num_caps"] > 0
        assert entry["parameters"]["min_support"] == PARAMS["min_support"]


class TestInteraction:
    def test_correlated_sensors_endpoint(self, client, dataset):
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        # Pick a sensor that participates in some CAP.
        caps = client.post(
            "/mine", json_body={"dataset": "santander", "parameters": PARAMS}
        ).json()["caps"]
        sensor = caps[0]["sensors"][0]
        resp = client.get(f"/caps/santander/sensors/{sensor}")
        assert resp.status == 200
        correlated = resp.json()["correlated"]
        assert len(correlated) >= 1
        assert sensor not in correlated

    def test_correlated_requires_mining_first(self, client, dataset):
        resp = client.get(f"/caps/santander/sensors/{dataset.sensor_ids[0]}")
        assert resp.status == 409

    def test_correlated_unknown_sensor(self, client):
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        assert client.get("/caps/santander/sensors/ghost").status == 404


class TestVizEndpoints:
    def test_map(self, client):
        resp = client.get("/viz/santander/map")
        assert resp.status == 200
        assert b"<svg" in resp.body

    def test_map_with_highlight(self, client, dataset):
        sid = dataset.sensor_ids[0]
        resp = client.get(f"/viz/santander/map?highlight={sid}")
        assert resp.status == 200

    def test_timeseries(self, client, dataset):
        ids = ",".join(dataset.sensor_ids[:3])
        resp = client.get(f"/viz/santander/timeseries?sensors={ids}")
        assert resp.status == 200
        assert b"<svg" in resp.body

    def test_timeseries_requires_sensors(self, client):
        assert client.get("/viz/santander/timeseries").status == 400

    def test_timeseries_unknown_sensor(self, client):
        assert client.get("/viz/santander/timeseries?sensors=ghost").status == 404

    def test_heatmap_default_sensors(self, client):
        resp = client.get("/viz/santander/heatmap")
        assert resp.status == 200
        assert b"<svg" in resp.body

    def test_heatmap_explicit_sensors(self, client, dataset):
        ids = ",".join(dataset.sensor_ids[:3])
        resp = client.get(f"/viz/santander/heatmap?sensors={ids}")
        assert resp.status == 200

    def test_heatmap_unknown_sensor(self, client):
        assert client.get("/viz/santander/heatmap?sensors=ghost").status == 404

    def test_heatmap_uses_cached_parameters(self, client):
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        resp = client.get("/viz/santander/heatmap")
        assert resp.status == 200


class TestAdminAndMisc:
    def test_index_lists_routes(self, client):
        payload = client.get("/").json()
        assert payload["service"] == "miscela-v"
        assert any("/mine" in r for r in payload["routes"])

    def test_admin_stats_shape(self, client):
        stats = client.get("/admin/stats").json()
        assert "store" in stats and "cache" in stats

    def test_admin_results_by_dataset(self, client):
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        loose = dict(PARAMS, min_support=5)
        client.post("/mine", json_body={"dataset": "santander", "parameters": loose})
        payload = client.get("/admin/results-by-dataset").json()
        row = payload["results_by_dataset"]["santander"]
        assert row["settings"] == 2
        assert row["total_caps"] > 0

    def test_admin_results_empty(self, client):
        payload = client.get("/admin/results-by-dataset").json()
        assert payload["results_by_dataset"] == {}

    def test_unknown_route_404(self, client):
        assert client.get("/nope").status == 404

    def test_method_not_allowed(self, client):
        assert client.post("/datasets").status == 405


class TestPersistenceAcrossRestart:
    def test_close_releases_the_store(self, tmp_path, dataset):
        """Reopening a store and closing its app leaks no descriptor, and
        the closed database dies with its last reference (no cycle)."""
        path = tmp_path / "server.json"
        app = create_app(Database.open(path))
        assert TestClient(app).upload_dataset(dataset, chunk_lines=1000).status == 201
        app.close(wait=True)
        counts = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                database = Database.open(path)
                app = create_app(database)
                app.close(wait=True)
                ref = weakref.ref(database)
                del app, database
                assert ref() is None
                counts.append(len(os.listdir("/proc/self/fd")))
        finally:
            if enabled:
                gc.enable()
        assert len(set(counts)) == 1, counts

    def test_dataset_survives_restart(self, tmp_path, dataset):
        path = tmp_path / "server.json"
        app = create_app(Database(path))
        client = TestClient(app)
        assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
        client.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        app.state.database.save()

        app2 = create_app(Database.open(path))
        client2 = TestClient(app2)
        assert client2.get("/datasets").json() == {"datasets": ["santander"]}
        resp = client2.post("/mine", json_body={"dataset": "santander", "parameters": PARAMS})
        assert resp.json()["from_cache"]  # cached CAPs survived the restart
