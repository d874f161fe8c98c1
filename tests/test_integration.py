"""End-to-end integration scenarios across the whole stack.

Each test plays one of the paper's demonstration scenarios through multiple
subsystems at once (generators → CSV → upload → store → miner → cache →
viz), the way a user of the released system would.
"""

from __future__ import annotations

import json
from datetime import datetime

import numpy as np
import pytest

from repro import (
    CapReport,
    MiscelaMiner,
    ResultCache,
    TestClient,
    compare_periods,
    create_app,
    generate_covid19,
    generate_santander,
    read_dataset_dir,
    recommended_parameters,
    write_dataset_dir,
)
from repro.store.database import Database


class TestCsvRoundTripThenMine:
    """Generate → CSV dir → reload → mine: identical results both ways."""

    def test_csv_round_trip_preserves_mining_output(self, tmp_path):
        dataset = generate_santander(seed=9, neighbourhoods=4, steps=200)
        params = recommended_parameters("santander")
        direct = MiscelaMiner(params).mine(dataset)

        write_dataset_dir(dataset, tmp_path / "csv")
        reloaded = read_dataset_dir(tmp_path / "csv", name=dataset.name)
        via_csv = MiscelaMiner(params).mine(reloaded)

        assert {(c.key(), c.support) for c in direct.caps} == {
            (c.key(), c.support) for c in via_csv.caps
        }


class TestServerScenario:
    """The full §4 'interactive analysis' demo over the API."""

    def test_attendee_session(self, tmp_path):
        dataset = generate_santander(seed=9, neighbourhoods=4, steps=240)
        params = recommended_parameters("santander")
        app = create_app(Database(tmp_path / "store.json"))
        client = TestClient(app)

        # 1. Upload through the chunked protocol.
        assert client.upload_dataset(dataset).status == 201

        # 2. First parameter setting.
        results = f"/api/v1/datasets/{dataset.name}/results"
        r1 = client.post(results, json_body={"parameters": params.to_document()})
        assert r1.status == 201 and r1.json()["num_caps"] > 0
        caps1 = client.get(f"/api/v1/results/{r1.json()['key']}/caps?limit=1000")
        assert caps1.status == 200

        # 3. "Users can easily change parameters": a looser ψ.
        loose = params.with_updates(min_support=5)
        r2 = client.post(results, json_body={"parameters": loose.to_document()})
        assert r2.status == 201
        assert r2.json()["num_caps"] >= r1.json()["num_caps"]

        # 4. Repeating the first setting is served from cache.
        r3 = client.post(results, json_body={"parameters": params.to_document()})
        assert r3.status == 201 and r3.json()["from_cache"]
        caps3 = client.get(f"/api/v1/results/{r3.json()['key']}/caps?limit=1000")
        assert caps3.body == caps1.body

        # 5. Click a sensor, get its correlated sensors, view both charts.
        probe = caps1.json()["caps"][0]["sensors"][0]
        views = f"/api/v1/datasets/{dataset.name}"
        corr = client.get(f"{views}/sensors/{probe}/correlated")
        partners = list(corr.json()["correlated"])
        assert partners
        svg = {"Accept": "image/svg+xml"}
        chart = client.get(
            f"{views}/viz/timeseries?sensors={probe},{partners[0]}", headers=svg
        )
        assert chart.status == 200 and b"<svg" in chart.body
        assert chart.headers["Content-Type"].startswith("image/svg+xml")
        highlighted_map = client.get(f"{views}/viz/map?highlight={probe}", headers=svg)
        assert highlighted_map.status == 200 and b"<svg" in highlighted_map.body

        # 6. Both cached settings are listed.
        listing = client.get(results).json()
        assert len(listing["results"]) == 2


class TestCovidScenarioEndToEnd:
    def test_figure4_report_files(self, tmp_path):
        dataset = generate_covid19(seed=4)
        params = recommended_parameters("covid19")
        comparison = compare_periods(dataset, datetime(2020, 1, 23), params)
        assert comparison.before.num_caps > comparison.after.num_caps

        before_ds = dataset.slice_time(
            dataset.timeline[0], datetime(2020, 1, 23), name="b"
        )
        report = CapReport(before_ds, comparison.before, max_caps=3)
        path = report.save_html(tmp_path / "before.html")
        html = path.read_text()
        assert "(B) map, CAP highlighted" in html
        # All sensors in the report's maps exist in the sliced dataset.
        for cap in report.caps:
            for sid in cap.sensor_ids:
                assert sid in before_ds


class TestCacheMinerEquivalence:
    """mine_cached must be a pure memoisation of the miner."""

    def test_cached_pipeline_equals_direct(self):
        dataset = generate_santander(seed=9, neighbourhoods=3, steps=200)
        params = recommended_parameters("santander")
        cache = ResultCache(Database())
        direct = MiscelaMiner(params).mine(dataset)
        first = cache.mine_cached(dataset, params)
        replay = cache.mine_cached(dataset, params)
        for result in (first, replay):
            assert [(c.key(), c.support) for c in result.caps] == [
                (c.key(), c.support) for c in direct.caps
            ]


class TestJsonInterchange:
    """The JSON CAP format survives a full dump/reload cycle (Section 3.4)."""

    def test_caps_round_trip_via_json(self, tmp_path):
        from repro.core.types import CAP
        from repro.viz.export import caps_to_json

        dataset = generate_santander(seed=9, neighbourhoods=3, steps=200)
        result = MiscelaMiner(recommended_parameters("santander")).mine(dataset)
        path = tmp_path / "caps.json"
        path.write_text(caps_to_json(result.caps))
        restored = [CAP.from_document(doc) for doc in json.loads(path.read_text())]
        assert {(c.key(), c.support) for c in restored} == {
            (c.key(), c.support) for c in result.caps
        }


class TestMissingDataResilience:
    """The pipeline tolerates heavy NaN rates end to end."""

    @pytest.mark.parametrize("missing_rate", [0.0, 0.1, 0.3])
    def test_mining_survives_missing_data(self, missing_rate):
        dataset = generate_santander(
            seed=9, neighbourhoods=3, steps=240, missing_rate=missing_rate
        )
        result = MiscelaMiner(recommended_parameters("santander")).mine(dataset)
        # Supports shrink with missing data but the pipeline stays sound:
        # every reported co-evolution is backed by finite values.
        for cap in result.caps:
            for sid in cap.sensor_ids:
                values = dataset.values(sid)
                for index in cap.evolving_indices:
                    assert np.isfinite(values[index])
                    assert np.isfinite(values[index - 1])
