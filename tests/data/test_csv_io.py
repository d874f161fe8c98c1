"""Unit tests for CSV reading/writing and the chunked upload protocol."""

from __future__ import annotations

import io
import math
from datetime import datetime

import numpy as np
import pytest

from repro.data.csv_io import (
    ChunkAssembler,
    dataset_to_rows,
    iter_chunks,
    read_attribute_csv,
    read_data_csv,
    read_dataset_dir,
    read_location_csv,
    write_dataset_dir,
)
from repro.data.schema import TIME_FORMAT, DataRow, LocationRow
from repro.data.validation import DatasetValidationError

DATA_CSV = """id,attribute,time,data
00000,temperature,2016-03-01 00:00:00,null
00000,temperature,2016-03-01 01:00:00,9.87
00001,light,2016-03-01 00:00:00,120
00001,light,2016-03-01 01:00:00,130
"""

LOCATION_CSV = """id,attribute,lat,lon
00000,temperature,43.46192,-3.80176
00001,light,43.46212,-3.79979
"""

ATTRIBUTE_CSV = "temperature\nlight\n"


class TestReadDataCsv:
    def test_parses_paper_example(self):
        rows = read_data_csv(io.StringIO(DATA_CSV))
        assert len(rows) == 4
        assert rows[0].is_null
        assert rows[1].value == pytest.approx(9.87)
        assert rows[1].time == datetime(2016, 3, 1, 1)

    def test_missing_header(self):
        with pytest.raises(DatasetValidationError, match="header"):
            read_data_csv(io.StringIO("a,b\n1,2\n"))

    def test_wrong_field_count(self):
        bad = "id,attribute,time,data\nx,t,2016-03-01 00:00:00\n"
        with pytest.raises(DatasetValidationError, match="4 fields"):
            read_data_csv(io.StringIO(bad))

    def test_bad_timestamp_reports_line(self):
        bad = "id,attribute,time,data\nx,t,yesterday,1.0\n"
        with pytest.raises(DatasetValidationError, match="line 2"):
            read_data_csv(io.StringIO(bad))

    def test_empty_lines_skipped(self):
        rows = read_data_csv(io.StringIO(DATA_CSV + "\n\n"))
        assert len(rows) == 4

    def test_collects_multiple_errors(self):
        bad = (
            "id,attribute,time,data\n"
            "x,t,nope,1.0\n"
            "y,t,2016-03-01 00:00:00,notanumber\n"
        )
        with pytest.raises(DatasetValidationError) as exc:
            read_data_csv(io.StringIO(bad))
        assert len(exc.value.errors) == 2

    def test_repeated_timestamps_equal_per_cell_strptime(self):
        lines = ["id,attribute,time,data"]
        for sensor in range(5):
            for hour in range(24):
                lines.append(f"{sensor:05d},a,2016-03-01 {hour:02d}:00:00,{sensor + hour}")
        rows = read_data_csv(io.StringIO("\n".join(lines) + "\n"))
        expected = [
            DataRow(
                sensor_id,
                attribute,
                datetime.strptime(when, TIME_FORMAT),
                float(value),
            )
            for sensor_id, attribute, when, value in (
                line.split(",") for line in lines[1:]
            )
        ]
        assert rows == expected

    def test_repeated_bad_timestamp_reports_every_line(self):
        bad = (
            "id,attribute,time,data\n"
            "x,t,2016-03-01 99:00:00,1.0\n"
            "x,t,2016-03-01 00:00:00,2.0\n"
            "y,t,2016-03-01 99:00:00,3.0\n"
        )
        with pytest.raises(DatasetValidationError) as exc:
            read_data_csv(io.StringIO(bad))
        assert len(exc.value.errors) == 2
        assert exc.value.errors[0].startswith("data.csv line 2:")
        assert exc.value.errors[1] == exc.value.errors[0].replace("line 2", "line 4")


class TestReadLocationCsv:
    def test_parses_paper_example(self):
        rows = read_location_csv(io.StringIO(LOCATION_CSV))
        assert rows[0] == LocationRow("00000", "temperature", 43.46192, -3.80176)

    def test_missing_header(self):
        with pytest.raises(DatasetValidationError, match="header"):
            read_location_csv(io.StringIO("x\n"))

    def test_bad_coordinate(self):
        bad = "id,attribute,lat,lon\ns,t,abc,0\n"
        with pytest.raises(DatasetValidationError, match="line 2"):
            read_location_csv(io.StringIO(bad))


class TestReadAttributeCsv:
    def test_one_per_line(self):
        assert read_attribute_csv(io.StringIO(ATTRIBUTE_CSV)) == ["temperature", "light"]

    def test_blank_lines_skipped(self):
        assert read_attribute_csv(io.StringIO("a\n\nb\n")) == ["a", "b"]


class TestDatasetDirRoundTrip:
    def test_round_trip(self, tmp_path, tiny_dataset):
        write_dataset_dir(tiny_dataset, tmp_path / "tiny")
        loaded = read_dataset_dir(tmp_path / "tiny", name="tiny")
        assert loaded.sensor_ids == tiny_dataset.sensor_ids
        assert loaded.timeline == tiny_dataset.timeline
        for sid in tiny_dataset.sensor_ids:
            np.testing.assert_allclose(
                loaded.values(sid), tiny_dataset.values(sid), equal_nan=True
            )

    def test_round_trip_preserves_nan(self, tmp_path, tiny_dataset):
        values = tiny_dataset.values("a").copy()
        values[2] = np.nan
        import copy

        ds = tiny_dataset.subset(tiny_dataset.sensor_ids, name="tiny2")
        ds._measurements["a"] = values  # type: ignore[attr-defined]
        write_dataset_dir(ds, tmp_path / "d")
        loaded = read_dataset_dir(tmp_path / "d")
        assert math.isnan(loaded.values("a")[2])

    def test_files_exist(self, tmp_path, tiny_dataset):
        directory = write_dataset_dir(tiny_dataset, tmp_path / "out")
        assert (directory / "data.csv").exists()
        assert (directory / "location.csv").exists()
        assert (directory / "attribute.csv").exists()

    def test_validation_runs_on_load(self, tmp_path, tiny_dataset):
        directory = write_dataset_dir(tiny_dataset, tmp_path / "bad")
        # Corrupt location.csv: drop a declared sensor.
        loc = (directory / "location.csv").read_text().splitlines()
        (directory / "location.csv").write_text("\n".join(loc[:-1]) + "\n")
        with pytest.raises(DatasetValidationError):
            read_dataset_dir(directory)


class TestChunkProtocol:
    def _rows(self, n: int):
        return [
            DataRow("s1", "t", datetime(2016, 3, 1) .replace(hour=0) , 0.0)
        ] if False else [
            DataRow("s1", "t", datetime(2016, 3, 1, i % 24, 0, 0), float(i))
            for i in range(n)
        ]

    def test_chunk_sizes(self):
        rows = self._rows(23)
        chunks = list(iter_chunks(rows, chunk_lines=10))
        assert len(chunks) == 3
        # Each chunk is independently parseable with a header.
        sizes = [len(read_data_csv(io.StringIO(c))) for c in chunks]
        assert sizes == [10, 10, 3]

    def test_empty_rows_single_header_chunk(self):
        chunks = list(iter_chunks([], chunk_lines=10))
        assert len(chunks) == 1
        assert read_data_csv(io.StringIO(chunks[0])) == []

    def test_bad_chunk_lines(self):
        with pytest.raises(ValueError):
            list(iter_chunks([], chunk_lines=0))

    def test_assembler_round_trip(self, tiny_dataset):
        data_rows, location_rows = dataset_to_rows(tiny_dataset)
        assembler = ChunkAssembler("tiny")
        for chunk in iter_chunks(data_rows, chunk_lines=7):
            assembler.add_chunk(chunk)
        rebuilt = assembler.finish(location_rows, list(tiny_dataset.attributes))
        assert rebuilt.sensor_ids == tiny_dataset.sensor_ids
        assert rebuilt.num_records == tiny_dataset.num_records
        assert assembler.chunks_received == math.ceil(len(data_rows) / 7)

    def test_assembler_rejects_after_finish(self, tiny_dataset):
        data_rows, location_rows = dataset_to_rows(tiny_dataset)
        assembler = ChunkAssembler("tiny")
        for chunk in iter_chunks(data_rows):
            assembler.add_chunk(chunk)
        assembler.finish(location_rows, list(tiny_dataset.attributes))
        with pytest.raises(RuntimeError, match="finished"):
            assembler.add_chunk("id,attribute,time,data\n")

    def test_assembler_validates_on_finish(self):
        assembler = ChunkAssembler("x")
        assembler.add_chunk(
            "id,attribute,time,data\nghost,t,2016-03-01 00:00:00,1\n"
            "ghost,t,2016-03-01 01:00:00,2\n"
        )
        with pytest.raises(DatasetValidationError):
            assembler.finish([LocationRow("s1", "t", 0.0, 0.0)], ["t"])

    def test_assembler_requires_name(self):
        with pytest.raises(ValueError):
            ChunkAssembler("")
