"""Reading and writing the three-file dataset format, with chunked upload.

The paper's front end splits ``data.csv`` into 10,000-line chunks before
sending it to the server (Section 3.2).  :func:`iter_chunks` reproduces the
client side of that protocol and :class:`ChunkAssembler` the server side;
:func:`read_dataset_dir` / :func:`write_dataset_dir` are the plain local
paths used by examples and tests.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.types import Sensor, SensorDataset
from .resample import assemble_dataset
from .schema import (
    DATA_COLUMNS,
    DEFAULT_CHUNK_LINES,
    LOCATION_COLUMNS,
    DataRow,
    LocationRow,
    format_time,
    format_value,
    parse_time,
    parse_value,
)
from .validation import (
    DatasetValidationError,
    validate_attributes,
    validate_data_rows,
    validate_locations,
    validate_timeline,
)

__all__ = [
    "read_data_csv",
    "read_location_csv",
    "read_attribute_csv",
    "write_dataset_dir",
    "read_dataset_dir",
    "iter_chunks",
    "ChunkAssembler",
    "dataset_to_rows",
]


def read_data_csv(source: io.TextIOBase | str | Path) -> list[DataRow]:
    """Parse ``data.csv`` rows (header required)."""
    with _opened(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != DATA_COLUMNS:
            raise DatasetValidationError(
                [f"data.csv: expected header {','.join(DATA_COLUMNS)}, got {header}"]
            )
        rows: list[DataRow] = []
        errors: list[str] = []
        # Every sensor repeats the same timestamps, so parse each distinct
        # text once.  Only successes are kept: a bad timestamp re-raises on
        # every line that carries it.
        times: dict[str, datetime] = {}
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 4:
                errors.append(f"data.csv line {lineno}: expected 4 fields, got {len(record)}")
                continue
            sensor_id, attribute, time_text, value_text = record
            try:
                when = times.get(time_text)
                if when is None:
                    when = times[time_text] = parse_time(time_text)
                rows.append(DataRow(sensor_id, attribute, when, parse_value(value_text)))
            except ValueError as exc:
                errors.append(f"data.csv line {lineno}: {exc}")
        if errors:
            raise DatasetValidationError(errors)
        return rows


def read_location_csv(source: io.TextIOBase | str | Path) -> list[LocationRow]:
    """Parse ``location.csv`` rows (header required)."""
    with _opened(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != LOCATION_COLUMNS:
            raise DatasetValidationError(
                [f"location.csv: expected header {','.join(LOCATION_COLUMNS)}, got {header}"]
            )
        rows: list[LocationRow] = []
        errors: list[str] = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 4:
                errors.append(
                    f"location.csv line {lineno}: expected 4 fields, got {len(record)}"
                )
                continue
            sensor_id, attribute, lat_text, lon_text = record
            try:
                rows.append(LocationRow(sensor_id, attribute, float(lat_text), float(lon_text)))
            except ValueError as exc:
                errors.append(f"location.csv line {lineno}: {exc}")
        if errors:
            raise DatasetValidationError(errors)
        return rows


def read_attribute_csv(source: io.TextIOBase | str | Path) -> list[str]:
    """Parse ``attribute.csv`` (one attribute per line, no header)."""
    with _opened(source) as handle:
        return [line.strip() for line in handle if line.strip()]


class _opened:
    """Context manager accepting an open text handle, a path, or a string path."""

    def __init__(self, source: io.TextIOBase | str | Path) -> None:
        self.source = source
        self._own = not hasattr(source, "read")
        self._handle: io.TextIOBase | None = None

    def __enter__(self) -> io.TextIOBase:
        if self._own:
            self._handle = open(self.source, "r", newline="")  # type: ignore[arg-type]
            return self._handle
        return self.source  # type: ignore[return-value]

    def __exit__(self, *exc: object) -> None:
        if self._handle is not None:
            self._handle.close()


def dataset_to_rows(dataset: SensorDataset) -> tuple[list[DataRow], list[LocationRow]]:
    """Flatten a dataset back into data/location rows (round-trip support)."""
    data_rows: list[DataRow] = []
    location_rows: list[LocationRow] = []
    for sensor in dataset:
        location_rows.append(
            LocationRow(sensor.sensor_id, sensor.attribute, sensor.lat, sensor.lon)
        )
        values = dataset.values(sensor.sensor_id)
        for t, value in zip(dataset.timeline, values):
            data_rows.append(DataRow(sensor.sensor_id, sensor.attribute, t, float(value)))
    return data_rows, location_rows


def write_dataset_dir(dataset: SensorDataset, directory: str | Path) -> Path:
    """Write ``data.csv``, ``location.csv`` and ``attribute.csv`` to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data_rows, location_rows = dataset_to_rows(dataset)
    with open(directory / "data.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DATA_COLUMNS)
        for row in data_rows:
            writer.writerow(
                [row.sensor_id, row.attribute, format_time(row.time), format_value(row.value)]
            )
    with open(directory / "location.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LOCATION_COLUMNS)
        for row in location_rows:
            writer.writerow([row.sensor_id, row.attribute, repr(row.lat), repr(row.lon)])
    with open(directory / "attribute.csv", "w", newline="") as handle:
        for attribute in dataset.attributes:
            handle.write(attribute + "\n")
    return directory


def read_dataset_dir(directory: str | Path, name: str | None = None) -> SensorDataset:
    """Load a dataset directory written by :func:`write_dataset_dir`.

    Runs the full validation suite before assembly, exactly like an upload.
    """
    directory = Path(directory)
    attributes = read_attribute_csv(directory / "attribute.csv")
    locations = read_location_csv(directory / "location.csv")
    data_rows = read_data_csv(directory / "data.csv")
    errors = (
        validate_attributes(attributes)
        + validate_locations(locations, attributes)
        + validate_data_rows(data_rows, locations)
        + validate_timeline(data_rows)
    )
    if errors:
        raise DatasetValidationError(errors)
    return assemble_dataset(name or directory.name, data_rows, locations, attributes)


# -- chunked upload protocol (Section 3.2) ----------------------------------


def iter_chunks(
    rows: Sequence[DataRow], chunk_lines: int = DEFAULT_CHUNK_LINES
) -> Iterator[str]:
    """Serialise ``data.csv`` rows into ≤ ``chunk_lines``-line CSV chunks.

    Every chunk repeats the header so each is independently parseable — the
    shape a browser client would POST to the upload endpoint.
    """
    if chunk_lines < 1:
        raise ValueError(f"chunk_lines must be >= 1, got {chunk_lines}")
    for start in range(0, len(rows), chunk_lines):
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(DATA_COLUMNS)
        for row in rows[start : start + chunk_lines]:
            writer.writerow(
                [row.sensor_id, row.attribute, format_time(row.time), format_value(row.value)]
            )
        yield buffer.getvalue()
    if not rows:
        buffer = io.StringIO()
        csv.writer(buffer).writerow(DATA_COLUMNS)
        yield buffer.getvalue()


class ChunkAssembler:
    """Server-side accumulator for the chunked upload protocol.

    Feed chunks with :meth:`add_chunk`; call :meth:`finish` with the
    location and attribute files to validate and assemble the dataset.
    """

    def __init__(self, dataset_name: str) -> None:
        if not dataset_name:
            raise ValueError("dataset_name must be non-empty")
        self.dataset_name = dataset_name
        self._rows: list[DataRow] = []
        self._chunks = 0
        self._finished = False

    @property
    def chunks_received(self) -> int:
        return self._chunks

    @property
    def rows_received(self) -> int:
        return len(self._rows)

    def add_chunk(self, chunk_text: str) -> int:
        """Parse one chunk; returns the number of data rows it contained."""
        if self._finished:
            raise RuntimeError("upload already finished")
        rows = read_data_csv(io.StringIO(chunk_text))
        self._rows.extend(rows)
        self._chunks += 1
        return len(rows)

    def finish(
        self, locations: Sequence[LocationRow], attributes: Sequence[str]
    ) -> SensorDataset:
        """Validate everything received and build the dataset."""
        if self._finished:
            raise RuntimeError("upload already finished")
        errors = (
            validate_attributes(attributes)
            + validate_locations(locations, attributes)
            + validate_data_rows(self._rows, locations)
            + validate_timeline(self._rows)
        )
        if errors:
            raise DatasetValidationError(errors)
        self._finished = True
        return assemble_dataset(self.dataset_name, self._rows, locations, attributes)
