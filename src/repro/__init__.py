"""repro — a reproduction of Miscela-V (EDBT 2021).

Smart-city data analysis via visualization of correlated attribute patterns:
CAP mining (the MISCELA algorithm), the four demonstration datasets as
synthetic generators, a document store + result cache + API server matching
the paper's architecture, and an SVG/HTML visualization layer.

Quickstart::

    from repro import generate_santander, MiningParameters, MiscelaMiner, CapReport

    dataset = generate_santander(seed=7)
    params = MiningParameters(evolving_rate=3.0, distance_threshold=0.35,
                              max_attributes=3, min_support=10)
    result = MiscelaMiner(params).mine(dataset)
    CapReport(dataset, result).save_html("caps.html")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from .analysis import (
    PeriodComparison,
    attribute_pair_counts,
    axis_correlation_report,
    cap_summary,
    compare_periods,
    sweep,
)
from .cache import LRUPolicy, NoEviction, ResultCache, TTLPolicy, cache_key
from .core import (
    CAP,
    EvolvingSet,
    MiningCancelled,
    MiningControl,
    MiningParameters,
    MiningResult,
    MiscelaMiner,
    NaiveMiner,
    Sensor,
    SensorDataset,
    StreamingMiner,
    filter_maximal,
    haversine_km,
)
from .data import (
    DATASET_NAMES,
    PAPER_SHAPES,
    dataset_table,
    generate,
    generate_china6,
    generate_china13,
    generate_covid19,
    generate_santander,
    read_dataset_dir,
    recommended_parameters,
    write_dataset_dir,
)
from .jobs import DurableJobStore, Job, JobQueue
from .server import TestClient, create_app, create_wsgi_app
from .store import Database
from .viz import (
    CapReport,
    caps_to_geojson,
    caps_to_json,
    render_cap_timeseries,
    render_map,
    render_timeseries,
)

__version__ = "1.0.0"

__all__ = [
    "CAP",
    "CapReport",
    "DATASET_NAMES",
    "Database",
    "DurableJobStore",
    "EvolvingSet",
    "Job",
    "JobQueue",
    "LRUPolicy",
    "MiningCancelled",
    "MiningControl",
    "MiningParameters",
    "MiningResult",
    "MiscelaMiner",
    "NaiveMiner",
    "NoEviction",
    "PAPER_SHAPES",
    "PeriodComparison",
    "ResultCache",
    "Sensor",
    "SensorDataset",
    "StreamingMiner",
    "TTLPolicy",
    "TestClient",
    "attribute_pair_counts",
    "axis_correlation_report",
    "cache_key",
    "cap_summary",
    "caps_to_geojson",
    "caps_to_json",
    "compare_periods",
    "create_app",
    "create_wsgi_app",
    "dataset_table",
    "filter_maximal",
    "generate",
    "generate_china6",
    "generate_china13",
    "generate_covid19",
    "generate_santander",
    "haversine_km",
    "read_dataset_dir",
    "recommended_parameters",
    "render_cap_timeseries",
    "render_map",
    "render_timeseries",
    "sweep",
    "write_dataset_dir",
    "__version__",
]
