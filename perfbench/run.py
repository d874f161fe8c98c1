"""Run one serving-benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload browse-large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is the traced run: it records layer spans (see
:mod:`perfbench.tracer`) on every other operation and reports per-layer
metrics, the tracing overhead and span coverage.

Every metric is printed as ``metric <name> <value> <unit> n=<samples>``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report (and, for a
traced run, the spans) is written under ``perfbench/out/``.  The exit
code is non-zero when any answer differs from the reference or any
request got an unexpected status.
"""

from __future__ import annotations

import sys

# Before any import that could compile: the repository tracks bytecode,
# and a run must leave the tree as it found it.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.metrics import END_TO_END, LAYER_DETAIL, PER_LAYER, end_to_end, per_layer  # noqa: E402
from perfbench.workloads import WORKLOADS, Metric, Report  # noqa: E402


def machine_info() -> dict:
    """The core-count stamp shared with the pytest benches (``benchmarks/conftest.py``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine_info()


def stamp(report: Report) -> dict:
    return {
        "workload": report.workload,
        "seed": report.seed,
        "machine": machine_info(),
        "dataset": report.shape,
        "store": {"engine": "wal",
                  "flush": "fsync of every dirty log at the end of each exclusive section"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    report = WORKLOADS[args.workload](args.seed, args.seconds, OUT_DIR, traced)
    correct = not report.mismatches and report.failed == 0
    print(f"# perfbench {report.workload} seed={report.seed} trace={args.trace}")
    info = stamp(report)
    print("stamp " + json.dumps(info, sort_keys=True))
    for problem in (report.failures + report.mismatches)[:20]:
        print(f"FAIL {problem}")

    e2e = end_to_end(report)
    units = {name: unit for name, unit, _ in END_TO_END}
    report.named["error_rate"] = Metric(
        report.failed / report.attempted, "ratio", report.attempted)
    report.named["wall_setup_s"] = Metric(
        statistics.median(report.setup_s), "s", len(report.setup_s), "p50")
    if report.ops_ms:
        report.named["wall_p50_ms"] = Metric(
            statistics.median(report.ops_ms), "ms", len(report.ops_ms), "p50")
    report.named["pace_ms"] = Metric(
        statistics.median(report.pace_ms), "ms", len(report.pace_ms), "p50")
    for name, metric in sorted(report.named.items()):
        note = f" {metric.note}" if metric.note else ""
        print(f"metric {name} {metric.value!r} {metric.unit} n={metric.count}{note}")
    for name, value in e2e.items():
        print(f"e2e {name} {value!r} {units[name]}")
    if traced:
        layer = per_layer(report)
        detail = per_layer(report, LAYER_DETAIL)
        for rows, values in ((PER_LAYER, layer), (LAYER_DETAIL, detail)):
            for name, unit, _, _ in rows:
                print(f"layer {name} {values[name]!r} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    full = {
        "stamp": info, "correct": correct, "attempted": report.attempted,
        "failed": report.failed, "failures": report.failures[:100],
        "mismatches": report.mismatches[:100], "end_to_end": e2e,
        "named": {name: vars(metric) for name, metric in report.named.items()},
        "layer": report.layer,
    }
    (OUT_DIR / f"{report.workload}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n")
    if traced:
        with open(OUT_DIR / f"{report.workload}-spans.jsonl", "w") as handle:
            for span in report.spans:
                handle.write(json.dumps(span) + "\n")

    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
