"""Serving benchmark for the Miscela-V API: three workloads plus a traced run.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  The workloads, their reasons and
the layer → end-to-end metric mapping are documented in
:mod:`perfbench.workloads`; the span recorder in :mod:`perfbench.tracer`.
"""
