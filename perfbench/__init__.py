"""Benchmark for fasbar: three workloads, end-to-end metrics and a layer trace.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
