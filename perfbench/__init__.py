"""Benchmark harness for cdrpipe: seeded workloads, untraced end-to-end
metrics, and a traced run that splits the time by layer.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and the metric map.
"""
