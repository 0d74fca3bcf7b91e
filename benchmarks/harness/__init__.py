"""The benchmark harness: five closed-loop workloads, end-to-end and
per-layer numbers, golden checks. See ``README.md`` in this directory;
run it with ``python -m benchmarks.harness``."""
