"""Benchmarks: the ``python -m benchmarks.harness`` workloads and two CI
smokes no harness workload covers (serving coalescing, disabled
instrumentation overhead)."""
