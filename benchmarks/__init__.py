"""Benchmarks: the ``python -m benchmarks.harness`` workloads, two CI
smokes no harness workload covers (serving coalescing, disabled
instrumentation overhead) and the backend-purity check."""
