"""Benchmark harness for lchkit: seeded workloads, correctness gate, tracing."""
