"""Benchmark harness for windcurve: seeded workloads, correctness gate, spans."""
