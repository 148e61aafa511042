"""Benchmark of the btpgeo CLI: seeded workloads, checks, timing and tracing."""
