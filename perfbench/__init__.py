"""Benchmark for chaoslab: workloads, the span tracer and the runner (run.py)."""
