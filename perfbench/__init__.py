"""Benchmark for the repro validator: see perfbench/README.md."""
