"""Benchmark of the repro skyline system: see README.md."""
