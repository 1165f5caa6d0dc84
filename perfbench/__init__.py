"""Benchmark harness: end-to-end and per-layer timing of whole experiments."""
