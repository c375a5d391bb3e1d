"""Benchmark of lexsel selection passes and evolve generations; see README.md."""
