"""Benchmark of the flatnav_ray engine; see perfbench/README.md."""
