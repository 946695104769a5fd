"""Benchmark harness for hullforge; run bench/run.py."""
