"""Benchmark of the casetag command line; run ``python3 casebench/run.py``."""
