"""Benchmark of the spinamp CLI; run `python3 perfbench/run.py --help`."""
