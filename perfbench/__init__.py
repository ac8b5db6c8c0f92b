"""Benchmark harness for anchorkit.

``run.py`` is the entry point; ``workloads`` defines the inputs, the
timed calls and the output checks; ``trace`` and ``layers`` produce the
per-layer figures of a traced run by wrapping the package's public
functions from outside, without touching the package.
"""
